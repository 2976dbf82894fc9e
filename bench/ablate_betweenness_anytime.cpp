// Ablation G (extension): the anytime property of the second measure.
// Pivot-sampled betweenness refines from a rough estimate to exact as pivots
// are processed; this harness tracks estimate quality (rank correlation of
// the top decile and mean relative error on it) against simulated time —
// the "interrupt whenever the answer is good enough" curve.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/metrics.hpp"
#include "harness.hpp"
#include "measures/betweenness.hpp"

namespace {

using namespace aa;

/// Fraction of the exact top-k that appears in the estimate's top-k.
double top_overlap(const std::vector<double>& estimate,
                   const std::vector<double>& exact, std::size_t k) {
    const auto top_of = [k](const std::vector<double>& scores) {
        std::vector<std::size_t> order(scores.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        std::partial_sort(order.begin(), order.begin() + k, order.end(),
                          [&](std::size_t a, std::size_t b) {
                              return scores[a] > scores[b];
                          });
        order.resize(k);
        std::sort(order.begin(), order.end());
        return order;
    };
    const auto a = top_of(estimate);
    const auto b = top_of(exact);
    std::vector<std::size_t> common;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(common));
    return static_cast<double>(common.size()) / static_cast<double>(k);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace aa::bench;

    Options options = parse_options(
        argc, argv, "ablation: anytime quality of sampled betweenness");
    options.vertices = std::min<std::size_t>(options.vertices, 600);

    const DynamicGraph host = make_host_graph(options);
    const auto exact = exact_betweenness(host);
    const std::size_t k = std::max<std::size_t>(host.num_vertices() / 10, 5);

    std::printf("Ablation G: anytime betweenness on a %zu-vertex graph, %u ranks "
                "(top-%zu overlap vs exact)\n\n",
                host.num_vertices(), options.ranks, k);

    BetweennessEngine engine(host, engine_config(options));
    engine.initialize();

    // BetweennessEngine has no built-in registry; record one refine-phase
    // span per batch of pivots on the simulated clock so the JSON report
    // still carries the anytime timeline.
    JsonReport report = make_report("ablate_betweenness_anytime", options);
    MetricsRegistry registry;
    if (report.wanted()) {
        registry.enable();
    }

    Table table({"pivots", "sim_s", "top_decile_overlap"});
    const std::size_t step = std::max<std::size_t>(host.num_vertices() / 8, 1);
    std::int64_t refine_round = 0;
    while (!engine.exact()) {
        ScopedSpan span(registry, "bw.refine", -1, ++refine_round,
                        [&engine] { return engine.sim_seconds(); });
        engine.refine(step);
        const auto estimate = engine.scores();
        const double overlap = top_overlap(estimate, exact, k);
        span.attr("pivots", std::to_string(engine.pivots_processed()));
        span.attr("top_decile_overlap", fmt_double(overlap, 3));
        table.add_row({std::to_string(engine.pivots_processed()),
                       fmt_seconds(engine.sim_seconds()),
                       fmt_double(overlap, 3)});
    }
    table.print();
    table.write_csv(options.csv);
    report.set_table(table);
    report.add_raw("metrics", metrics_to_json(registry, 2));
    report.write();
    return 0;
}
