// Refinement ablation (Ablation J): does heat-steered RC scheduling get the
// rows users actually query to exactness sooner, without changing what the
// engine converges to?
//
// Protocol: a unit-weight Barabási–Albert host and a Zipf-skewed query trace
// (a handful of vertices soak up most of the query mass, the classic serving
// skew). Two engines run the identical budgeted RC schedule envelope —
// refine_budget_ops caps the per-rank propagate work each step, so a step
// costs the same under either policy — one with RefinePolicy::Uniform, one
// with RefinePolicy::QueryHeat fed by the trace. After every step each row is
// compared bitwise against a fully-converged twin (unit weights make the
// converged fixpoint schedule-independent down to the bits), recording the
// first step at which the row is exact. The headline metric is the
// query-weighted mean of those steps: how long the trace's query mass waits
// for exact answers under each policy.
//
// Two bars are enforced before the report is written, so BENCH_refine.json
// can only exist for a correct build:
//   - both policies (and the unbudgeted twin) land on bit-identical converged
//     closeness (checksum cross-check — steering must never change answers);
//   - QueryHeat reaches query-weighted exactness in >= 2x fewer RC steps than
//     Uniform (the exit-nonzero acceptance bar for this PR).
//
// Emits a JSON report (--out, default BENCH_refine.json) recorded in the
// repository root; build with the `bench` preset (-O3) for quotable numbers.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/closeness.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "refine/planner.hpp"

namespace aa {
namespace {

struct BenchOptions {
    std::size_t vertices{800};
    std::size_t edge_factor{3};
    std::uint64_t seed{42};
    double budget_ops{1000};
    double zipf_s{2.0};
    std::size_t queries{64};
    std::string out{"BENCH_refine.json"};
};

BenchOptions parse(int argc, char** argv) {
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--n") {
            opt.vertices = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--budget") {
            opt.budget_ops = std::strtod(next().c_str(), nullptr);
        } else if (flag == "--zipf") {
            opt.zipf_s = std::strtod(next().c_str(), nullptr);
        } else if (flag == "--queries") {
            opt.queries = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--out") {
            opt.out = next();
        } else {
            std::fprintf(stderr,
                         "usage: ablate_refine [--n N] [--seed S] [--budget OPS] "
                         "[--zipf S] [--queries Q] [--out PATH]\n");
            std::exit(2);
        }
    }
    return opt;
}

/// Zipf(s) over a seeded permutation of the vertex set: query q lands on the
/// r-th hottest vertex with probability proportional to 1/r^s. The permutation
/// decouples query heat from the BA hub structure, so the ablation measures
/// steering, not a lucky alignment of popularity with degree.
std::vector<VertexId> zipf_trace(std::size_t n, std::size_t queries, double s,
                                 Rng& rng) {
    std::vector<VertexId> order(n);
    for (std::size_t v = 0; v < n; ++v) {
        order[v] = static_cast<VertexId>(v);
    }
    rng.shuffle(order);
    std::vector<double> cdf(n);
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf[r] = total;
    }
    std::vector<VertexId> trace;
    trace.reserve(queries);
    for (std::size_t q = 0; q < queries; ++q) {
        const double u = rng.uniform01() * total;
        const std::size_t r = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        trace.push_back(order[std::min(r, n - 1)]);
    }
    return trace;
}

/// Order-independent bit-exact digest of a closeness result.
std::uint64_t closeness_checksum(const ClosenessScores& scores) {
    std::uint64_t sum = 0;
    for (std::size_t v = 0; v < scores.closeness.size(); ++v) {
        const std::uint64_t bits =
            std::bit_cast<std::uint64_t>(scores.closeness[v]);
        sum += (bits ^ (v * 0x9E3779B97F4A7C15ull)) + scores.reachable[v];
    }
    return sum;
}

struct PolicyRun {
    RefinePolicy policy{RefinePolicy::Uniform};
    std::size_t steps_to_quiescence{0};
    double total_ops{0};
    double weighted_steps_to_exact{0};
    std::uint64_t checksum{0};
};

/// Run one budgeted engine under `policy` and measure, per row, the first RC
/// step after which its closeness is bitwise equal to the converged reference.
PolicyRun run_policy(const DynamicGraph& host, const EngineConfig& base,
                     RefinePolicy policy, double budget_ops,
                     const std::vector<VertexId>& trace,
                     const ClosenessScores& converged,
                     std::size_t max_steps) {
    EngineConfig config = base;
    config.refine_policy = policy;
    config.refine_budget_ops = budget_ops;
    AnytimeEngine engine(host, config);
    engine.initialize();

    const std::size_t n = host.num_vertices();
    std::vector<std::size_t> exact_step(n, 0);
    std::vector<std::uint8_t> exact(n, 0);

    // Heat is re-recorded every boundary: decay halves it per step, and a
    // live service would keep feeding queries while RC runs. Uniform gets the
    // same records — its contract is to ignore them.
    const auto record_trace = [&] {
        for (const VertexId v : trace) {
            engine.demand().record(v);
        }
    };
    record_trace();

    PolicyRun run;
    run.policy = policy;
    for (std::size_t step = 1; step <= max_steps; ++step) {
        if (!engine.rc_step()) {
            break;
        }
        const ClosenessScores now = engine.closeness();
        for (std::size_t v = 0; v < n; ++v) {
            // Unit weights: relaxation is monotone onto the unique fixpoint,
            // so a row that matches the reference bitwise stays matched.
            if (!exact[v] &&
                std::bit_cast<std::uint64_t>(now.closeness[v]) ==
                    std::bit_cast<std::uint64_t>(converged.closeness[v]) &&
                now.reachable[v] == converged.reachable[v]) {
                exact[v] = 1;
                exact_step[v] = step;
            }
        }
        run.steps_to_quiescence = step;
        record_trace();
    }

    for (const RcStepStats& s : engine.step_history()) {
        run.total_ops += s.ops;
    }
    double weighted = 0;
    for (const VertexId v : trace) {
        weighted += static_cast<double>(exact_step[v]);
    }
    run.weighted_steps_to_exact = weighted / static_cast<double>(trace.size());
    run.checksum = closeness_checksum(engine.closeness());
    return run;
}

}  // namespace
}  // namespace aa

int main(int argc, char** argv) {
    using namespace aa;
    const BenchOptions opt = parse(argc, argv);

    EngineConfig config;
    config.num_ranks = 8;
    config.ia_threads = 4;
    config.seed = opt.seed;

    // Unit weights (the BA generator's default) are what make the per-row
    // bitwise exactness test and the converged checksum cross-check sound:
    // the fixpoint is unique down to the bits under any schedule.
    Rng graph_rng(opt.seed);
    const DynamicGraph host =
        barabasi_albert(opt.vertices, opt.edge_factor, graph_rng);
    std::printf("refine ablation: n=%zu edges=%zu ranks=%u budget=%.0f "
                "zipf_s=%.2f queries=%zu\n",
                host.num_vertices(), host.num_edges(), config.num_ranks,
                opt.budget_ops, opt.zipf_s, opt.queries);

    Rng trace_rng(opt.seed * 31 + 7);
    const std::vector<VertexId> trace =
        zipf_trace(host.num_vertices(), opt.queries, opt.zipf_s, trace_rng);

    // Converged twin: the bitwise reference every budgeted run is scored
    // against, and the anchor of the checksum cross-check.
    AnytimeEngine reference(host, config);
    reference.initialize();
    reference.run_to_quiescence();
    const ClosenessScores converged = reference.closeness();
    const std::uint64_t want = closeness_checksum(converged);

    const std::size_t max_steps = host.num_vertices() * 4;
    const PolicyRun uniform =
        run_policy(host, config, RefinePolicy::Uniform, opt.budget_ops, trace,
                   converged, max_steps);
    const PolicyRun heat =
        run_policy(host, config, RefinePolicy::QueryHeat, opt.budget_ops,
                   trace, converged, max_steps);

    for (const PolicyRun* run : {&uniform, &heat}) {
        if (run->checksum != want) {
            std::fprintf(stderr,
                         "REFINE MISMATCH: %s converged closeness checksum "
                         "%016llx != reference %016llx\n",
                         std::string(refine_policy_name(run->policy)).c_str(),
                         static_cast<unsigned long long>(run->checksum),
                         static_cast<unsigned long long>(want));
            return 1;
        }
    }

    const double speedup =
        uniform.weighted_steps_to_exact /
        std::max(heat.weighted_steps_to_exact, 1e-12);
    for (const PolicyRun* run : {&uniform, &heat}) {
        std::printf("   %-8s steps=%4zu  total_ops=%12.0f  "
                    "query-weighted steps-to-exact=%8.2f\n",
                    std::string(refine_policy_name(run->policy)).c_str(), run->steps_to_quiescence,
                    run->total_ops, run->weighted_steps_to_exact);
    }
    std::printf("   speedup (query-weighted steps, uniform/heat): %.2fx  "
                "ops ratio (heat/uniform): %.3f\n",
                speedup, heat.total_ops / std::max(uniform.total_ops, 1e-12));

    // The acceptance bar: heat steering must at least halve the wait for the
    // query mass. A report that fails the bar is not written.
    if (speedup < 2.0) {
        std::fprintf(stderr,
                     "REFINE BAR MISSED: query-weighted speedup %.2fx < 2x\n",
                     speedup);
        return 1;
    }

    char buf[1024];
    std::string json;
    json += "{\n  \"bench\": \"refine\",\n";
    json += "  \"graph\": {\"generator\": \"barabasi-albert\", \"n\": " +
            std::to_string(host.num_vertices()) +
            ", \"edges\": " + std::to_string(host.num_edges()) +
            ", \"weights\": \"unit\"},\n";
    json += "  \"ranks\": " + std::to_string(config.num_ranks) +
            ",\n  \"seed\": " + std::to_string(opt.seed) + ",\n";
    json += "  " + bench::host_json() + ",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"budget_ops_per_rank_step\": %.0f,\n"
                  "  \"trace\": {\"distribution\": \"zipf\", \"s\": %.2f, "
                  "\"queries\": %zu},\n",
                  opt.budget_ops, opt.zipf_s, opt.queries);
    json += buf;
    json += "  \"note\": \"weighted_steps_to_exact is the query-trace-weighted "
            "mean of the first RC step at which a row's closeness is bitwise "
            "equal to the converged reference; both policies run the same "
            "per-step op budget. closeness_checksum is bit-exact and verified "
            "equal across uniform, heat and the unbudgeted reference before "
            "this file is written\",\n";
    json += "  \"runs\": [\n";
    const PolicyRun* runs[] = {&uniform, &heat};
    for (std::size_t i = 0; i < 2; ++i) {
        const PolicyRun& r = *runs[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"policy\": \"%s\", \"steps_to_quiescence\": %zu, "
            "\"total_relaxation_ops\": %.0f,\n     "
            "\"weighted_steps_to_exact\": %.4f, "
            "\"closeness_checksum\": \"%016llx\"}%s\n",
            std::string(refine_policy_name(r.policy)).c_str(), r.steps_to_quiescence,
            r.total_ops,
            r.weighted_steps_to_exact,
            static_cast<unsigned long long>(r.checksum), i == 0 ? "," : "");
        json += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "  ],\n  \"query_weighted_speedup\": %.4f,\n"
                  "  \"enforced_bar\": \"speedup >= 2.0 and all checksums "
                  "equal\"\n}\n",
                  speedup);
    json += buf;

    return bench::write_report(opt.out, json) ? 0 : 1;
}
