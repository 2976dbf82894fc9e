// Ablation A (design choice from DESIGN.md): the DD-phase partitioner.
// Multilevel (METIS-style) vs BFS region growing vs round-robin vs random,
// measured as google-benchmark timings with edge-cut / imbalance counters.
//
// The paper assumes a cut-minimizing partitioner (ParMETIS); this ablation
// quantifies what that buys over structure-blind baselines on scale-free and
// community graphs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string_view>

#include "common/metrics.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"

namespace {

using namespace aa;

DynamicGraph graph_for(int family, std::size_t n) {
    Rng rng(1234);
    switch (family) {
        case 0: return barabasi_albert(n, 3, rng);
        case 1: return planted_partition(n, 8, 40.0 / static_cast<double>(n),
                                         2.0 / static_cast<double>(n), rng);
        default: return watts_strogatz(n, 3, 0.1, rng);
    }
}

void report(benchmark::State& state, const DynamicGraph& g, const Partitioning& p) {
    const auto q = evaluate_partition(g, p);
    state.counters["cut_edges"] = static_cast<double>(q.cut_edges);
    state.counters["imbalance"] = q.imbalance;
    state.counters["cut_frac"] =
        static_cast<double>(q.cut_edges) / static_cast<double>(g.num_edges());
}

void BM_Multilevel(benchmark::State& state) {
    const auto g = graph_for(static_cast<int>(state.range(0)), 4000);
    const auto k = static_cast<std::uint32_t>(state.range(1));
    Partitioning p;
    for (auto _ : state) {
        Rng rng(7);
        p = multilevel_partition(g, k, rng);
        benchmark::DoNotOptimize(p);
    }
    report(state, g, p);
}
BENCHMARK(BM_Multilevel)
    ->ArgsProduct({{0, 1}, {4, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_BfsGrowing(benchmark::State& state) {
    const auto g = graph_for(static_cast<int>(state.range(0)), 4000);
    const auto k = static_cast<std::uint32_t>(state.range(1));
    Partitioning p;
    for (auto _ : state) {
        Rng rng(7);
        p = bfs_partition(g, k, rng);
        benchmark::DoNotOptimize(p);
    }
    report(state, g, p);
}
BENCHMARK(BM_BfsGrowing)
    ->ArgsProduct({{0, 1}, {4, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_RoundRobin(benchmark::State& state) {
    const auto g = graph_for(static_cast<int>(state.range(0)), 4000);
    const auto k = static_cast<std::uint32_t>(state.range(1));
    Partitioning p;
    for (auto _ : state) {
        p = round_robin_partition(g.num_vertices(), k);
        benchmark::DoNotOptimize(p);
    }
    report(state, g, p);
}
BENCHMARK(BM_RoundRobin)
    ->ArgsProduct({{0, 1}, {4, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_Random(benchmark::State& state) {
    const auto g = graph_for(static_cast<int>(state.range(0)), 4000);
    const auto k = static_cast<std::uint32_t>(state.range(1));
    Partitioning p;
    for (auto _ : state) {
        Rng rng(7);
        p = random_partition(g.num_vertices(), k, rng);
        benchmark::DoNotOptimize(p);
    }
    report(state, g, p);
}
BENCHMARK(BM_Random)
    ->ArgsProduct({{0, 1}, {4, 16}})
    ->Unit(benchmark::kMillisecond);

/// Supplemental timeline report (--json PATH): one extra, unmeasured run per
/// (partitioner, family, k), recorded as "dd.<algo>" spans on the host clock
/// with the cut/imbalance quality as attributes — the same span schema the
/// engine emits for its DD phase, so downstream tooling can compare the
/// partitioner choice against in-engine DD timings.
bool write_timeline(const std::string& path) {
    using Clock = std::chrono::steady_clock;
    MetricsRegistry registry;
    registry.enable();
    const auto t_start = Clock::now();
    const auto secs = [&t_start] {
        return std::chrono::duration<double>(Clock::now() - t_start).count();
    };
    const char* family_names[2] = {"barabasi-albert", "planted-partition"};
    struct Algo {
        const char* name;
        Partitioning (*run)(const DynamicGraph&, std::uint32_t, Rng&);
    };
    const Algo algos[] = {
        {"dd.multilevel", +[](const DynamicGraph& g, std::uint32_t k, Rng& rng) {
             return multilevel_partition(g, k, rng);
         }},
        {"dd.bfs", +[](const DynamicGraph& g, std::uint32_t k, Rng& rng) {
             return bfs_partition(g, k, rng);
         }},
        {"dd.round_robin", +[](const DynamicGraph& g, std::uint32_t k, Rng&) {
             return round_robin_partition(g.num_vertices(), k);
         }},
        {"dd.random", +[](const DynamicGraph& g, std::uint32_t k, Rng& rng) {
             return random_partition(g.num_vertices(), k, rng);
         }},
    };
    for (int family = 0; family < 2; ++family) {
        const DynamicGraph g = graph_for(family, 4000);
        for (const std::uint32_t k : {4u, 16u}) {
            for (const Algo& algo : algos) {
                Rng rng(7);
                // The span times the partitioner only, not the evaluation.
                double t = secs();
                ScopedSpan span(registry, algo.name, -1, -1, [&t] { return t; });
                const Partitioning p = algo.run(g, k, rng);
                t = secs();
                const auto q = evaluate_partition(g, p);
                span.attr("family", family_names[family]);
                span.attr("ranks", std::to_string(k));
                span.attr("cut_edges", std::to_string(q.cut_edges));
                char imb[32];
                std::snprintf(imb, sizeof(imb), "%.4f", q.imbalance);
                span.attr("imbalance", imb);
            }
        }
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    const std::string metrics = metrics_to_json(registry, 2);
    std::fprintf(f,
                 "{\n  \"bench\": \"ablate_partitioners\",\n"
                 "  \"clock\": \"wall\",\n  \"metrics\": %s\n}\n",
                 metrics.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): strip our --json flag before
// google-benchmark's flag parser rejects it as unrecognized.
int main(int argc, char** argv) {
    std::string json_path;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
            json_path = argv[++i];
            continue;
        }
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!json_path.empty() && !write_timeline(json_path)) {
        return 1;
    }
    return 0;
}
