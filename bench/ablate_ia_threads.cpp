// Ablation B: the paper's §IV.B claim that the multithreaded IA Dijkstra is
// O(work / T). Measures (a) real wall time of the thread-pool Dijkstra at
// T = 1,2,4,8 and (b) the simulated IA seconds charged by the LogP model,
// which divide exactly by T by construction.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <numeric>
#include <string_view>

#include "common/metrics.hpp"
#include "core/distance_store.hpp"
#include "core/ia.hpp"
#include "graph/generators.hpp"
#include "runtime/logp.hpp"

namespace {

using namespace aa;

struct Fixture {
    DynamicGraph g;
    std::vector<RankId> owners;

    explicit Fixture(std::size_t n) {
        Rng rng(99);
        g = barabasi_albert(n, 3, rng);
        owners.assign(n, 0);
    }
};

void BM_IaDijkstra(benchmark::State& state) {
    static Fixture fixture(1500);
    const auto threads = static_cast<std::size_t>(state.range(0));
    ThreadPool pool(threads);

    double ops = 0;
    for (auto _ : state) {
        LocalSubgraph sg(0, fixture.owners);
        DistanceStore store(fixture.g.num_vertices());
        for (const VertexId v : sg.local_vertices()) {
            store.add_row(v);
        }
        for (const Edge& e : fixture.g.edges()) {
            sg.add_local_edge(e.u, e.v, e.weight);
        }
        ops = ia_dijkstra_all(sg, store, pool);
        benchmark::DoNotOptimize(store);
    }
    LogPParams params;
    state.counters["abstract_ops"] = ops;
    state.counters["sim_ia_seconds"] = params.compute_time(ops, threads);
}
BENCHMARK(BM_IaDijkstra)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// Supplemental timeline report (--json PATH): one extra, unmeasured IA run
/// per thread count, recorded as back-to-back "ia" spans on the simulated
/// clock. The google-benchmark console/JSON output stays the measurement of
/// record; this gives the aa tooling the same span schema as the harness
/// benches.
bool write_timeline(const std::string& path) {
    MetricsRegistry registry;
    registry.enable();
    const Fixture fixture(1500);
    const LogPParams params;
    double t = 0;
    for (const std::size_t threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        LocalSubgraph sg(0, fixture.owners);
        DistanceStore store(fixture.g.num_vertices());
        for (const VertexId v : sg.local_vertices()) {
            store.add_row(v);
        }
        for (const Edge& e : fixture.g.edges()) {
            sg.add_local_edge(e.u, e.v, e.weight);
        }
        IaProfile profile;
        const double ops = ia_dijkstra_all(sg, store, pool, &profile);
        const double sim = params.compute_time(ops, threads);
        ScopedSpan span(registry, "ia", 0, -1, [&t] { return t; });
        span.add(ops);
        span.attr("threads", std::to_string(threads));
        span.attr("sources", std::to_string(profile.sources));
        span.attr("folds", std::to_string(profile.folds));
        t += sim;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    const std::string metrics = metrics_to_json(registry, 2);
    std::fprintf(f,
                 "{\n  \"bench\": \"ablate_ia_threads\",\n"
                 "  \"clock\": \"simulated\",\n  \"metrics\": %s\n}\n",
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
