// Execution-backend ablation: the full engine (IA + RC steps + a mid-RC
// vertex-addition batch) under the sequential driver-loop backend vs the
// default thread-per-core ThreadedBackend (min(P, hardware threads)
// executors), measuring host wall-clock per RC step.
// Both runs execute the identical simulated schedule, so the bench also
// cross-checks that sim-time and the distance matrices are bit-identical —
// any wall-clock difference is pure execution, never different work.
//
// Emits a JSON report (--out, default BENCH_backend.json) recorded in the
// repository root; build with the `bench` preset (-O3) for quotable numbers.
// The report records host_hardware_concurrency: on a single-core host the
// threaded backend cannot run ranks in parallel, so seq/threaded parity is
// the expected outcome there (flagged via "single_core_parity").
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "runtime/backend.hpp"

namespace aa {
namespace {

struct BenchOptions {
    std::size_t vertices{4000};
    std::size_t edge_factor{3};
    std::size_t steps{8};
    std::uint64_t seed{42};
    std::string out{"BENCH_backend.json"};
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
        } else if (flag == "--steps") {
            opt.steps = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--out") {
            opt.out = next();
        } else {
            std::fprintf(stderr,
                         "usage: ablate_backend [--n N] [--steps K] [--seed S] "
                         "[--out PATH]\n");
            std::exit(2);
        }
    }
    if (opt.vertices == 0 || opt.steps == 0) {
        std::fprintf(stderr, "--n and --steps must be positive\n");
        std::exit(2);
    }
    return opt;
}

struct BackendRun {
    double init_seconds{0};
    std::vector<double> step_seconds;  // wall clock of each RC step
    double add_seconds{0};
    double total_seconds{0};
    double sim_seconds{0};
    std::size_t rc_steps{0};
    double checksum{0};
};

BackendRun run_backend(const DynamicGraph& g, BackendKind backend,
                       std::size_t max_steps, std::uint64_t seed) {
    using Clock = std::chrono::steady_clock;
    const auto secs = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };

    EngineConfig config;
    config.num_ranks = 8;
    config.ia_threads = 1;  // intra-rank pool off: isolate rank-level parallelism
    config.seed = seed;
    config.backend = backend;

    BackendRun run;
    const auto t_start = Clock::now();
    AnytimeEngine engine(g, config);
    engine.initialize();
    run.init_seconds = secs(t_start, Clock::now());

    // Half the steps pre-addition, a batch, then converge (bounded).
    const std::size_t pre = max_steps / 2;
    for (std::size_t s = 0; s < pre; ++s) {
        const auto t0 = Clock::now();
        if (!engine.rc_step()) {
            break;
        }
        run.step_seconds.push_back(secs(t0, Clock::now()));
    }
    GrowthConfig gc;
    gc.num_new = 16;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    Rng batch_rng(seed * 7 + 1);
    const auto batch = grow_batch(engine.num_vertices(), gc, batch_rng);
    RoundRobinPS strategy;
    const auto a0 = Clock::now();
    engine.apply_addition(batch, strategy);
    run.add_seconds = secs(a0, Clock::now());
    while (run.step_seconds.size() < max_steps) {
        const auto t0 = Clock::now();
        if (!engine.rc_step()) {
            break;
        }
        run.step_seconds.push_back(secs(t0, Clock::now()));
    }
    run.total_seconds = secs(t_start, Clock::now());
    run.sim_seconds = engine.sim_seconds();
    run.rc_steps = engine.rc_steps_completed();
    engine.visit_rows([&run](VertexId, std::span<const Weight> row) {
        for (const Weight w : row) {
            if (w < kInfinity) {
                run.checksum += w;
            }
        }
    });
    return run;
}

std::string run_to_json(const char* name, const BackendRun& run) {
    char buf[256];
    std::string json = "    {\"backend\": \"";
    json += name;
    std::snprintf(buf, sizeof(buf),
                  "\", \"init_seconds\": %.6f, \"add_seconds\": %.6f, "
                  "\"total_seconds\": %.6f, \"sim_seconds\": %.9f, "
                  "\"rc_steps\": %zu,\n     \"step_seconds\": [",
                  run.init_seconds, run.add_seconds, run.total_seconds,
                  run.sim_seconds, run.rc_steps);
    json += buf;
    for (std::size_t i = 0; i < run.step_seconds.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.6f", i > 0 ? ", " : "",
                      run.step_seconds[i]);
        json += buf;
    }
    json += "]}";
    return json;
}

}  // namespace
}  // namespace aa

int main(int argc, char** argv) {
    using namespace aa;
    const BenchOptions opt = parse(argc, argv);

    Rng graph_rng(opt.seed);
    const DynamicGraph g = barabasi_albert(opt.vertices, opt.edge_factor,
                                           graph_rng, WeightRange{1.0, 3.0});
    const unsigned hw_threads = bench::host_hardware_concurrency();
    const bool single_core_parity = hw_threads < 2;
    std::printf("backend ablation: n=%zu edges=%zu ranks=8 steps<=%zu "
                "host_hw_concurrency=%u threaded_executors=%zu\n",
                g.num_vertices(), g.num_edges(), opt.steps, hw_threads,
                default_backend_executors(8));
    if (single_core_parity) {
        std::printf("   note: single hardware thread — the threaded backend "
                    "cannot run ranks in parallel here; seq/threaded parity "
                    "is the expected result\n");
    }

    // Warm-up pass (unmeasured) so page-cache/allocator state is identical
    // for both measured runs.
    (void)run_backend(g, BackendKind::Sequential, opt.steps, opt.seed);

    const BackendRun seq =
        run_backend(g, BackendKind::Sequential, opt.steps, opt.seed);
    const BackendRun threaded =
        run_backend(g, BackendKind::Threaded, opt.steps, opt.seed);
    for (const auto& [name, run] :
         {std::pair<const char*, const BackendRun&>{"seq", seq},
          {"threaded", threaded}}) {
        double step_total = 0;
        for (const double s : run.step_seconds) {
            step_total += s;
        }
        std::printf("   %-8s init %7.3fs  %zu steps %7.3fs  add %7.3fs  "
                    "total %7.3fs  sim %.4fs\n",
                    name, run.init_seconds, run.step_seconds.size(), step_total,
                    run.add_seconds, run.total_seconds, run.sim_seconds);
    }

    // The determinism contract, enforced where the numbers are minted: both
    // backends must have executed the identical simulated schedule.
    if (seq.sim_seconds != threaded.sim_seconds ||
        seq.checksum != threaded.checksum || seq.rc_steps != threaded.rc_steps) {
        std::fprintf(stderr, "BACKEND MISMATCH: seq and threaded diverged "
                             "(sim %.9f vs %.9f, checksum %.6f vs %.6f)\n",
                     seq.sim_seconds, threaded.sim_seconds, seq.checksum,
                     threaded.checksum);
        return 1;
    }
    const double speedup = threaded.total_seconds > 0
                               ? seq.total_seconds / threaded.total_seconds
                               : 0;
    std::printf("   wall-clock speedup threaded vs seq: %.2fx (bit-identical "
                "results)\n", speedup);

    std::string json;
    json += "{\n  \"bench\": \"backend\",\n";
    json += "  \"graph\": {\"generator\": \"barabasi-albert\", \"n\": " +
            std::to_string(g.num_vertices()) +
            ", \"edges\": " + std::to_string(g.num_edges()) + "},\n";
    json += "  \"ranks\": 8,\n  \"seed\": " + std::to_string(opt.seed) + ",\n";
    json += "  " + bench::host_json() + ",\n";
    json += std::string("  \"single_core_parity\": ") +
            (single_core_parity ? "true" : "false") + ",\n";
    json += "  \"note\": \"";
    json += single_core_parity
                ? "host has a single hardware thread: the threaded backend "
                  "cannot execute ranks concurrently, so seq/threaded "
                  "wall-clock parity is expected and acceptable; results are "
                  "bit-identical by contract"
                : "threaded backend runs thread-per-core (min(ranks, hardware "
                  "threads) executors, the driver included) between "
                  "collectives; results are bit-identical by contract";
    json += "\",\n";
    json += "  \"threaded_executors\": " +
            std::to_string(default_backend_executors(8)) + ",\n";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  \"speedup_threaded\": %.3f,\n", speedup);
    json += buf;
    json += "  \"runs\": [\n" + run_to_json("seq", seq) + ",\n" +
            run_to_json("threaded", threaded) + "\n  ]\n}\n";

    return bench::write_report(opt.out, json) ? 0 : 1;
}
