// Exchange-overlap ablation: step-synchronous vs event-driven (relax-on-
// arrival) RC steps, under the serialized and pipelined wires, on an R-MAT
// instance at engine level. All four configurations replay the identical
// relaxation schedule — the bench enforces bit-identical distance checksums,
// op counts and message traffic before it will write a report, so a faster
// timeline can never come from doing less work. The headline number is the
// simulated seconds spent in the RC phase (DD + IA are a bit-identical
// prologue shared by every configuration); the acceptance bar is a >= 20%
// reduction for async+pipelined vs the sync+serialized baseline at P=8 under
// the per-byte price model.
//
// Emits a JSON report (--out, default BENCH_overlap.json) recorded in the
// repository root; build with the `bench` preset (-O3) for quotable numbers.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"

namespace aa {
namespace {

struct BenchOptions {
    std::size_t vertices{20000};
    std::size_t edges{90000};
    std::size_t threads{8};
    int steps{8};
    std::uint64_t seed{42};
    std::string out{"BENCH_overlap.json"};
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
        } else if (flag == "--edges") {
            opt.edges = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--threads") {
            opt.threads = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--steps") {
            opt.steps = std::atoi(next().c_str());
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--out") {
            opt.out = next();
        } else {
            std::fprintf(stderr,
                         "usage: ablate_overlap [--n N] [--edges M] "
                         "[--threads T] [--steps R] [--seed S] [--out PATH]\n");
            std::exit(2);
        }
    }
    if (opt.vertices == 0 || opt.threads == 0 || opt.steps < 1) {
        std::fprintf(stderr, "--n, --threads must be positive and --steps >= 1\n");
        std::exit(2);
    }
    return opt;
}

struct Config {
    const char* name;
    bool rc_async;
    CommSchedule schedule;
};

struct ConfigResult {
    double rc_sim_seconds{0};     // simulated clock spent in the RC steps
    double total_sim_seconds{0};  // including the shared DD + IA prologue
    double wall_seconds{0};
    double ops{0};
    double checksum{0};
    std::size_t messages{0};
    std::size_t bytes{0};
    std::size_t steps_run{0};
};

ConfigResult run_config(const DynamicGraph& g, const Config& cfg,
                        std::uint32_t num_ranks, const BenchOptions& opt) {
    using Clock = std::chrono::steady_clock;
    EngineConfig config;
    config.num_ranks = num_ranks;
    config.ia_threads = opt.threads;
    config.seed = opt.seed;
    config.rc_async = cfg.rc_async;
    config.schedule = cfg.schedule;
    config.price_model = PriceModel::PerByte;

    const auto t0 = Clock::now();
    AnytimeEngine engine(g, config);
    engine.initialize();
    const double sim_after_ia = engine.sim_seconds();
    ConfigResult result;
    result.steps_run = engine.run_rc_steps(static_cast<std::size_t>(opt.steps));
    result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    result.total_sim_seconds = engine.sim_seconds();
    result.rc_sim_seconds = result.total_sim_seconds - sim_after_ia;
    for (const RcStepStats& s : engine.step_history()) {
        result.ops += s.ops;
        result.messages += s.messages;
        result.bytes += s.bytes;
    }
    // Distance checksum without materializing the n x n matrix.
    engine.visit_rows([&result](VertexId, std::span<const Weight> row) {
        for (const Weight w : row) {
            if (w < kInfinity) {
                result.checksum += w;
            }
        }
    });
    return result;
}

}  // namespace
}  // namespace aa

int main(int argc, char** argv) {
    using namespace aa;
    const BenchOptions opt = parse(argc, argv);

    Rng graph_rng(opt.seed);
    const DynamicGraph g = bench::filtered_rmat(opt.vertices, opt.edges, graph_rng);
    std::printf("overlap ablation: n=%zu edges=%zu threads=%zu steps=%d\n",
                g.num_vertices(), g.num_edges(), opt.threads, opt.steps);

    const Config configs[] = {
        {"sync+serialized", false, CommSchedule::SerializedAllToAll},
        {"sync+pipelined", false, CommSchedule::Pipelined},
        {"async+serialized", true, CommSchedule::SerializedAllToAll},
        {"async+pipelined", true, CommSchedule::Pipelined},
    };
    constexpr int kConfigs = 4;

    std::string json;
    json += "{\n  \"bench\": \"overlap\",\n";
    json += "  \"graph\": {\"generator\": \"filtered-rmat\", \"n\": " +
            std::to_string(g.num_vertices()) +
            ", \"edges\": " + std::to_string(g.num_edges()) + "},\n";
    json += "  \"threads\": " + std::to_string(opt.threads) +
            ",\n  \"steps\": " + std::to_string(opt.steps) +
            ",\n  \"seed\": " + std::to_string(opt.seed) +
            ",\n  \"price_model\": \"per_byte\",\n";
    json += "  " + bench::host_json() + ",\n  \"configs\": [\n";

    bool all_bars_met = true;
    bool first_entry = true;
    for (const std::uint32_t num_ranks : {4u, 8u}) {
        std::printf("-- P=%u\n", num_ranks);
        ConfigResult results[kConfigs];
        for (int c = 0; c < kConfigs; ++c) {
            results[c] = run_config(g, configs[c], num_ranks, opt);
            std::printf("   %-17s rc_sim %9.3fs  total_sim %9.3fs  wall %7.2fs  "
                        "ops %.3e\n",
                        configs[c].name, results[c].rc_sim_seconds,
                        results[c].total_sim_seconds, results[c].wall_seconds,
                        results[c].ops);
        }

        // Bit-identity cross-check: every configuration reaches the same
        // distances with the same relaxation work and the same traffic. A
        // mismatch means the overlap machinery changed results — hard fail.
        for (int c = 1; c < kConfigs; ++c) {
            if (results[c].checksum != results[0].checksum ||
                results[c].ops != results[0].ops ||
                results[c].messages != results[0].messages ||
                results[c].bytes != results[0].bytes ||
                results[c].steps_run != results[0].steps_run) {
                std::fprintf(stderr, "CONFIG MISMATCH vs sync+serialized: %s\n",
                             configs[c].name);
                return 1;
            }
        }

        const double reduction =
            1.0 - results[3].rc_sim_seconds / results[0].rc_sim_seconds;
        std::printf("   async+pipelined rc_sim reduction: %.1f%%"
                    " (bar at P=8: >= 20%%)\n",
                    reduction * 100.0);
        if (num_ranks == 8 && reduction < 0.20) {
            std::fprintf(stderr, "OVERLAP BAR MISSED at P=%u: %.3f\n", num_ranks,
                         reduction);
            all_bars_met = false;
        }

        if (!first_entry) {
            json += ",\n";
        }
        first_entry = false;
        json += "    {\"ranks\": " + std::to_string(num_ranks) +
                ", \"configs\": [";
        for (int c = 0; c < kConfigs; ++c) {
            if (c > 0) {
                json += ", ";
            }
            char buf[320];
            std::snprintf(buf, sizeof(buf),
                          "{\"name\": \"%s\", \"rc_sim_seconds\": %.6f, "
                          "\"total_sim_seconds\": %.6f, \"wall_seconds\": %.3f, "
                          "\"ops\": %.0f, \"messages\": %zu, \"bytes\": %zu}",
                          configs[c].name, results[c].rc_sim_seconds,
                          results[c].total_sim_seconds, results[c].wall_seconds,
                          results[c].ops, results[c].messages, results[c].bytes);
            json += buf;
        }
        char tail[160];
        std::snprintf(tail, sizeof(tail),
                      "],\n     \"rc_sim_reduction\": %.4f, \"checksum\": %.6f}",
                      reduction, results[0].checksum);
        json += tail;
    }
    json += "\n  ]\n}\n";

    if (!all_bars_met) {
        std::fprintf(stderr, "acceptance bar missed; not writing %s\n",
                     opt.out.c_str());
        return 1;
    }
    return bench::write_report(opt.out, json) ? 0 : 1;
}
