// RC kernel ablation: the batched kernels with and without a thread pool on
// an R-MAT instance, both modes running the identical relaxation schedule.
// The headline number is the wall-clock spent inside the ingest/propagate
// kernels (post/exchange are shared code across modes); the bench also
// cross-checks that the threaded run produced a bit-identical distance
// matrix and op count to the batched one, so a speedup can never come from
// doing less work.
//
// Emits a JSON report (--out, default BENCH_rc_kernels.json) recorded in the
// repository root; build with the `bench` preset (-O3) for quotable numbers.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/ia.hpp"
#include "core/rc.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "runtime/cluster.hpp"

namespace aa {
namespace {

struct BenchOptions {
    std::size_t vertices{20000};
    std::size_t edges{90000};
    std::size_t threads{8};
    int rounds{6};
    std::uint64_t seed{42};
    std::string out{"BENCH_rc_kernels.json"};
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
        } else if (flag == "--rounds") {
            opt.rounds = std::atoi(next().c_str());
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--out") {
            opt.out = next();
        } else {
            std::fprintf(stderr,
                         "usage: ablate_rc_kernels [--n N] [--edges M] "
                         "[--threads T] [--rounds R] [--seed S] [--out PATH]\n");
            std::exit(2);
        }
    }
    if (opt.vertices == 0 || opt.threads == 0 || opt.rounds < 1) {
        std::fprintf(stderr, "--n, --threads must be positive and --rounds >= 1\n");
        std::exit(2);
    }
    return opt;
}

enum class Mode { Batched, Threaded };

const char* mode_name(Mode m) {
    return m == Mode::Batched ? "batched" : "batched+threaded";
}

struct ModeResult {
    double kernel_seconds{0};
    double ingest_seconds{0};
    double propagate_seconds{0};
    double total_seconds{0};
    double ops{0};
    double ingest_ops{0};
    double propagate_ops{0};
    double checksum{0};
};

/// One full relaxation schedule in `mode`. `metrics`, when non-null, is
/// attached to the cluster and receives one wall-clock span per phase per
/// rank per round ("rc.post" / "rc.exchange" / "rc.ingest" / "rc.propagate",
/// bytes/messages from the kernel profiles) — the measured runs pass nullptr
/// (or a disabled registry, for the overhead check) so the hot path is the
/// production one.
ModeResult run_mode(const bench::RankState& base, Mode mode, std::size_t threads,
                    int rounds, MetricsRegistry* metrics = nullptr) {
    using Clock = std::chrono::steady_clock;
    const std::uint32_t num_ranks = base.cluster.num_ranks();
    // Fresh working copy: every mode starts from the identical post-IA state.
    std::vector<DistanceStore> stores = base.stores;
    Cluster cluster(num_ranks);
    cluster.set_metrics(metrics);
    std::unique_ptr<ThreadPool> pool;
    if (mode == Mode::Threaded) {
        pool = std::make_unique<ThreadPool>(threads);
    }

    ModeResult result;
    const auto t_start = Clock::now();
    const bool mx = metrics != nullptr && metrics->enabled();
    const auto secs = [&t_start](Clock::time_point tp) {
        return std::chrono::duration<double>(tp - t_start).count();
    };
    for (int round = 0; round < rounds; ++round) {
        for (RankId r = 0; r < num_ranks; ++r) {
            RcPostProfile post_profile;
            const auto p0 = Clock::now();
            result.ops += rc_post_boundary_updates(base.sgs[r], stores[r], cluster,
                                                   BoundaryWireFormat::V2Soa,
                                                   mx ? &post_profile : nullptr);
            if (mx) {
                MetricSpan span = stamp_span("rc.post", r, round + 1, secs(p0),
                                             secs(Clock::now()));
                span.bytes = post_profile.bytes;
                span.messages = post_profile.messages;
                metrics->record_span(std::move(span));
            }
        }
        if (!cluster.has_pending_messages()) {
            break;
        }
        const auto x0 = Clock::now();
        cluster.exchange();
        if (mx) {
            metrics->record_span(
                stamp_span("rc.exchange", -1, round + 1, secs(x0), secs(Clock::now())));
        }
        for (RankId r = 0; r < num_ranks; ++r) {
            const auto inbox = cluster.receive(r);
            RcIngestProfile ingest_profile;
            RcPropagateProfile prop_profile;
            const auto t0 = Clock::now();
            const double ingest = rc_ingest_updates(
                base.sgs[r], stores[r], inbox, BoundaryWireFormat::V2Soa, pool.get(),
                kRcIngestParallelGrain, kRcIngestWindowBytes,
                mx ? &ingest_profile : nullptr);
            const auto t1 = Clock::now();
            const double propagate =
                rc_propagate_local(base.sgs[r], stores[r], pool.get(),
                                   kRcPropagateParallelGrain, mx ? &prop_profile : nullptr);
            const auto t2 = Clock::now();
            if (mx) {
                metrics->record_span(stamp_span(
                    "rc.ingest", r, round + 1, secs(t0), secs(t1), ingest,
                    {{"entries", std::to_string(ingest_profile.entries)}}));
                metrics->record_span(stamp_span(
                    "rc.propagate", r, round + 1, secs(t1), secs(t2), propagate,
                    {{"rows_drained", std::to_string(prop_profile.rows_drained)}}));
            }
            result.ingest_ops += ingest;
            result.propagate_ops += propagate;
            result.ops += ingest + propagate;
            result.ingest_seconds += std::chrono::duration<double>(t1 - t0).count();
            result.propagate_seconds += std::chrono::duration<double>(t2 - t1).count();
            result.kernel_seconds += std::chrono::duration<double>(t2 - t0).count();
        }
    }
    result.total_seconds = std::chrono::duration<double>(Clock::now() - t_start).count();
    for (RankId r = 0; r < num_ranks; ++r) {
        for (LocalId l = 0; l < stores[r].num_rows(); ++l) {
            for (const Weight w : stores[r].row(l)) {
                if (w < kInfinity) {
                    result.checksum += w;
                }
            }
        }
    }
    return result;
}

}  // namespace
}  // namespace aa

int main(int argc, char** argv) {
    using namespace aa;
    const BenchOptions opt = parse(argc, argv);

    Rng graph_rng(opt.seed);
    const DynamicGraph g = bench::filtered_rmat(opt.vertices, opt.edges, graph_rng);
    std::printf("rc-kernel ablation: n=%zu edges=%zu threads=%zu rounds=%d\n",
                g.num_vertices(), g.num_edges(), opt.threads, opt.rounds);

    std::string json;
    json += "{\n  \"bench\": \"rc_kernels\",\n";
    json += "  \"graph\": {\"generator\": \"filtered-rmat\", \"n\": " +
            std::to_string(g.num_vertices()) +
            ", \"edges\": " + std::to_string(g.num_edges()) + "},\n";
    json += "  \"threads\": " + std::to_string(opt.threads) +
            ",\n  \"rounds\": " + std::to_string(opt.rounds) +
            ",\n  \"seed\": " + std::to_string(opt.seed) + ",\n";
    // Threaded-mode wall clock only reflects the pool when the host actually
    // has cores to run it; the recorded host makes the JSON interpretable
    // wherever it was produced.
    const unsigned hw_threads = bench::host_hardware_concurrency();
    json += "  " + bench::host_json() + ",\n  \"configs\": [\n";
    if (hw_threads < opt.threads) {
        std::printf(
            "   note: host has %u hardware thread(s) < %zu bench threads; "
            "threaded mode cannot show parallel speedup here\n",
            hw_threads, opt.threads);
    }

    bool first_config = true;
    for (const std::uint32_t num_ranks : {4u, 8u}) {
        Rng owner_rng(opt.seed ^ num_ranks);
        std::vector<RankId> owners(g.num_vertices());
        for (std::size_t v = 0; v < owners.size(); ++v) {
            owners[v] = v < num_ranks ? static_cast<RankId>(v)
                                      : static_cast<RankId>(owner_rng.uniform(num_ranks));
        }
        std::printf("-- P=%u: building state + IA...\n", num_ranks);
        const auto state = bench::build_state(g, owners, num_ranks);

        // Unmeasured warm-up: a full pass over the same working-set size so
        // page-table/huge-page state is identical for all measured modes (on
        // this single run order would otherwise favour the later modes).
        std::printf("   warm-up...\n");
        (void)run_mode(*state, Mode::Batched, opt.threads, opt.rounds);

        ModeResult results[2];
        const Mode modes[2] = {Mode::Batched, Mode::Threaded};
        constexpr int kModes = 2;
        constexpr int kBatched = 0;  // index of the batched reference
        for (int m = 0; m < kModes; ++m) {
            results[m] = run_mode(*state, modes[m], opt.threads, opt.rounds);
            std::printf("   %-17s kernel %8.3fs (ingest %7.3fs / prop %7.3fs)  "
                        "total %8.3fs  ops %.3e\n",
                        mode_name(modes[m]), results[m].kernel_seconds,
                        results[m].ingest_seconds, results[m].propagate_seconds,
                        results[m].total_seconds, results[m].ops);
        }
        for (int m = 1; m < kModes; ++m) {
            if (results[m].ops != results[kBatched].ops ||
                results[m].checksum != results[kBatched].checksum) {
                std::fprintf(stderr, "MODE MISMATCH vs batched: %s\n",
                             mode_name(modes[m]));
                return 1;
            }
        }
        const double sp_threaded =
            results[kBatched].kernel_seconds / results[1].kernel_seconds;
        std::printf("   speedup: batched+threaded %.2fx over batched\n", sp_threaded);

        // Overhead check: rerun Batched with a *disabled* registry attached.
        // Every metrics hook is live but short-circuits on the enabled bit,
        // so this must match the plain Batched run to noise.
        MetricsRegistry disabled;
        const ModeResult off =
            run_mode(*state, Mode::Batched, opt.threads, opt.rounds, &disabled);
        const double off_ratio = off.kernel_seconds / results[kBatched].kernel_seconds;
        std::printf("   disabled-metrics kernel %8.3fs (%.3fx of batched)\n",
                    off.kernel_seconds, off_ratio);

        // Separate instrumented pass (excluded from the measured numbers) so
        // the JSON carries a per-round, per-rank wall-clock timeline.
        MetricsRegistry instrumented;
        instrumented.enable();
        (void)run_mode(*state, Mode::Batched, opt.threads, opt.rounds, &instrumented);

        if (!first_config) {
            json += ",\n";
        }
        first_config = false;
        json += "    {\"ranks\": " + std::to_string(num_ranks) + ", \"modes\": [";
        for (int m = 0; m < kModes; ++m) {
            if (m > 0) {
                json += ", ";
            }
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "{\"name\": \"%s\", \"kernel_seconds\": %.6f, "
                          "\"ingest_seconds\": %.6f, \"propagate_seconds\": %.6f, "
                          "\"total_seconds\": %.6f, \"ops\": %.0f}",
                          mode_name(modes[m]), results[m].kernel_seconds,
                          results[m].ingest_seconds, results[m].propagate_seconds,
                          results[m].total_seconds, results[m].ops);
            json += buf;
        }
        char sp[320];
        std::snprintf(sp, sizeof(sp),
                      "], \"speedup_batched_threaded\": %.3f, "
                      "\"disabled_metrics_kernel_seconds\": %.6f, "
                      "\"disabled_metrics_overhead\": %.3f,\n     \"timeline\": ",
                      sp_threaded, off.kernel_seconds, off_ratio);
        json += sp;
        json += metrics_to_json(instrumented, 5);
        json += "}";
    }
    json += "\n  ]\n}\n";

    return bench::write_report(opt.out, json) ? 0 : 1;
}
