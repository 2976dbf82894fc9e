// Boundary-DV wire path ablation: the relaxation sweeps with the AVX2 path
// on and off, on an R-MAT instance, both configurations running the
// identical relaxation schedule over the one boundary wire format. The
// headline numbers are the kernel wall-clock per configuration and the bytes
// shipped. The bench cross-checks that both configurations produced
// bit-identical distance checksums, op counts, messages and bytes, and exits
// 1 otherwise, so a faster sweep cannot come from doing less work.
//
// Emits a JSON report (--out, default BENCH_wire_format.json) recorded in the
// repository root; build with the `bench` preset (-O3) for quotable numbers.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

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
    std::string out{"BENCH_wire_format.json"};
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
                         "usage: ablate_wire_format [--n N] [--edges M] "
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

struct Config {
    const char* name;
    bool simd;
};

struct ConfigResult {
    double kernel_seconds{0};   // ingest + propagate wall clock
    double total_seconds{0};
    double ops{0};
    double checksum{0};
    std::size_t total_bytes{0};
    std::size_t total_messages{0};
    std::vector<std::size_t> step_bytes;  // bytes posted per RC step
};

bool same_work(const ConfigResult& a, const ConfigResult& b) {
    return a.ops == b.ops && a.checksum == b.checksum &&
           a.total_messages == b.total_messages && a.step_bytes == b.step_bytes;
}

/// One full relaxation schedule under `cfg` (batched kernels, threaded
/// ingest/propagate). Both configurations replay the identical schedule;
/// only the sweep implementation differs.
ConfigResult run_config(const bench::RankState& base, const Config& cfg,
                        std::size_t threads, int rounds) {
    using Clock = std::chrono::steady_clock;
    const std::uint32_t num_ranks = base.cluster.num_ranks();
    std::vector<DistanceStore> stores = base.stores;
    for (DistanceStore& store : stores) {
        store.set_simd_enabled(cfg.simd);
    }
    Cluster cluster(num_ranks);
    ThreadPool pool(threads);

    ConfigResult result;
    const auto t_start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
        RcPostProfile post_profile;
        for (RankId r = 0; r < num_ranks; ++r) {
            result.ops += rc_post_boundary_updates(base.sgs[r], stores[r],
                                                   cluster, BoundaryWireFormat::V2Soa,
                                                   &post_profile);
        }
        result.step_bytes.push_back(post_profile.bytes);
        result.total_bytes += post_profile.bytes;
        result.total_messages += post_profile.messages;
        if (!cluster.has_pending_messages()) {
            break;
        }
        cluster.exchange();
        for (RankId r = 0; r < num_ranks; ++r) {
            const auto inbox = cluster.receive(r);
            const auto t0 = Clock::now();
            result.ops += rc_ingest_updates(base.sgs[r], stores[r], inbox,
                                            BoundaryWireFormat::V2Soa, &pool,
                                            kRcIngestParallelGrain,
                                            kRcIngestWindowBytes, nullptr);
            result.ops += rc_propagate_local(base.sgs[r], stores[r], &pool,
                                             kRcPropagateParallelGrain, nullptr);
            result.kernel_seconds +=
                std::chrono::duration<double>(Clock::now() - t0).count();
        }
    }
    result.total_seconds =
        std::chrono::duration<double>(Clock::now() - t_start).count();
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
    std::printf("wire-path ablation: n=%zu edges=%zu threads=%zu rounds=%d\n",
                g.num_vertices(), g.num_edges(), opt.threads, opt.rounds);

    const Config configs[] = {{"scalar", false}, {"simd", true}};
    constexpr int kConfigs = 2;

    std::string json;
    json += "{\n  \"bench\": \"wire_format\",\n";
    json += "  \"graph\": {\"generator\": \"filtered-rmat\", \"n\": " +
            std::to_string(g.num_vertices()) +
            ", \"edges\": " + std::to_string(g.num_edges()) + "},\n";
    json += "  \"threads\": " + std::to_string(opt.threads) +
            ",\n  \"rounds\": " + std::to_string(opt.rounds) +
            ",\n  \"seed\": " + std::to_string(opt.seed) + ",\n";
    json += "  " + bench::host_json() + ",\n  \"configs\": [\n";

    bool first_config = true;
    for (const std::uint32_t num_ranks : {4u, 8u}) {
        Rng owner_rng(opt.seed ^ num_ranks);
        std::vector<RankId> owners(g.num_vertices());
        for (std::size_t v = 0; v < owners.size(); ++v) {
            owners[v] = v < num_ranks
                            ? static_cast<RankId>(v)
                            : static_cast<RankId>(owner_rng.uniform(num_ranks));
        }
        std::printf("-- P=%u: building state + IA...\n", num_ranks);
        const auto state = bench::build_state(g, owners, num_ranks);

        // Unmeasured warm-up with the same working-set size.
        std::printf("   warm-up...\n");
        (void)run_config(*state, configs[1], opt.threads, opt.rounds);

        ConfigResult results[kConfigs];
        for (int c = 0; c < kConfigs; ++c) {
            results[c] = run_config(*state, configs[c], opt.threads, opt.rounds);
            std::printf("   %-8s bytes %12zu  kernel %8.3fs  total %8.3fs  "
                        "ops %.3e\n",
                        configs[c].name, results[c].total_bytes,
                        results[c].kernel_seconds, results[c].total_seconds,
                        results[c].ops);
        }

        // Bit-identity cross-check: same relaxation work, same final
        // distances, same traffic with the SIMD sweep on and off.
        if (!same_work(results[0], results[1])) {
            std::fprintf(stderr, "SIMD TOGGLE MISMATCH at P=%u\n", num_ranks);
            return 1;
        }

        if (!first_config) {
            json += ",\n";
        }
        first_config = false;
        json += "    {\"ranks\": " + std::to_string(num_ranks) +
                ", \"configs\": [";
        for (int c = 0; c < kConfigs; ++c) {
            if (c > 0) {
                json += ", ";
            }
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "{\"name\": \"%s\", \"total_bytes\": %zu, "
                          "\"kernel_seconds\": %.6f, \"total_seconds\": %.6f, "
                          "\"ops\": %.0f}",
                          configs[c].name, results[c].total_bytes,
                          results[c].kernel_seconds, results[c].total_seconds,
                          results[c].ops);
            json += buf;
        }
        json += "]}";
    }
    json += "\n  ]\n}\n";
    return bench::write_report(opt.out, json) ? 0 : 1;
}
