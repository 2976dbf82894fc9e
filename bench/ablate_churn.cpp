// Churn ablation: the Figure-4 restart-vs-anytime comparison re-measured for
// *fully-dynamic* updates — batches that delete edges, add edges between
// existing vertices and reweight edges (increases through the
// invalidate/re-settle cascade, decreases through the growth broadcast).
//
// Protocol per churn size k: converge a from-scratch engine on the host,
// then apply one batch of k deletions + k additions + k/2 reweights and
// reconverge. The anytime cost is the simulated time of that delta
// (apply_deletion + add_edges + run_to_quiescence); the restart cost is a
// full from-scratch run on the final graph — what a static pipeline pays to
// incorporate the same change.
//
// The acceptance bar rides along as an enforced cross-check: both engines
// must land on bit-identical closeness (the host is uniform-weight and the
// reweights are dyadic, so every converged quantity is exact). The bench
// exits nonzero on any checksum mismatch, so the recorded BENCH_churn.json
// can only exist for a correct build.
//
// Emits a JSON report (--out, default BENCH_churn.json) recorded in the
// repository root; build with the `bench` preset (-O3) for quotable numbers.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/closeness.hpp"
#include "core/edge_delete.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"

namespace aa {
namespace {

struct BenchOptions {
    std::size_t vertices{800};
    std::size_t edge_factor{3};
    std::uint64_t seed{42};
    std::vector<std::size_t> sizes{8, 32, 128};
    std::string out{"BENCH_churn.json"};
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
        } else if (flag == "--out") {
            opt.out = next();
        } else {
            std::fprintf(stderr,
                         "usage: ablate_churn [--n N] [--seed S] [--out PATH]\n");
            std::exit(2);
        }
    }
    return opt;
}

/// One churn batch: k deletions, k additions (between existing vertices),
/// k/2 reweights, all derived deterministically from the host graph.
struct ChurnBatch {
    ShrinkBatch shrink;
    std::vector<Edge> additions;
};

ChurnBatch make_churn(const DynamicGraph& g, std::size_t k,
                      std::uint64_t seed) {
    ChurnBatch churn;
    // Deletions and reweights: disjoint strided picks over the edge list, so
    // different churn sizes hit overlapping but growing regions of the graph.
    std::size_t index = 0;
    for (const Edge& e : g.edges()) {
        if (churn.shrink.deletions.size() < k) {
            if (index % 3 == 0) {
                churn.shrink.deletions.push_back(e);
            }
        } else if (churn.shrink.reweights.size() < k / 2) {
            if (index % 3 == 1) {
                // Alternate a dyadic increase (cascade path) and a dyadic
                // decrease (growth broadcast path).
                Edge r = e;
                r.weight = churn.shrink.reweights.size() % 2 == 0 ? 2.0 : 0.5;
                churn.shrink.reweights.push_back(r);
            }
        } else {
            break;
        }
        ++index;
    }
    // Additions: unit-weight edges between distinct existing vertices that
    // are not currently adjacent (so the mirror semantics are unambiguous).
    Rng rng(seed * 17 + k);
    while (churn.additions.size() < k) {
        const auto u = static_cast<VertexId>(rng.uniform(g.num_vertices()));
        const auto v = static_cast<VertexId>(rng.uniform(g.num_vertices()));
        if (u == v || g.edge_weight(u, v) < kInfinity) {
            continue;
        }
        bool duplicate = false;
        for (const Edge& e : churn.additions) {
            if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) {
                duplicate = true;
                break;
            }
        }
        if (!duplicate) {
            churn.additions.push_back({u, v, 1.0});
        }
    }
    return churn;
}

DynamicGraph apply_churn(const DynamicGraph& g, const ChurnBatch& churn) {
    DynamicGraph out = g;
    for (const Edge& e : churn.shrink.deletions) {
        out.remove_edge(e.u, e.v);
    }
    for (const Edge& e : churn.shrink.reweights) {
        if (out.edge_weight(e.u, e.v) < kInfinity) {
            out.set_edge_weight(e.u, e.v, e.weight);
        }
    }
    for (const Edge& e : churn.additions) {
        out.add_edge(e.u, e.v, e.weight);
    }
    return out;
}

/// Order-independent bit-exact digest of a closeness result.
std::uint64_t closeness_checksum(const ClosenessScores& scores) {
    std::uint64_t sum = 0;
    for (std::size_t v = 0; v < scores.closeness.size(); ++v) {
        const std::uint64_t bits =
            std::bit_cast<std::uint64_t>(scores.closeness[v]);
        sum += (bits ^ (v * 0x9E3779B97F4A7C15ull)) +
               scores.reachable[v];
    }
    return sum;
}

}  // namespace
}  // namespace aa

int main(int argc, char** argv) {
    using namespace aa;
    const BenchOptions opt = parse(argc, argv);

    EngineConfig config;
    config.num_ranks = 16;
    config.ia_threads = 4;
    config.seed = opt.seed;

    Rng graph_rng(opt.seed);
    const DynamicGraph host =
        barabasi_albert(opt.vertices, opt.edge_factor, graph_rng);
    std::printf("churn ablation: n=%zu edges=%zu ranks=%u\n",
                host.num_vertices(), host.num_edges(), config.num_ranks);

    struct Row {
        std::size_t k;
        ShrinkReport report;
        double anytime_delta;
        double restart_seconds;
        std::uint64_t checksum;
    };
    std::vector<Row> rows;

    for (const std::size_t k : opt.sizes) {
        const ChurnBatch churn = make_churn(host, k, opt.seed);
        const DynamicGraph final_graph = apply_churn(host, churn);

        // Anytime: converge on the host, then pay only for the delta.
        AnytimeEngine engine(host, config);
        engine.initialize();
        engine.run_to_quiescence();
        const double before = engine.sim_seconds();
        const ShrinkReport report = engine.apply_deletion(churn.shrink);
        engine.add_edges(churn.additions);
        engine.run_to_quiescence();
        const double anytime_delta = engine.sim_seconds() - before;

        // Restart: a full static recomputation of the final graph.
        AnytimeEngine fresh(final_graph, config);
        fresh.initialize();
        fresh.run_to_quiescence();
        const double restart_seconds = fresh.sim_seconds();

        // Enforced cross-check: the anytime engine must land exactly where
        // the from-scratch engine does.
        const std::uint64_t got = closeness_checksum(engine.closeness());
        const std::uint64_t want = closeness_checksum(fresh.closeness());
        if (got != want) {
            std::fprintf(stderr,
                         "CHURN MISMATCH at k=%zu: anytime closeness checksum "
                         "%016llx != restart %016llx\n",
                         k, static_cast<unsigned long long>(got),
                         static_cast<unsigned long long>(want));
            return 1;
        }

        std::printf("   k=%4zu  -%zu edges +%zu edges ~%zu reweights  "
                    "invalidated %zu in %zu rounds  anytime %8.4fs  "
                    "restart %8.4fs  %.1fx\n",
                    k, churn.shrink.deletions.size(), churn.additions.size(),
                    churn.shrink.reweights.size(), report.invalidated_entries,
                    report.cascade_rounds, anytime_delta, restart_seconds,
                    restart_seconds / std::max(anytime_delta, 1e-12));
        rows.push_back({k, report, anytime_delta, restart_seconds, got});
    }

    std::string json;
    json += "{\n  \"bench\": \"churn\",\n";
    json += "  \"graph\": {\"generator\": \"barabasi-albert\", \"n\": " +
            std::to_string(host.num_vertices()) +
            ", \"edges\": " + std::to_string(host.num_edges()) + "},\n";
    json += "  \"ranks\": " + std::to_string(config.num_ranks) +
            ",\n  \"seed\": " + std::to_string(opt.seed) + ",\n";
    json += "  " + bench::host_json() + ",\n";
    json += "  \"note\": \"anytime_delta_s is the simulated cost of "
            "apply_deletion + add_edges + reconvergence on a converged "
            "engine; restart_s is a from-scratch run on the final graph. "
            "closeness_checksum is bit-exact and verified equal between "
            "both engines before this file is written\",\n";
    json += "  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"churn_size\": %zu, \"deletions\": %zu, \"additions\": %zu, "
            "\"reweights\": %zu,\n     \"seed_suspects\": %zu, "
            "\"invalidated_entries\": %zu, \"cascade_rounds\": %zu,\n"
            "     \"anytime_delta_s\": %.9f, \"restart_s\": %.9f, "
            "\"speedup\": %.2f, \"closeness_checksum\": \"%016llx\"}%s\n",
            r.k, r.k, r.k, r.k / 2, r.report.seed_suspects,
            r.report.invalidated_entries, r.report.cascade_rounds,
            r.anytime_delta, r.restart_seconds,
            r.restart_seconds / std::max(r.anytime_delta, 1e-12),
            static_cast<unsigned long long>(r.checksum),
            i + 1 < rows.size() ? "," : "");
        json += buf;
    }
    json += "  ]\n}\n";

    return bench::write_report(opt.out, json) ? 0 : 1;
}
