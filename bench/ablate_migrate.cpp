// Incremental-migration ablation: does telemetry-driven shard migration
// actually flatten a skewed per-rank load — without changing a single bit of
// the converged answers?
//
// Protocol: a unit-weight Barabási–Albert host on 8 ranks. After the initial
// convergence, a hotspot is *manufactured*: every shard of rank 1 is moved
// onto rank 0, so rank 0 owns ~2x the rows and rank 1 none — the worst-case
// ownership skew an adversarial join pattern could produce. Then an identical
// growth workload (several batches, each run to quiescence) is replayed
// twice: once with the planner disabled (the skew persists) and once with
// auto_migrate on (the planner sees the skewed relax ops through its EWMA
// and repoints shards hot -> cold at step boundaries, bounded moves, rows
// shipped over the boundary-block wire). The per-rank relaxation ops over
// the steady-state tail of the workload (the last two batches, with the
// planner frozen so no drain work lands inside the window) — summed from
// the rc.post / rc.ingest / rc.propagate telemetry spans — give each
// mode's max/mean load imbalance.
//
// Two bars are enforced before the report is written, so BENCH_migrate.json
// can only exist for a correct build:
//   - both modes land on bit-identical converged closeness (checksum
//     cross-check — migration must never change answers);
//   - auto-migration removes >= 25% of the excess imbalance:
//     (I_auto - 1) <= 0.75 * (I_none - 1), where I = max/mean rank ops.
//
// Emits a JSON report (--out, default BENCH_migrate.json) recorded in the
// repository root; build with the `bench` preset (-O3) for quotable numbers.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"

namespace aa {
namespace {

struct BenchOptions {
    std::size_t vertices{600};
    std::size_t edge_factor{3};
    std::uint64_t seed{42};
    std::size_t batches{5};
    std::size_t batch_size{16};
    std::string out{"BENCH_migrate.json"};
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
        } else if (flag == "--batches") {
            opt.batches = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--batch-size") {
            opt.batch_size = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--out") {
            opt.out = next();
        } else {
            std::fprintf(stderr,
                         "usage: ablate_migrate [--n N] [--seed S] "
                         "[--batches B] [--batch-size K] [--out PATH]\n");
            std::exit(2);
        }
    }
    return opt;
}

/// Order-independent bit-exact digest of a closeness result (same formula as
/// the other ablations, so reports are cross-comparable).
std::uint64_t closeness_checksum(const ClosenessScores& scores) {
    std::uint64_t sum = 0;
    for (std::size_t v = 0; v < scores.closeness.size(); ++v) {
        const std::uint64_t bits =
            std::bit_cast<std::uint64_t>(scores.closeness[v]);
        sum += (bits ^ (v * 0x9E3779B97F4A7C15ull)) + scores.reachable[v];
    }
    return sum;
}

bool is_relax_span(std::string_view name) {
    return name == "rc.post" || name == "rc.ingest" ||
           name == "rc.ingest.early" || name == "rc.propagate";
}

struct ModeRun {
    bool auto_migrate{false};
    std::vector<double> rank_ops;
    double imbalance{1.0};
    std::size_t shard_migrations{0};
    std::size_t migrated_rows{0};
    std::size_t rc_steps{0};
    std::uint64_t checksum{0};
};

ModeRun run_mode(const DynamicGraph& host, EngineConfig config,
                 bool auto_migrate, const BenchOptions& opt) {
    config.auto_migrate = auto_migrate;
    AnytimeEngine engine(host, config);
    engine.initialize();
    engine.run_to_quiescence();

    // Manufacture the hotspot: pile every one of rank 1's shards onto
    // rank 0. Both modes start the workload from this identical skew.
    std::vector<ShardMove> skew;
    const ShardOwnership& ownership = engine.shard_ownership();
    for (ShardId s = 0; s < ownership.num_shards(); ++s) {
        if (ownership.rank_of(s) == 1) {
            skew.push_back({s, 1, 0});
        }
    }
    engine.migrate_shards(skew);
    const std::size_t skew_moves = engine.report().shard_migrations;
    const std::size_t skew_rows = engine.report().migrated_rows;
    engine.run_to_quiescence();

    // Warm-up batches let the planner see the skew and rebalance; the
    // *measured* window is the steady-state tail (the last `measure`
    // batches), where the sustained per-rank load — not the one-off drain
    // cost of the moves themselves — is what each mode pays.
    const std::size_t measure = std::min<std::size_t>(2, opt.batches);
    std::size_t span_offset = 0;
    RoundRobinPS strategy;
    Rng batch_rng(opt.seed * 131 + 5);
    for (std::size_t b = 0; b < opt.batches; ++b) {
        if (b == opt.batches - measure) {
            // Freeze ownership for the measured tail. The planner had the
            // warm-up batches to rebalance; the tail then measures sustained
            // load on the final assignment, with the one-off drain cost of
            // each move excluded symmetrically ("none" pays no drain either).
            engine.set_auto_migrate(false);
            span_offset = engine.metrics().spans().size();
        }
        GrowthConfig gc;
        gc.num_new = opt.batch_size;
        gc.communities = 2;
        gc.intra_edges = 2;
        gc.host_edges = 2;
        Rng rng = batch_rng.fork();
        const auto batch = grow_batch(engine.num_vertices(), gc, rng);
        engine.apply_addition(batch, strategy);
        engine.run_to_quiescence();
    }

    ModeRun run;
    run.auto_migrate = auto_migrate;
    run.rank_ops.assign(config.num_ranks, 0.0);
    const auto& spans = engine.metrics().spans();
    for (std::size_t i = span_offset; i < spans.size(); ++i) {
        if (spans[i].rank >= 0 && is_relax_span(spans[i].name)) {
            run.rank_ops[static_cast<std::size_t>(spans[i].rank)] +=
                spans[i].ops;
        }
    }
    double total = 0;
    double max = 0;
    for (const double ops : run.rank_ops) {
        total += ops;
        max = std::max(max, ops);
    }
    const double mean = total / static_cast<double>(config.num_ranks);
    run.imbalance = mean > 0 ? max / mean : 1.0;
    run.shard_migrations = engine.report().shard_migrations - skew_moves;
    run.migrated_rows = engine.report().migrated_rows - skew_rows;
    run.rc_steps = engine.rc_steps_completed();
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
    config.enable_metrics = true;  // the per-rank relax spans ARE the metric
    config.migrate_max_shards = 2;
    config.migrate_imbalance_threshold = 1.35;

    // Unit weights (the BA generator's default) make the converged fixpoint
    // unique down to the bits under any ownership, which is what lets the
    // checksum cross-check demand exact equality across modes.
    Rng graph_rng(opt.seed);
    const DynamicGraph host =
        barabasi_albert(opt.vertices, opt.edge_factor, graph_rng);
    std::printf("migrate ablation: n=%zu edges=%zu ranks=%u "
                "shards/rank=%u batches=%zux%zu\n",
                host.num_vertices(), host.num_edges(), config.num_ranks,
                config.shards_per_rank, opt.batches, opt.batch_size);

    const ModeRun none = run_mode(host, config, false, opt);
    const ModeRun autom = run_mode(host, config, true, opt);

    if (none.checksum != autom.checksum) {
        std::fprintf(stderr,
                     "MIGRATE MISMATCH: converged closeness checksum "
                     "%016llx (none) != %016llx (auto)\n",
                     static_cast<unsigned long long>(none.checksum),
                     static_cast<unsigned long long>(autom.checksum));
        return 1;
    }

    for (const ModeRun* run : {&none, &autom}) {
        std::printf("   %-5s imbalance=%.3f  migrations=%zu (%zu rows)  "
                    "rc_steps=%zu\n          rank ops:",
                    run->auto_migrate ? "auto" : "none", run->imbalance,
                    run->shard_migrations, run->migrated_rows, run->rc_steps);
        for (const double ops : run->rank_ops) {
            std::printf(" %.3g", ops);
        }
        std::printf("\n");
    }
    const double excess_none = none.imbalance - 1.0;
    const double excess_auto = autom.imbalance - 1.0;
    const double reduction =
        excess_none > 0 ? 1.0 - excess_auto / excess_none : 0.0;
    std::printf("   excess-imbalance reduction: %.1f%%\n", 100.0 * reduction);

    // The acceptance bar: the planner must remove at least a quarter of the
    // manufactured excess imbalance. A report that fails the bar is not
    // written.
    if (reduction < 0.25) {
        std::fprintf(stderr,
                     "MIGRATE BAR MISSED: excess-imbalance reduction "
                     "%.1f%% < 25%%\n",
                     100.0 * reduction);
        return 1;
    }

    char buf[1024];
    std::string json;
    json += "{\n  \"bench\": \"migrate\",\n";
    json += "  \"graph\": {\"generator\": \"barabasi-albert\", \"n\": " +
            std::to_string(host.num_vertices()) +
            ", \"edges\": " + std::to_string(host.num_edges()) +
            ", \"weights\": \"unit\"},\n";
    json += "  \"ranks\": " + std::to_string(config.num_ranks) +
            ",\n  \"shards_per_rank\": " +
            std::to_string(config.shards_per_rank) +
            ",\n  \"seed\": " + std::to_string(opt.seed) + ",\n";
    json += "  " + bench::host_json() + ",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"workload\": {\"batches\": %zu, \"batch_size\": %zu},\n"
                  "  \"migrate_max_shards\": %u,\n"
                  "  \"migrate_imbalance_threshold\": %.2f,\n",
                  opt.batches, opt.batch_size, config.migrate_max_shards,
                  config.migrate_imbalance_threshold);
    json += buf;
    json += "  \"note\": \"imbalance is max/mean of per-rank relaxation ops "
            "over the steady-state tail (last two batches; the planner is "
            "frozen at the tail boundary so no migration drain lands in the "
            "measured window) of rc.post + rc.ingest + rc.propagate spans; "
            "both modes start from the same manufactured hotspot (all of "
            "rank 1's shards piled onto rank 0). closeness_checksum is "
            "bit-exact and verified equal across both modes before this "
            "file is written\",\n";
    json += "  \"runs\": [\n";
    const ModeRun* runs[] = {&none, &autom};
    for (std::size_t i = 0; i < 2; ++i) {
        const ModeRun& r = *runs[i];
        std::snprintf(buf, sizeof(buf),
                      "    {\"mode\": \"%s\", \"imbalance\": %.4f, "
                      "\"shard_migrations\": %zu, \"migrated_rows\": %zu, "
                      "\"rc_steps\": %zu, \"closeness_checksum\": "
                      "\"%016llx\"}%s\n",
                      r.auto_migrate ? "auto" : "none", r.imbalance,
                      r.shard_migrations, r.migrated_rows, r.rc_steps,
                      static_cast<unsigned long long>(r.checksum),
                      i == 0 ? "," : "");
        json += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "  ],\n  \"excess_imbalance_reduction\": %.4f,\n"
                  "  \"enforced_bar\": \"reduction >= 0.25 and checksums "
                  "equal\"\n}\n",
                  reduction);
    json += buf;

    return bench::write_report(opt.out, json) ? 0 : 1;
}
