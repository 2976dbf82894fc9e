// Incremental shard-migration contract tests.
//
// Two load-bearing properties from ISSUE 9:
//
//   1. Identity shard map — while no shard is repointed, the two-level
//      vertex -> shard -> rank indirection is *pure refactor*: every
//      distance, closeness score, simulated second and telemetry span is
//      bit-identical between shards_per_rank = 8 (the new default) and
//      shards_per_rank = 1 (the historical flat map), across the full
//      P x executors x sync/async lattice (one wire format).
//
//   2. Migration correctness — migrate_shards mid-RC (partially converged
//      state, marked rows, in-flight updates) must land the engine, at
//      quiescence, bit-identical to a from-scratch engine on the final
//      graph; and it must compose with deletions, checkpointing, and the
//      telemetry-driven auto planner.
#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <tuple>
#include <vector>

#include "executors.hpp"
#include "core/baseline.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "runtime/alltoall.hpp"

namespace aa {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

GrowthBatch make_batch(std::size_t host_vertices, std::size_t count,
                       std::uint64_t seed) {
    GrowthConfig gc;
    gc.num_new = count;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    Rng rng(seed);
    return grow_batch(host_vertices, gc, rng);
}

/// First populated shard owned by `rank` — migration tests move real rows.
ShardId populated_shard_of(const ShardOwnership& ownership, RankId rank) {
    for (ShardId s = 0; s < ownership.num_shards(); ++s) {
        if (ownership.rank_of(s) == rank && !ownership.shard_vertices(s).empty()) {
            return s;
        }
    }
    return kInvalidShard;
}

/// The migration acceptance bar: distances and closeness bit-identical to a
/// from-scratch engine (same config, no migration) on the final graph.
void expect_matches_fresh(const AnytimeEngine& engine,
                          const DynamicGraph& final_graph,
                          EngineConfig config) {
    config.auto_migrate = false;
    AnytimeEngine fresh(final_graph, config);
    fresh.initialize();
    fresh.run_to_quiescence();
    const auto got = engine.full_distance_matrix();
    const auto want = fresh.full_distance_matrix();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
        for (std::size_t t = 0; t < want.size(); ++t) {
            ASSERT_EQ(bits(got[v][t]), bits(want[v][t]))
                << "d(" << v << "," << t << ") = " << got[v][t] << " want "
                << want[v][t];
        }
    }
    const ClosenessScores got_scores = engine.closeness();
    const ClosenessScores want_scores = fresh.closeness();
    ASSERT_EQ(got_scores.closeness.size(), want_scores.closeness.size());
    for (std::size_t v = 0; v < want_scores.closeness.size(); ++v) {
        EXPECT_EQ(bits(got_scores.closeness[v]), bits(want_scores.closeness[v]))
            << "closeness(" << v << ")";
        EXPECT_EQ(got_scores.reachable[v], want_scores.reachable[v])
            << "reachable(" << v << ")";
    }
}

// ---------------------------------------------------------------------------
// 1. Identity shard map: spr = 8 vs spr = 1, bit for bit, full lattice.
// ---------------------------------------------------------------------------

struct RunResult {
    std::vector<std::vector<Weight>> matrix;
    ClosenessScores scores;
    double sim_seconds{0};
    std::size_t rc_steps{0};
    std::vector<MetricSpan> spans;
};

RunResult run_scenario(std::uint32_t ranks, Executors executors,
                       BoundaryWireFormat wire, bool rc_async,
                       std::uint32_t shards_per_rank) {
    Rng rng(987);
    DynamicGraph g = barabasi_albert(72, 2, rng, WeightRange{1.0, 3.0});

    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 2;
    config.seed = 0x54A2D + ranks;
    config.backend_threads = executor_count(executors);
    config.wire_format = wire;
    config.rc_async = rc_async;
    config.shards_per_rank = shards_per_rank;
    config.enable_metrics = true;

    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(2);

    // Mid-RC addition batch: seeding, ghost routing and dirty marking all
    // resolve ownership through the shard map.
    const auto batch = make_batch(g.num_vertices(), 5, 4242);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();

    RunResult result;
    result.matrix = engine.full_distance_matrix();
    result.scores = engine.closeness();
    result.sim_seconds = engine.sim_seconds();
    result.rc_steps = engine.rc_steps_completed();
    result.spans = engine.metrics().spans();
    return result;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
    // EXPECT_EQ on doubles is exact comparison — bit-identical, not "close".
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.rc_steps, b.rc_steps);
    ASSERT_EQ(a.matrix.size(), b.matrix.size());
    for (std::size_t v = 0; v < a.matrix.size(); ++v) {
        ASSERT_EQ(a.matrix[v], b.matrix[v]) << "row " << v;
    }
    ASSERT_EQ(a.scores.closeness, b.scores.closeness);
    ASSERT_EQ(a.scores.reachable, b.scores.reachable);
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        EXPECT_EQ(a.spans[i].name, b.spans[i].name) << "span " << i;
        EXPECT_EQ(a.spans[i].rank, b.spans[i].rank) << "span " << i;
        EXPECT_EQ(a.spans[i].step, b.spans[i].step) << "span " << i;
        EXPECT_EQ(a.spans[i].t_begin, b.spans[i].t_begin)
            << "span " << i << " (" << a.spans[i].name << ")";
        EXPECT_EQ(a.spans[i].t_end, b.spans[i].t_end)
            << "span " << i << " (" << a.spans[i].name << ")";
        EXPECT_EQ(a.spans[i].ops, b.spans[i].ops)
            << "span " << i << " (" << a.spans[i].name << ")";
    }
}

using Param = std::tuple<std::uint32_t /*ranks*/, Executors,
                         BoundaryWireFormat, bool /*rc_async*/>;

class MigrateIdentityLattice : public ::testing::TestWithParam<Param> {};

TEST_P(MigrateIdentityLattice, ShardedMapMatchesFlatMapBitIdentically) {
    const auto [ranks, executors, wire, rc_async] = GetParam();
    const RunResult sharded = run_scenario(ranks, executors, wire, rc_async, 8);
    const RunResult flat = run_scenario(ranks, executors, wire, rc_async, 1);
    expect_bit_identical(sharded, flat);
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, MigrateIdentityLattice,
    ::testing::Combine(
        ::testing::Values(2u, 4u, 8u),
        ::testing::Values(Executors::Sequential, Executors::Threaded),
        ::testing::Values(BoundaryWireFormat::V2Soa),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& p) {
        return "r" + std::to_string(std::get<0>(p.param)) +
               (std::get<1>(p.param) == Executors::Threaded ? "_thr"
                                                            : "_seq") +
               "_v2" +
               (std::get<3>(p.param) ? "_async" : "_sync");
    });

// ---------------------------------------------------------------------------
// 2. Migration protocol correctness.
// ---------------------------------------------------------------------------

class MigrateProtocol
    : public ::testing::TestWithParam<std::tuple<BoundaryWireFormat, bool>> {
protected:
    EngineConfig base_config(std::uint32_t ranks) const {
        EngineConfig config;
        config.num_ranks = ranks;
        config.seed = 77;
        config.wire_format = std::get<0>(GetParam());
        config.rc_async = std::get<1>(GetParam());
        return config;
    }
};

TEST_P(MigrateProtocol, MidRcMigrationConvergesLikeFromScratch) {
    // Unit weights: path sums are exact, so the from-scratch comparison is
    // bit-for-bit (same bar as the shrink tests).
    Rng rng(5);
    DynamicGraph g = barabasi_albert(64, 2, rng);
    const EngineConfig config = base_config(4);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(1);  // partially converged: rows still marked

    // A growth batch right before the migration leaves freshly seeded rows
    // and pending boundary updates for the drain phase to flush.
    const auto batch = make_batch(g.num_vertices(), 6, 99);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);

    const ShardId moving = populated_shard_of(engine.shard_ownership(), 0);
    ASSERT_NE(moving, kInvalidShard);
    const auto members = engine.shard_ownership().shard_vertices(moving);
    const std::vector<ShardMove> moves{{moving, 0, 3}};
    engine.migrate_shards(moves);

    // The map repointed exactly the moved shard's vertices...
    for (const VertexId v : members) {
        EXPECT_EQ(engine.shard_ownership().owner(v), 3u);
    }
    EXPECT_EQ(engine.report().shard_migrations, 1u);
    EXPECT_EQ(engine.report().migrated_rows, members.size());

    // ...and convergence lands on the exact final-graph state.
    engine.run_to_quiescence();
    expect_matches_fresh(engine, apply_batch(g, batch), config);
}

TEST_P(MigrateProtocol, MigrationComposesWithDeletion) {
    Rng rng(6);
    DynamicGraph g = barabasi_albert(56, 2, rng);
    const EngineConfig config = base_config(4);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    // Move one shard each off ranks 0 and 1, then shrink the graph: the
    // invalidate/re-settle cascade must route suspects through the migrated
    // map, including rows that now live on a different rank.
    std::vector<ShardMove> moves;
    const ShardId s0 = populated_shard_of(engine.shard_ownership(), 0);
    const ShardId s1 = populated_shard_of(engine.shard_ownership(), 1);
    ASSERT_NE(s0, kInvalidShard);
    ASSERT_NE(s1, kInvalidShard);
    moves.push_back({s0, 0, 2});
    moves.push_back({s1, 1, 3});
    engine.migrate_shards(moves);
    EXPECT_EQ(engine.report().shard_migrations, 2u);

    ShrinkBatch shrink;
    const auto edges = g.edges();
    for (std::size_t i = 0; i < edges.size() && shrink.deletions.size() < 4;
         i += edges.size() / 4) {
        shrink.deletions.push_back(edges[i]);
    }
    engine.apply_deletion(shrink);
    engine.run_to_quiescence();

    DynamicGraph final_graph = g;
    for (const Edge& e : shrink.deletions) {
        final_graph.remove_edge(e.u, e.v);
    }
    expect_matches_fresh(engine, final_graph, config);
}

TEST_P(MigrateProtocol, CheckpointRoundTripPreservesMigratedMap) {
    Rng rng(7);
    DynamicGraph g = barabasi_albert(48, 2, rng);
    const EngineConfig config = base_config(3);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    const ShardId moving = populated_shard_of(engine.shard_ownership(), 1);
    ASSERT_NE(moving, kInvalidShard);
    const std::vector<ShardMove> moves{{moving, 1, 0}};
    engine.migrate_shards(moves);
    engine.run_to_quiescence();

    std::stringstream buffer;
    engine.save_checkpoint(buffer);
    AnytimeEngine restored = AnytimeEngine::load_checkpoint(buffer, config);

    // The migrated two-level map survives the round trip exactly — a flat
    // from_partition rebuild could not reproduce the repointed shard.
    EXPECT_EQ(restored.shard_ownership(), engine.shard_ownership());
    EXPECT_EQ(restored.shard_ownership().rank_of(moving), 0u);

    restored.run_to_quiescence();
    const auto got = restored.full_distance_matrix();
    const auto want = engine.full_distance_matrix();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
        ASSERT_EQ(got[v], want[v]) << "row " << v;
    }
}

TEST_P(MigrateProtocol, BogusMovesAreSkippedEntirely) {
    Rng rng(8);
    DynamicGraph g = barabasi_albert(40, 2, rng);
    const EngineConfig config = base_config(2);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();
    const auto before = engine.shard_ownership();

    const std::vector<ShardMove> moves{
        {kInvalidShard, 0, 1},              // unknown shard
        {0, 1, 1},                          // stale `from` (shard 0 is rank 0's)
        {0, 0, 0},                          // self-move
        {0, 0, 99},                         // rank out of range
    };
    engine.migrate_shards(moves);
    EXPECT_EQ(engine.shard_ownership(), before);
    EXPECT_EQ(engine.report().shard_migrations, 0u);
    EXPECT_EQ(engine.report().migrated_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Wire, MigrateProtocol,
    ::testing::Combine(::testing::Values(BoundaryWireFormat::V2Soa), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<BoundaryWireFormat, bool>>& p) {
        return std::string("v2") + (std::get<1>(p.param) ? "_async" : "_sync");
    });

TEST(Migrate, PayloadIsPricedByTheExchange) {
    // The moved rows cross the wire in one all-to-all exchange, priced like
    // any other; the map publish is a separate Control broadcast. So the
    // move's simulated communication time is exactly the two together.
    Rng rng(3);
    const DynamicGraph g = barabasi_albert(64, 2, rng);
    EngineConfig config;
    config.num_ranks = 4;
    config.seed = 21;
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();
    const ShardId moving = populated_shard_of(engine.shard_ownership(), 1);
    ASSERT_NE(moving, kInvalidShard);

    const Cluster& cluster = engine.cluster();
    const ClusterStats before = cluster.stats();
    const RankStats source_before = cluster.rank_stats(1);
    const RankStats publisher_before = cluster.rank_stats(0);
    const RankStats destination_before = cluster.rank_stats(3);
    const std::vector<ShardMove> moves{{moving, 1, 3}};
    engine.migrate_shards(moves);
    const ClusterStats after = cluster.stats();

    const std::size_t payload = cluster.rank_stats(1).bytes_sent - source_before.bytes_sent;
    EXPECT_EQ(cluster.rank_stats(1).messages_sent, source_before.messages_sent + 1);
    ASSERT_GT(payload, 0u);
    EXPECT_EQ(after.exchanges, before.exchanges + 1);
    EXPECT_EQ(after.broadcasts, before.broadcasts + 1);

    std::vector<std::size_t> pair_bytes(16, 0);
    pair_bytes[1 * 4 + 3] = payload;
    const double exchange = exchange_duration(pair_bytes, 4, config.logp, config.schedule);
    // The broadcast sends P-1 copies of its payload plus a 16-byte header.
    const std::size_t published =
        (cluster.rank_stats(0).bytes_sent - publisher_before.bytes_sent) / 3;
    EXPECT_EQ(cluster.rank_stats(3).bytes_received - destination_before.bytes_received,
              payload + published);
    const double broadcast = 2 * config.logp.message_time(published);
    EXPECT_GT(exchange, 0.0);
    EXPECT_DOUBLE_EQ(after.comm_seconds - before.comm_seconds, exchange + broadcast);
}

// ---------------------------------------------------------------------------
// 3. Telemetry-driven auto migration.
// ---------------------------------------------------------------------------

TEST(MigrateAuto, PlannerSeesSkewAndAutoMigrationRebalances) {
    Rng rng(9);
    DynamicGraph g = barabasi_albert(64, 2, rng);
    EngineConfig config;
    config.num_ranks = 4;
    config.seed = 13;
    config.auto_migrate = true;
    config.migrate_max_shards = 1;
    config.migrate_imbalance_threshold = 1.25;
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    // Manufacture a hotspot: pile most of rank 1's shards onto rank 0, so
    // rank 0 owns ~2x the rows and measurably does ~2x the relax work.
    std::vector<ShardMove> skew;
    for (ShardId s = 0; s < engine.shard_ownership().num_shards(); ++s) {
        if (engine.shard_ownership().rank_of(s) == 1 && skew.size() < 7) {
            skew.push_back({s, 1, 0});
        }
    }
    ASSERT_EQ(skew.size(), 7u);
    engine.migrate_shards(skew);
    const std::size_t manual = engine.report().shard_migrations;
    EXPECT_EQ(manual, 7u);

    // Drive load through the skewed assignment: two growth batches keep the
    // RC loop busy long enough for the EWMA to see the imbalance and for the
    // boundary hook to act on it.
    RoundRobinPS strategy;
    engine.apply_addition(make_batch(engine.num_vertices(), 8, 21), strategy);
    engine.run_to_quiescence();
    engine.apply_addition(make_batch(engine.num_vertices(), 8, 22), strategy);
    engine.run_to_quiescence();

    // The planner moved at least one shard back off the hot rank...
    EXPECT_GT(engine.report().shard_migrations, manual);

    // ...and auto migration never compromises the converged state.
    DynamicGraph final_graph(engine.graph());
    expect_matches_fresh(engine, final_graph, config);
}

TEST(MigrateAuto, DisabledPlannerStillObservesButNeverMoves) {
    Rng rng(10);
    DynamicGraph g = barabasi_albert(48, 2, rng);
    EngineConfig config;
    config.num_ranks = 3;
    config.seed = 15;  // auto_migrate stays default-off
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();
    EXPECT_GT(engine.migration_planner().observations(), 0u);
    EXPECT_EQ(engine.report().shard_migrations, 0u);
}

}  // namespace
}  // namespace aa
