// Logical-shard ownership and migration-planner unit tests: the two-level
// vertex -> shard -> rank map must resolve exactly like the flat map it
// replaced (for any granularity), extend deterministically, and the
// telemetry-driven planner must emit bounded, deterministic, never-draining
// move lists. Plus the satellite pieces that ride on the shard layer: the
// shard-aware partition quality telemetry and the shard-decomposed
// serve-layer top-k.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "serve/service.hpp"
#include "serve/topk.hpp"
#include "shard/migration.hpp"
#include "shard/ownership.hpp"

namespace aa {
namespace {

std::vector<RankId> random_assignment(std::size_t n, std::uint32_t ranks,
                                      std::uint64_t seed) {
    Rng rng(seed);
    std::vector<RankId> owners(n);
    for (auto& r : owners) {
        r = static_cast<RankId>(rng.uniform(ranks));
    }
    return owners;
}

TEST(ShardOwnership, ResolvesFlatMapForAnyGranularity) {
    const auto owners = random_assignment(97, 5, 11);
    for (const std::uint32_t spr : {1u, 2u, 3u, 8u, 16u}) {
        const auto ownership = ShardOwnership::from_partition(owners, 5, spr);
        EXPECT_EQ(ownership.num_shards(), 5u * spr);
        for (VertexId v = 0; v < owners.size(); ++v) {
            ASSERT_EQ(ownership.owner(v), owners[v]) << "spr=" << spr;
            ASSERT_TRUE(ownership.owned_by(v, owners[v]));
            // The shard lies in the owner's contiguous range.
            const ShardId s = ownership.shard(v);
            ASSERT_GE(s, owners[v] * spr);
            ASSERT_LT(s, (owners[v] + 1) * spr);
        }
        EXPECT_EQ(ownership.owners(), owners);
    }
}

TEST(ShardOwnership, RoundRobinBalancesShardsWithinEachRank) {
    const auto owners = random_assignment(120, 4, 17);
    const auto ownership = ShardOwnership::from_partition(owners, 4, 8);
    const auto sizes = ownership.shard_sizes();
    ASSERT_EQ(sizes.size(), 32u);
    for (RankId r = 0; r < 4; ++r) {
        std::size_t lo = SIZE_MAX;
        std::size_t hi = 0;
        for (std::uint32_t j = 0; j < 8; ++j) {
            lo = std::min(lo, sizes[r * 8 + j]);
            hi = std::max(hi, sizes[r * 8 + j]);
        }
        EXPECT_LE(hi - lo, 1u) << "rank " << r;
    }
}

TEST(ShardOwnership, RepointReRoutesExactlyTheShardsVertices) {
    const auto owners = random_assignment(64, 3, 23);
    auto ownership = ShardOwnership::from_partition(owners, 3, 4);
    const ShardId moved = 5;  // rank 1's second shard
    const auto members = ownership.shard_vertices(moved);
    ASSERT_FALSE(members.empty());
    ownership.set_shard_rank(moved, 2);
    for (VertexId v = 0; v < owners.size(); ++v) {
        const bool in_shard =
            std::find(members.begin(), members.end(), v) != members.end();
        EXPECT_EQ(ownership.owner(v), in_shard ? RankId{2} : owners[v]);
    }
}

TEST(ShardOwnership, ExtendIsDeterministicAcrossReplicas) {
    const auto owners = random_assignment(40, 4, 29);
    auto replica_a = ShardOwnership::from_partition(owners, 4, 4);
    auto replica_b = replica_a;
    const auto batch = random_assignment(25, 4, 31);
    replica_a.extend(batch);
    replica_b.extend(batch);
    EXPECT_EQ(replica_a, replica_b);
    ASSERT_EQ(replica_a.num_vertices(), 65u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(replica_a.owner(static_cast<VertexId>(40 + i)), batch[i]);
    }
}

TEST(ShardOwnership, NewVertexGetsFreshShardWhenRankWasDrained) {
    // Repoint all of rank 0's shards away, then register a vertex owned by
    // rank 0: a fresh shard must be appended for it.
    auto ownership =
        ShardOwnership::from_partition(std::vector<RankId>{0, 0, 1, 1}, 2, 2);
    ownership.set_shard_rank(0, 1);
    ownership.set_shard_rank(1, 1);
    const std::size_t shards_before = ownership.num_shards();
    ownership.extend(std::vector<RankId>{0});
    EXPECT_EQ(ownership.num_shards(), shards_before + 1);
    EXPECT_EQ(ownership.owner(4), 0u);
}

TEST(MigrationPlanner, QuietUnderThreshold) {
    const auto owners = random_assignment(80, 4, 37);
    const auto ownership = ShardOwnership::from_partition(owners, 4, 4);
    const std::vector<double> weights(ownership.num_shards(), 1.0);
    MigrationPlanner planner;
    planner.observe(std::vector<double>{100.0, 101.0, 99.0, 100.0});
    EXPECT_NEAR(planner.imbalance(), 101.0 / 100.0, 1e-9);
    EXPECT_TRUE(planner.plan(ownership, weights, 4, 1.25).empty());
}

TEST(MigrationPlanner, MovesHotRanksShardToColdestDeterministically) {
    const auto owners = random_assignment(80, 4, 41);
    const auto ownership = ShardOwnership::from_partition(owners, 4, 4);
    std::vector<double> weights(ownership.num_shards(), 1.0);
    MigrationPlanner planner;
    planner.observe(std::vector<double>{400.0, 10.0, 10.0, 10.0});
    const auto plan = planner.plan(ownership, weights, 1, 1.25);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].from, 0u);
    EXPECT_EQ(plan[0].to, 1u);  // coldest, ties to the lowest rank id
    ASSERT_LT(plan[0].shard, 4u);
    // Planning is pure: same inputs, same plan.
    EXPECT_EQ(planner.plan(ownership, weights, 1, 1.25), plan);
    // The bound is honored.
    EXPECT_LE(planner.plan(ownership, weights, 3, 1.25).size(), 3u);
}

TEST(MigrationPlanner, NeverDrainsARanksLastPopulatedShard) {
    // Rank 0 is scorching but owns a single populated shard: no plan.
    auto ownership =
        ShardOwnership::from_partition(std::vector<RankId>{0, 0, 1, 1}, 2, 1);
    const std::vector<double> weights{10.0, 10.0};
    MigrationPlanner planner;
    planner.observe(std::vector<double>{1000.0, 1.0});
    EXPECT_TRUE(planner.plan(ownership, weights, 4, 1.25).empty());
}

TEST(MigrationPlanner, EwmaSmoothsAndResetForgets) {
    MigrationPlanner planner(0.5);
    planner.observe(std::vector<double>{100.0, 0.0});
    planner.observe(std::vector<double>{0.0, 100.0});
    ASSERT_EQ(planner.rank_load().size(), 2u);
    EXPECT_DOUBLE_EQ(planner.rank_load()[0], 50.0);
    EXPECT_DOUBLE_EQ(planner.rank_load()[1], 50.0);
    EXPECT_EQ(planner.observations(), 2u);
    planner.reset();
    EXPECT_TRUE(planner.rank_load().empty());
    EXPECT_DOUBLE_EQ(planner.imbalance(), 1.0);
}

TEST(PartitionQuality, ShardLoadsAndCutsAggregateToRankMetrics) {
    Rng rng(7);
    const auto g = barabasi_albert(60, 2, rng);
    const auto owners = random_assignment(60, 3, 43);
    const auto ownership = ShardOwnership::from_partition(owners, 3, 4);

    Partitioning flat;
    flat.assignment = owners;
    flat.num_parts = 3;
    const PartitionQuality rank_q = evaluate_partition(g, flat);
    EXPECT_TRUE(rank_q.shard_loads.empty());  // flat overload: no shard view

    const PartitionQuality q = evaluate_partition(g, ownership, 3);
    EXPECT_EQ(q.cut_edges, rank_q.cut_edges);
    EXPECT_EQ(q.part_sizes, rank_q.part_sizes);
    EXPECT_EQ(q.part_cut_edges, rank_q.part_cut_edges);
    ASSERT_EQ(q.shard_loads.size(), ownership.num_shards());
    ASSERT_EQ(q.shard_cut_edges.size(), ownership.num_shards());
    // Per-shard cut telemetry refines the per-rank communication volume.
    for (RankId r = 0; r < 3; ++r) {
        std::size_t rank_cut = 0;
        for (std::uint32_t j = 0; j < 4; ++j) {
            rank_cut += q.shard_cut_edges[r * 4 + j];
        }
        EXPECT_EQ(rank_cut, q.part_cut_edges[r]) << "rank " << r;
    }
    // Load = vertices + incident edge endpoints, summed over all shards.
    const double total =
        std::accumulate(q.shard_loads.begin(), q.shard_loads.end(), 0.0);
    EXPECT_DOUBLE_EQ(total, static_cast<double>(g.num_vertices()) +
                                2.0 * static_cast<double>(g.num_edges()));
}

TEST(ShardTopK, ShardedSelectionMatchesFullSelectionBitIdentically) {
    Rng rng(19);
    const auto g = barabasi_albert(70, 2, rng);
    EngineConfig config;
    config.num_ranks = 4;
    config.seed = 91;
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();
    // The service's merged per-shard partials against a full selection; k
    // beyond topk_maintained takes the service's full-selection fallback.
    ServeConfig sc;
    sc.topk_maintained = 32;
    QueryService service(engine, sc);
    const auto snapshot = service.snapshot();
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{32}, std::size_t{500}}) {
        const TopKResult top = service.topk(k, FreshnessPolicy::ServeStale);
        ASSERT_EQ(top.meta.version, snapshot->version);
        EXPECT_EQ(top.entries, topk_from_snapshot(*snapshot, k)) << "k=" << k;
    }
}

}  // namespace
}  // namespace aa
