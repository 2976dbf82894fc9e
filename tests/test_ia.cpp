// IA phase: per-rank Dijkstra over the local sub-graph (owned vertices plus
// external boundary bridges).
#include <gtest/gtest.h>


#include "core/closeness.hpp"
#include "core/ia.hpp"
#include "graph/generators.hpp"

namespace aa {
namespace {

struct RankFixture {
    LocalSubgraph sg;
    DistanceStore store;

    RankFixture(RankId rank, const DynamicGraph& g, const std::vector<RankId>& owners)
        : sg(rank, owners), store(g.num_vertices()) {
        for (const VertexId v : sg.local_vertices()) {
            store.add_row(v);
        }
        for (const Edge& e : g.edges()) {
            if (owners[e.u] == rank || owners[e.v] == rank) {
                sg.add_local_edge(e.u, e.v, e.weight);
            }
        }
    }
};

TEST(Ia, SingleRankEqualsExactApsp) {
    Rng rng(1);
    const auto g = barabasi_albert(50, 2, rng, WeightRange{1.0, 3.0});
    const std::vector<RankId> owners(50, 0);
    RankFixture rank(0, g, owners);
    ThreadPool pool(1);
    const double ops = ia_dijkstra_all(rank.sg, rank.store, pool);
    EXPECT_GT(ops, 0.0);

    const auto exact = exact_apsp(g);
    for (LocalId l = 0; l < 50; ++l) {
        for (VertexId t = 0; t < 50; ++t) {
            EXPECT_NEAR(rank.store.at(l, t), exact[l][t], 1e-9);
        }
    }
}

TEST(Ia, LocalDistancesAreUpperBoundsUnderPartition) {
    // With two ranks, local sub-graph distances can only overestimate the
    // true distances (paths may shortcut through the other rank).
    Rng rng(2);
    const auto g = barabasi_albert(60, 2, rng);
    std::vector<RankId> owners(60);
    for (VertexId v = 0; v < 60; ++v) {
        owners[v] = v % 2;
    }
    RankFixture rank(0, g, owners);
    ThreadPool pool(1);
    ia_dijkstra_all(rank.sg, rank.store, pool);

    const auto exact = exact_apsp(g);
    for (LocalId l = 0; l < rank.sg.num_local(); ++l) {
        const VertexId src = rank.sg.global_id(l);
        for (VertexId t = 0; t < 60; ++t) {
            if (rank.store.at(l, t) < kInfinity) {
                EXPECT_GE(rank.store.at(l, t), exact[src][t] - 1e-9);
            }
        }
    }
}

TEST(Ia, ReachesExternalBoundaryVertices) {
    // Path 0-1-2-3 split as {0,1} vs {2,3}: rank 0's sub-graph includes the
    // bridge vertex 2 through the cut edge 1-2, but not 3.
    DynamicGraph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    const std::vector<RankId> owners{0, 0, 1, 1};
    RankFixture rank(0, g, owners);
    ThreadPool pool(1);
    ia_dijkstra_all(rank.sg, rank.store, pool);
    const LocalId l0 = rank.sg.local_id(0);
    EXPECT_NEAR(rank.store.at(l0, 1), 1.0, 1e-12);
    EXPECT_NEAR(rank.store.at(l0, 2), 2.0, 1e-12);
    EXPECT_GE(rank.store.at(l0, 3), kInfinity);  // not in G_p
}

TEST(Ia, FullIaSkipsPropMarks) {
    DynamicGraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    const std::vector<RankId> owners(3, 0);
    RankFixture rank(0, g, owners);
    ThreadPool pool(1);
    ia_dijkstra_all(rank.sg, rank.store, pool);
    for (LocalId l = 0; l < 3; ++l) {
        EXPECT_FALSE(rank.store.has_prop(l));  // already at local fixpoint
        EXPECT_TRUE(rank.store.has_send(l));   // but everything must be shared
    }
}

TEST(Ia, MultithreadedMatchesSingleThreaded) {
    Rng rng(3);
    const auto g = barabasi_albert(80, 3, rng, WeightRange{1.0, 5.0});
    std::vector<RankId> owners(80, 0);

    RankFixture serial(0, g, owners);
    RankFixture parallel(0, g, owners);
    ThreadPool pool1(1);
    ThreadPool pool4(4);
    ia_dijkstra_all(serial.sg, serial.store, pool1);
    ia_dijkstra_all(parallel.sg, parallel.store, pool4);
    for (LocalId l = 0; l < 80; ++l) {
        for (VertexId t = 0; t < 80; ++t) {
            EXPECT_EQ(serial.store.at(l, t), parallel.store.at(l, t));
        }
    }
}

TEST(Ia, OpsCountDeterministic) {
    Rng rng(4);
    const auto g = barabasi_albert(60, 2, rng);
    const std::vector<RankId> owners(60, 0);
    RankFixture a(0, g, owners);
    RankFixture b(0, g, owners);
    ThreadPool pool1(1);
    ThreadPool pool3(3);
    const double ops_a = ia_dijkstra_all(a.sg, a.store, pool1);
    const double ops_b = ia_dijkstra_all(b.sg, b.store, pool3);
    EXPECT_EQ(ops_a, ops_b);  // thread count must not change counted work
}

TEST(Ia, EmptySourcesNoWork) {
    // A rank that owns no vertex has no IA sources, so it does no work.
    DynamicGraph g(3);
    g.add_edge(0, 1);
    const std::vector<RankId> owners(3, 0);
    RankFixture rank(1, g, owners);
    ASSERT_EQ(rank.sg.num_local(), 0u);
    ThreadPool pool(1);
    IaProfile profile;
    EXPECT_EQ(ia_dijkstra_all(rank.sg, rank.store, pool, &profile), 0.0);
    EXPECT_EQ(profile.sources, 0u);
    EXPECT_EQ(profile.folds, 0u);
}

}  // namespace
}  // namespace aa
