#include <gtest/gtest.h>

#include "core/subgraph.hpp"

namespace aa {
namespace {

// Ownership: rank 0 gets {0, 2}, rank 1 gets {1, 3}.
std::vector<RankId> owners4() { return {0, 1, 0, 1}; }

TEST(LocalSubgraph, AdoptsOwnedVerticesInOrder) {
    LocalSubgraph sg(0, owners4());
    EXPECT_EQ(sg.num_local(), 2u);
    EXPECT_EQ(sg.num_global(), 4u);
    EXPECT_EQ(sg.global_id(0), 0u);
    EXPECT_EQ(sg.global_id(1), 2u);
    EXPECT_EQ(sg.local_id(0), 0u);
    EXPECT_EQ(sg.local_id(2), 1u);
    EXPECT_TRUE(sg.owns(0));
    EXPECT_FALSE(sg.owns(1));
    EXPECT_EQ(sg.owner(3), 1u);
}

TEST(LocalSubgraph, LocalEdgeBothSides) {
    LocalSubgraph sg(0, owners4());
    sg.add_local_edge(0, 2, 1.5);  // both owned
    EXPECT_EQ(sg.neighbors(sg.local_id(0)).size(), 1u);
    EXPECT_EQ(sg.neighbors(sg.local_id(2)).size(), 1u);
    EXPECT_TRUE(sg.external_neighbors(0).empty());
    EXPECT_FALSE(sg.is_boundary(sg.local_id(0)));
}

TEST(LocalSubgraph, CutEdgeTracksExternal) {
    LocalSubgraph sg(0, owners4());
    sg.add_local_edge(0, 1, 2.0);  // 1 owned by rank 1
    const LocalId l0 = sg.local_id(0);
    EXPECT_TRUE(sg.is_boundary(l0));
    const auto ext = sg.external_neighbors(1);
    ASSERT_EQ(ext.size(), 1u);
    EXPECT_EQ(ext[0].first, l0);
    EXPECT_EQ(ext[0].second, 2.0);
    EXPECT_EQ(sg.neighbor_ranks(l0), std::vector<RankId>{1});
    EXPECT_EQ(sg.external_boundary(), std::vector<VertexId>{1});
}

TEST(LocalSubgraph, NeighborRanksDeduplicated) {
    // Rank 0 owns 0; vertices 1..3 owned by ranks 1, 1, 2.
    LocalSubgraph sg(0, {0, 1, 1, 2});
    sg.add_local_edge(0, 1, 1.0);
    sg.add_local_edge(0, 2, 1.0);
    sg.add_local_edge(0, 3, 1.0);
    const auto ranks = sg.neighbor_ranks(sg.local_id(0));
    EXPECT_EQ(ranks, (std::vector<RankId>{1, 2}));
}

TEST(LocalSubgraph, ExtendOwnershipAdoptsNewVertices) {
    LocalSubgraph sg(1, owners4());
    const std::vector<RankId> new_owners{1, 0, 1};
    sg.extend_ownership(new_owners);
    EXPECT_EQ(sg.num_global(), 7u);
    EXPECT_EQ(sg.num_local(), 4u);  // 1, 3, 4, 6
    EXPECT_TRUE(sg.owns(4));
    EXPECT_FALSE(sg.owns(5));
    EXPECT_TRUE(sg.owns(6));
    EXPECT_EQ(sg.global_id(2), 4u);
    EXPECT_EQ(sg.global_id(3), 6u);
}

TEST(LocalSubgraph, SetOwnershipKeepsRows) {
    // Rank 0 holds {0, 2} with edges 0-1 (cut) and 0-2. The new map moves 1
    // here and 2 away: the replica changes, the rows stay until the move's
    // release()/adopt_migrated() splice them.
    LocalSubgraph sg(0, owners4());
    sg.add_local_edge(0, 1, 1.0);
    sg.add_local_edge(0, 2, 2.0);
    sg.set_ownership(ShardOwnership::from_partition(
        std::vector<RankId>{0, 0, 1, 1}, 2, 1));
    EXPECT_EQ(sg.num_local(), 2u);
    EXPECT_EQ(sg.global_id(1), 2u);
    EXPECT_TRUE(sg.owns(1));
    EXPECT_FALSE(sg.owns(2));

    const std::vector<Neighbor> adjacency{{0, 1.0}};
    const LocalId arrived = sg.adopt_migrated(1, adjacency);
    EXPECT_EQ(sg.release(2), 1u);  // the arrival swaps into the vacated slot
    EXPECT_EQ(sg.num_local(), 2u);
    EXPECT_EQ(sg.local_id(1), 1u);
    EXPECT_NE(arrived, sg.local_id(1));
    EXPECT_TRUE(sg.external_neighbors(1).empty());  // 0-1 is internal now
    const auto ext = sg.external_neighbors(2);      // 0-2 became a cut edge
    ASSERT_EQ(ext.size(), 1u);
    EXPECT_EQ(ext[0].first, sg.local_id(0));
    EXPECT_EQ(ext[0].second, 2.0);
    EXPECT_TRUE(sg.is_boundary(sg.local_id(0)));
    EXPECT_FALSE(sg.is_boundary(sg.local_id(1)));
}

TEST(LocalSubgraph, ExternalBoundarySorted) {
    LocalSubgraph sg(0, {0, 1, 1, 1, 0});
    sg.add_local_edge(0, 3, 1.0);
    sg.add_local_edge(0, 1, 1.0);
    sg.add_local_edge(4, 2, 1.0);
    EXPECT_EQ(sg.external_boundary(), (std::vector<VertexId>{1, 2, 3}));
}

}  // namespace
}  // namespace aa
