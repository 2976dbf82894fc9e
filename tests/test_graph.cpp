#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace aa {
namespace {

TEST(DynamicGraph, EmptyGraph) {
    DynamicGraph g;
    EXPECT_EQ(g.num_vertices(), 0u);
    EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DynamicGraph, AddVertices) {
    DynamicGraph g(3);
    EXPECT_EQ(g.num_vertices(), 3u);
    EXPECT_EQ(g.add_vertex(), 3u);
    EXPECT_EQ(g.add_vertices(2), 4u);
    EXPECT_EQ(g.num_vertices(), 6u);
}

TEST(DynamicGraph, AddEdgeBothDirectionsVisible) {
    DynamicGraph g(3);
    EXPECT_TRUE(g.add_edge(0, 1, 2.5));
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_EQ(g.edge_weight(0, 1), 2.5);
    EXPECT_EQ(g.edge_weight(1, 0), 2.5);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(DynamicGraph, RejectsSelfLoop) {
    DynamicGraph g(2);
    EXPECT_FALSE(g.add_edge(1, 1));
    EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DynamicGraph, RejectsDuplicateEdge) {
    DynamicGraph g(2);
    EXPECT_TRUE(g.add_edge(0, 1));
    EXPECT_FALSE(g.add_edge(0, 1, 5.0));
    EXPECT_FALSE(g.add_edge(1, 0));
    EXPECT_EQ(g.num_edges(), 1u);
    EXPECT_EQ(g.edge_weight(0, 1), 1.0);  // original weight kept
}

TEST(DynamicGraph, RejectsInfiniteWeight) {
    // kInfinity is edge_weight()'s "no edge" value, so an inf-weight edge
    // could never be removed; both writers refuse it like a non-positive one.
    DynamicGraph g(2);
    EXPECT_DEATH(g.add_edge(0, 1, kInfinity), "finite and positive");
    EXPECT_TRUE(g.add_edge(0, 1, 2.0));
    EXPECT_DEATH(g.set_edge_weight(0, 1, kInfinity), "finite and positive");
    EXPECT_EQ(g.edge_weight(0, 1), 2.0);
}

TEST(DynamicGraph, MissingEdgeIsInfinite) {
    DynamicGraph g(3);
    g.add_edge(0, 1);
    EXPECT_EQ(g.edge_weight(0, 2), kInfinity);
    EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(DynamicGraph, EdgesListedOnceOrdered) {
    DynamicGraph g(4);
    g.add_edge(2, 0, 1.0);
    g.add_edge(3, 1, 2.0);
    g.add_edge(0, 1, 3.0);
    const auto edges = g.edges();
    EXPECT_EQ(edges.size(), 3u);
    for (const Edge& e : edges) {
        EXPECT_LT(e.u, e.v);
    }
}

TEST(DynamicGraph, FromEdges) {
    const std::vector<Edge> edges{{0, 1, 1.0}, {1, 2, 2.0}, {4, 2, 0.5}};
    const auto g = DynamicGraph::from_edges(edges);
    EXPECT_EQ(g.num_vertices(), 5u);
    EXPECT_EQ(g.num_edges(), 3u);
    EXPECT_EQ(g.edge_weight(2, 4), 0.5);
}

TEST(DynamicGraph, FromEdgesWithExplicitSize) {
    const std::vector<Edge> edges{{0, 1, 1.0}};
    const auto g = DynamicGraph::from_edges(edges, 10);
    EXPECT_EQ(g.num_vertices(), 10u);
}

TEST(DynamicGraph, WeightedDegreeAndTotalWeight) {
    DynamicGraph g(3);
    g.add_edge(0, 1, 2.0);
    g.add_edge(0, 2, 3.0);
    EXPECT_EQ(g.weighted_degree(0), 5.0);
    EXPECT_EQ(g.weighted_degree(1), 2.0);
    EXPECT_EQ(g.total_edge_weight(), 5.0);
}

TEST(CsrGraph, SnapshotMatchesDynamic) {
    DynamicGraph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 2.0);
    g.add_edge(2, 3, 3.0);
    g.add_edge(3, 0, 4.0);
    const CsrGraph csr(g);
    EXPECT_EQ(csr.num_vertices(), 4u);
    EXPECT_EQ(csr.num_edges(), 4u);
    for (VertexId v = 0; v < 4; ++v) {
        EXPECT_EQ(csr.degree(v), g.degree(v));
        EXPECT_EQ(csr.vertex_weight(v), 1.0);
    }
    EXPECT_EQ(csr.total_vertex_weight(), 4.0);
    // Neighbor sets agree.
    const auto nbs = csr.neighbors(1);
    const auto wts = csr.neighbor_weights(1);
    ASSERT_EQ(nbs.size(), 2u);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
        EXPECT_EQ(g.edge_weight(1, nbs[i]), wts[i]);
    }
}

TEST(CsrGraph, EmptySnapshot) {
    const CsrGraph csr{DynamicGraph{}};
    EXPECT_EQ(csr.num_vertices(), 0u);
    EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(CsrGraph, ComponentConstructor) {
    // A 2-vertex graph with one weighted edge and vertex weights.
    CsrGraph csr({0, 1, 2}, {1, 0}, {5.0, 5.0}, {2.0, 3.0});
    EXPECT_EQ(csr.num_vertices(), 2u);
    EXPECT_EQ(csr.num_edges(), 1u);
    EXPECT_EQ(csr.vertex_weight(0), 2.0);
    EXPECT_EQ(csr.total_vertex_weight(), 5.0);
}

}  // namespace
}  // namespace aa
