// Anywhere edge additions between existing vertices ([9]) and edge-weight
// decreases ([7]) — the prior-work updates that vertex addition builds on.
#include <gtest/gtest.h>

#include "core/closeness.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"

namespace aa {
namespace {

EngineConfig small_config(std::uint32_t ranks) {
    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 1;
    config.seed = 101;
    return config;
}

void expect_exact(const AnytimeEngine& engine, const DynamicGraph& expected) {
    const auto approx = engine.full_distance_matrix();
    const auto exact = exact_apsp(expected);
    for (std::size_t v = 0; v < exact.size(); ++v) {
        for (std::size_t t = 0; t < exact.size(); ++t) {
            if (exact[v][t] < kInfinity) {
                ASSERT_NEAR(approx[v][t], exact[v][t], 1e-9)
                    << "d(" << v << "," << t << ")";
            } else {
                ASSERT_GE(approx[v][t], kInfinity);
            }
        }
    }
}

TEST(EdgeAdd, ShortcutEdgeLowersDistances) {
    DynamicGraph g(8);
    for (VertexId v = 0; v + 1 < 8; ++v) {
        g.add_edge(v, v + 1, 1.0);
    }
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_to_quiescence();
    EXPECT_NEAR(engine.distance_row(0)[7], 7.0, 1e-12);

    const Edge shortcut{0, 7, 1.5};
    engine.add_edges({&shortcut, 1});
    engine.run_to_quiescence();

    DynamicGraph expected = g;
    expected.add_edge(0, 7, 1.5);
    EXPECT_NEAR(engine.distance_row(0)[7], 1.5, 1e-12);
    expect_exact(engine, expected);
}

TEST(EdgeAdd, ConnectsComponents) {
    DynamicGraph g(6);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(3, 4);
    g.add_edge(4, 5);
    AnytimeEngine engine(g, small_config(3));
    engine.initialize();
    engine.run_to_quiescence();
    EXPECT_GE(engine.distance_row(0)[5], kInfinity);

    const Edge bridge{2, 3, 2.0};
    engine.add_edges({&bridge, 1});
    engine.run_to_quiescence();
    DynamicGraph expected = g;
    expected.add_edge(2, 3, 2.0);
    expect_exact(engine, expected);
    EXPECT_NEAR(engine.distance_row(0)[5], 6.0, 1e-12);
}

TEST(EdgeAdd, BatchOnRandomGraph) {
    Rng rng(1);
    DynamicGraph g = barabasi_albert(90, 2, rng, WeightRange{1.0, 4.0});
    AnytimeEngine engine(g, small_config(6));
    engine.initialize();
    engine.run_rc_steps(1);  // mid-analysis

    DynamicGraph expected = g;
    std::vector<Edge> new_edges;
    Rng edge_rng(2);
    while (new_edges.size() < 15) {
        const auto u = static_cast<VertexId>(edge_rng.uniform(90));
        const auto v = static_cast<VertexId>(edge_rng.uniform(90));
        if (u != v && expected.add_edge(u, v, 1.0 + edge_rng.uniform01())) {
            new_edges.push_back({u, v, expected.edge_weight(u, v)});
        }
    }
    engine.add_edges(new_edges);
    engine.run_to_quiescence();
    expect_exact(engine, expected);
    EXPECT_EQ(engine.report().edge_additions, 15u);
}

TEST(EdgeAdd, DuplicatesSkipped) {
    DynamicGraph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    AnytimeEngine engine(g, small_config(2));
    engine.initialize();
    const Edge duplicate{0, 1, 5.0};
    engine.add_edges({&duplicate, 1});
    engine.run_to_quiescence();
    expect_exact(engine, g);  // unchanged
    EXPECT_EQ(engine.report().edge_additions, 0u);
}

TEST(WeightDecrease, UpdatesShortestPaths) {
    DynamicGraph g(5);
    g.add_edge(0, 1, 4.0);
    g.add_edge(1, 2, 4.0);
    g.add_edge(2, 3, 4.0);
    g.add_edge(3, 4, 4.0);
    AnytimeEngine engine(g, small_config(3));
    engine.initialize();
    engine.run_to_quiescence();
    EXPECT_NEAR(engine.distance_row(0)[4], 16.0, 1e-12);

    EXPECT_TRUE(engine.decrease_edge_weight(1, 2, 1.0));
    engine.run_to_quiescence();
    DynamicGraph expected = g;
    expected.set_edge_weight(1, 2, 1.0);
    expect_exact(engine, expected);
    EXPECT_NEAR(engine.distance_row(0)[4], 13.0, 1e-12);
}

TEST(WeightDecrease, CountsAsOneWeightUpdate) {
    // Decreases and increases through the same entry point report alike.
    DynamicGraph g(4);
    g.add_edge(0, 1, 4.0);
    g.add_edge(1, 2, 4.0);
    g.add_edge(2, 3, 4.0);
    AnytimeEngine engine(g, small_config(2));
    engine.initialize();
    engine.run_to_quiescence();
    ASSERT_EQ(engine.report().weight_updates, 0u);

    EXPECT_TRUE(engine.decrease_edge_weight(1, 2, 1.0));
    EXPECT_EQ(engine.report().weight_updates, 1u);
    EXPECT_TRUE(engine.decrease_edge_weight(1, 2, 3.0));  // a raise
    EXPECT_EQ(engine.report().weight_updates, 2u);
}

TEST(WeightDecrease, MissingEdgeReturnsFalse) {
    DynamicGraph g(3);
    g.add_edge(0, 1, 2.0);
    AnytimeEngine engine(g, small_config(2));
    engine.initialize();
    EXPECT_FALSE(engine.decrease_edge_weight(0, 2, 1.0));
}

TEST(WeightDecrease, EqualWeightIsNoop) {
    DynamicGraph g(3);
    g.add_edge(0, 1, 2.0);
    g.add_edge(1, 2, 2.0);
    AnytimeEngine engine(g, small_config(2));
    engine.initialize();
    engine.run_to_quiescence();
    const double t = engine.sim_seconds();
    EXPECT_TRUE(engine.decrease_edge_weight(0, 1, 2.0));
    EXPECT_EQ(engine.sim_seconds(), t);  // nothing charged
}

TEST(WeightDecrease, RandomSequenceMatchesExact) {
    Rng rng(3);
    DynamicGraph g = erdos_renyi_gnm(70, 210, rng, WeightRange{2.0, 8.0});
    AnytimeEngine engine(g, small_config(5));
    engine.initialize();
    engine.run_to_quiescence();

    DynamicGraph expected = g;
    Rng pick(4);
    const auto edges = expected.edges();
    for (int i = 0; i < 10; ++i) {
        const Edge& e = edges[pick.uniform(edges.size())];
        const Weight current = expected.edge_weight(e.u, e.v);
        const Weight lower = current * 0.5;
        expected.set_edge_weight(e.u, e.v, lower);
        EXPECT_TRUE(engine.decrease_edge_weight(e.u, e.v, lower));
        if (i % 3 == 0) {
            engine.run_rc_steps(1);  // interleave partial convergence
        }
    }
    engine.run_to_quiescence();
    expect_exact(engine, expected);
}

// Local helper mirroring RoundRobinPS::assignment without pulling in the
// strategy header (keeps this test focused on the engine API).
std::vector<RankId> RoundRobinPS_assignment_helper(std::size_t count,
                                                   std::uint32_t ranks) {
    std::vector<RankId> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = static_cast<RankId>(i % ranks);
    }
    return out;
}

TEST(EdgeAdd, MixedWithVertexAdditions) {
    Rng rng(5);
    DynamicGraph g = barabasi_albert(60, 2, rng);
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_rc_steps(1);

    // Vertex batch, then extra edges among old vertices, then converge.
    GrowthConfig gc;
    gc.num_new = 8;
    Rng brng(6);
    const auto batch = grow_batch(60, gc, brng);
    engine.anywhere_add(batch, RoundRobinPS_assignment_helper(batch.num_new, 4));

    DynamicGraph expected = g;
    expected.add_vertices(batch.num_new);
    for (const Edge& e : batch.edges) {
        expected.add_edge(e.u, e.v, e.weight);
    }
    std::vector<Edge> extra;
    Rng edge_rng(7);
    while (extra.size() < 6) {
        const auto u = static_cast<VertexId>(edge_rng.uniform(60));
        const auto v = static_cast<VertexId>(edge_rng.uniform(60));
        if (u != v && expected.add_edge(u, v, 1.0)) {
            extra.push_back({u, v, 1.0});
        }
    }
    engine.add_edges(extra);
    engine.run_to_quiescence();
    expect_exact(engine, expected);
}

}  // namespace
}  // namespace aa
