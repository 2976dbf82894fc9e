// Dynamic vertex-addition correctness: the central invariant of the library.
// After any batch of vertex additions is applied with any strategy, at any
// injection step, the converged distance vectors must equal the exact APSP of
// the grown graph.
#include <gtest/gtest.h>

#include <tuple>

#include "core/baseline.hpp"
#include "core/closeness.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"

namespace aa {
namespace {

EngineConfig small_config(std::uint32_t ranks) {
    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 1;
    config.seed = 23;
    return config;
}

void expect_exact(const AnytimeEngine& engine, const DynamicGraph& expected) {
    ASSERT_EQ(engine.num_vertices(), expected.num_vertices());
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

GrowthBatch make_batch(const DynamicGraph& host, std::size_t count,
                       std::uint64_t seed) {
    GrowthConfig config;
    config.num_new = count;
    config.communities = 3;
    config.intra_edges = 2;
    config.host_edges = 2;
    Rng rng(seed);
    return grow_batch(host.num_vertices(), config, rng);
}

TEST(EngineDynamic, SingleVertexRoundRobin) {
    DynamicGraph g(5);
    for (VertexId v = 0; v + 1 < 5; ++v) {
        g.add_edge(v, v + 1, 1.0);
    }
    AnytimeEngine engine(g, small_config(2));
    engine.initialize();
    engine.run_to_quiescence();

    GrowthBatch batch;
    batch.base_id = 5;
    batch.num_new = 1;
    batch.edges = {{5, 0, 1.0}, {5, 4, 1.0}};
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    expect_exact(engine, apply_batch(g, batch));
}

TEST(EngineDynamic, AnywhereAdditionMatchesExactAtRc0) {
    Rng rng(31);
    const auto g = barabasi_albert(80, 2, rng);
    const auto batch = make_batch(g, 12, 101);

    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    // Inject immediately (RC0): no static refinement has happened yet.
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    expect_exact(engine, apply_batch(g, batch));
}

TEST(EngineDynamic, AnywhereAdditionMatchesExactMidAnalysis) {
    Rng rng(37);
    const auto g = barabasi_albert(80, 2, rng);
    const auto batch = make_batch(g, 12, 102);

    AnytimeEngine engine(g, small_config(8));
    engine.initialize();
    engine.run_rc_steps(2);  // mid-analysis injection
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    expect_exact(engine, apply_batch(g, batch));
}

TEST(EngineDynamic, CutEdgeStrategyMatchesExact) {
    Rng rng(41);
    const auto g = barabasi_albert(80, 2, rng);
    const auto batch = make_batch(g, 16, 103);

    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_rc_steps(1);
    CutEdgePS strategy(99);
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    expect_exact(engine, apply_batch(g, batch));
}

TEST(EngineDynamic, RepartitionStrategyMatchesExact) {
    Rng rng(43);
    const auto g = barabasi_albert(80, 2, rng);
    const auto batch = make_batch(g, 16, 104);

    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_rc_steps(2);
    RepartitionS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    expect_exact(engine, apply_batch(g, batch));
}

TEST(EngineDynamic, SequentialBatchesAllStrategies) {
    // Interleave all three strategies across successive batches.
    Rng rng(47);
    DynamicGraph g = barabasi_albert(60, 2, rng);

    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_rc_steps(1);

    RoundRobinPS round_robin;
    CutEdgePS cut_edge(7);
    RepartitionS repartition;
    VertexAdditionStrategy* strategies[] = {&round_robin, &cut_edge, &repartition};

    DynamicGraph expected = g;
    for (int i = 0; i < 3; ++i) {
        const auto batch = make_batch(expected, 8, 200 + i);
        engine.apply_addition(batch, *strategies[i]);
        engine.run_rc_steps(1);  // partial convergence between batches
        expected = apply_batch(expected, batch);
    }
    engine.run_to_quiescence();
    expect_exact(engine, expected);
}

TEST(EngineDynamic, AdditionBeforeAnyRcStep) {
    // Inject while IA results have not been exchanged even once.
    Rng rng(53);
    const auto g = erdos_renyi_gnm(50, 120, rng, WeightRange{1.0, 4.0});
    const auto batch = make_batch(g, 10, 105);

    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    RepartitionS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    expect_exact(engine, apply_batch(g, batch));
}

TEST(EngineDynamic, VertexWithSingleEdge) {
    DynamicGraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    AnytimeEngine engine(g, small_config(2));
    engine.initialize();
    engine.run_to_quiescence();

    GrowthBatch batch;
    batch.base_id = 4;
    batch.num_new = 2;
    batch.edges = {{4, 0, 2.0}, {5, 4, 1.0}};  // chain: 0 - new4 - new5
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    expect_exact(engine, apply_batch(g, batch));
}

TEST(EngineDynamic, IsolatedNewVertexStaysUnreachable) {
    DynamicGraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    AnytimeEngine engine(g, small_config(2));
    engine.initialize();
    engine.run_to_quiescence();

    GrowthBatch batch;
    batch.base_id = 4;
    batch.num_new = 1;  // no edges at all
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    expect_exact(engine, apply_batch(g, batch));
    const auto row = engine.distance_row(4);
    EXPECT_EQ(row[4], 0.0);
    EXPECT_GE(row[0], kInfinity);
}

TEST(EngineDynamic, NewEdgesShortenExistingPaths) {
    // A new vertex bridging two far ends must lower existing pair distances.
    DynamicGraph g(8);
    for (VertexId v = 0; v + 1 < 8; ++v) {
        g.add_edge(v, v + 1, 1.0);
    }
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_to_quiescence();
    EXPECT_NEAR(engine.distance_row(0)[7], 7.0, 1e-12);

    GrowthBatch batch;
    batch.base_id = 8;
    batch.num_new = 1;
    batch.edges = {{8, 0, 1.0}, {8, 7, 1.0}};
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    EXPECT_NEAR(engine.distance_row(0)[7], 2.0, 1e-12);
    expect_exact(engine, apply_batch(g, batch));
}

TEST(EngineDynamic, ReportTracksAdditions) {
    Rng rng(59);
    const auto g = barabasi_albert(40, 2, rng);
    const auto batch = make_batch(g, 6, 106);
    AnytimeEngine engine(g, small_config(2));
    engine.initialize();
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    EXPECT_EQ(engine.report().vertex_additions, 6u);
    EXPECT_EQ(engine.report().edge_additions, batch.edges.size());
    EXPECT_GT(engine.report().dynamic_ops, 0.0);
}

// A batch that repeats an edge (as `u v` or `v u`) inserts it once, so it
// must count once and be seeded once: the report, the op total and the
// simulated clock equal those of the deduplicated batch.
TEST(EngineDynamic, DuplicateBatchEdgesCountOnce) {
    Rng rng(61);
    const auto g = barabasi_albert(40, 2, rng);
    const auto batch = make_batch(g, 6, 108);
    GrowthBatch repeated = batch;
    repeated.edges.push_back(batch.edges[0]);
    repeated.edges.push_back({batch.edges[1].v, batch.edges[1].u,
                              batch.edges[1].weight});
    for (const bool repartition : {false, true}) {
        const auto run = [&g, repartition](const GrowthBatch& b) {
            AnytimeEngine engine(g, small_config(3));
            engine.initialize();
            engine.run_rc_steps(1);
            RoundRobinPS round_robin;
            RepartitionS repartition_s;
            engine.apply_addition(b, repartition
                                         ? static_cast<VertexAdditionStrategy&>(
                                               repartition_s)
                                         : round_robin);
            return std::make_tuple(engine.report().edge_additions,
                                   engine.report().dynamic_ops,
                                   engine.sim_seconds());
        };
        const auto [want_edges, want_ops, want_sim] = run(batch);
        const auto [got_edges, got_ops, got_sim] = run(repeated);
        EXPECT_EQ(want_edges, batch.edges.size()) << repartition;
        EXPECT_EQ(got_edges, want_edges) << repartition;
        EXPECT_EQ(got_ops, want_ops) << repartition;
        EXPECT_EQ(got_sim, want_sim) << repartition;
    }
}

}  // namespace
}  // namespace aa
