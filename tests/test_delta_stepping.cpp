// Delta-stepping IA kernel: must produce exactly the same distances as the
// Dijkstra kernel for any bucket width.
#include <gtest/gtest.h>

#include <numeric>

#include "core/closeness.hpp"
#include "core/engine.hpp"
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

class DeltaSweep : public ::testing::TestWithParam<double> {};

TEST_P(DeltaSweep, MatchesDijkstraOnWeightedGraph) {
    Rng rng(1);
    const auto g = barabasi_albert(70, 3, rng, WeightRange{0.5, 5.0});
    const std::vector<RankId> owners(70, 0);
    ThreadPool pool(1);

    RankFixture dijkstra(0, g, owners);
    RankFixture delta(0, g, owners);
    ia_dijkstra_all(dijkstra.sg, dijkstra.store, pool);

    std::vector<LocalId> sources(70);
    std::iota(sources.begin(), sources.end(), 0);
    ia_delta_stepping(delta.sg, delta.store, pool, sources, false, GetParam());

    for (LocalId l = 0; l < 70; ++l) {
        for (VertexId t = 0; t < 70; ++t) {
            EXPECT_NEAR(delta.store.at(l, t), dijkstra.store.at(l, t), 1e-9)
                << "delta=" << GetParam() << " d(" << l << "," << t << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BucketWidths, DeltaSweep,
                         ::testing::Values(0.0,   // heuristic
                                           0.25,  // finer than min weight
                                           1.0, 2.5,
                                           100.0  // one giant bucket = Bellman-Ford
                                           ),
                         [](const ::testing::TestParamInfo<double>& case_info) {
                             std::string name = std::to_string(case_info.param);
                             for (auto& c : name) {
                                 if (c == '.') {
                                     c = '_';
                                 }
                             }
                             return "delta_" + name;
                         });

TEST(DeltaStepping, UnitWeightsEqualBfs) {
    Rng rng(2);
    const auto g = erdos_renyi_gnm(60, 180, rng);
    const std::vector<RankId> owners(60, 0);
    ThreadPool pool(1);
    RankFixture fx(0, g, owners);
    std::vector<LocalId> sources(60);
    std::iota(sources.begin(), sources.end(), 0);
    ia_delta_stepping(fx.sg, fx.store, pool, sources, false, 1.0);
    const auto exact = exact_apsp(g);
    for (LocalId l = 0; l < 60; ++l) {
        for (VertexId t = 0; t < 60; ++t) {
            EXPECT_EQ(fx.store.at(l, t), exact[l][t]);
        }
    }
}

TEST(DeltaStepping, PartitionedSubgraphUpperBounds) {
    Rng rng(3);
    const auto g = barabasi_albert(80, 2, rng, WeightRange{1.0, 3.0});
    std::vector<RankId> owners(80);
    for (VertexId v = 0; v < 80; ++v) {
        owners[v] = v % 3;
    }
    ThreadPool pool(1);
    RankFixture fx(1, g, owners);
    std::vector<LocalId> sources(fx.sg.num_local());
    std::iota(sources.begin(), sources.end(), 0);
    ia_delta_stepping(fx.sg, fx.store, pool, sources, false, 0);
    const auto exact = exact_apsp(g);
    for (LocalId l = 0; l < fx.sg.num_local(); ++l) {
        const VertexId src = fx.sg.global_id(l);
        for (VertexId t = 0; t < 80; ++t) {
            if (fx.store.at(l, t) < kInfinity) {
                EXPECT_GE(fx.store.at(l, t), exact[src][t] - 1e-9);
            }
        }
    }
}

TEST(DeltaStepping, EngineEndToEnd) {
    // Full engine with the delta-stepping IA kernel: same final answer.
    Rng rng(4);
    const auto g = barabasi_albert(90, 2, rng, WeightRange{1.0, 4.0});
    EngineConfig config;
    config.num_ranks = 4;
    config.ia_threads = 1;
    config.ia_kernel = IaKernel::DeltaStepping;
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();
    const auto exact = exact_apsp(g);
    const auto matrix = engine.full_distance_matrix();
    for (std::size_t v = 0; v < 90; ++v) {
        for (std::size_t t = 0; t < 90; ++t) {
            if (exact[v][t] < kInfinity) {
                ASSERT_NEAR(matrix[v][t], exact[v][t], 1e-9);
            }
        }
    }
}

TEST(DeltaStepping, LargerDeltaMoreRelaxations) {
    // The classic trade-off: wider buckets -> more (re-)relaxations.
    Rng rng(5);
    const auto g = barabasi_albert(100, 3, rng, WeightRange{0.5, 4.0});
    const std::vector<RankId> owners(100, 0);
    ThreadPool pool(1);
    std::vector<LocalId> sources(100);
    std::iota(sources.begin(), sources.end(), 0);

    RankFixture fine(0, g, owners);
    RankFixture coarse(0, g, owners);
    const double fine_ops =
        ia_delta_stepping(fine.sg, fine.store, pool, sources, false, 0.5);
    const double coarse_ops =
        ia_delta_stepping(coarse.sg, coarse.store, pool, sources, false, 1000.0);
    EXPECT_GT(coarse_ops, fine_ops);
}

}  // namespace
}  // namespace aa
