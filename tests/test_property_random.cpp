// Property-based sweep: for randomized graphs, partitions, injection points,
// batch shapes and strategies, the converged engine must always equal the
// exact APSP of the final graph. This is the library's strongest guarantee,
// exercised across the whole configuration lattice with parameterized gtest.
#include <gtest/gtest.h>

#include <tuple>

#include "core/baseline.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"

namespace aa {
namespace {

enum class Family { Ba, Er, Ws, Community };
enum class StrategyKind { RoundRobin, CutEdge, Repartition };

const char* family_name(Family f) {
    switch (f) {
        case Family::Ba: return "ba";
        case Family::Er: return "er";
        case Family::Ws: return "ws";
        case Family::Community: return "comm";
    }
    return "?";
}
const char* strategy_name(StrategyKind s) {
    switch (s) {
        case StrategyKind::RoundRobin: return "rr";
        case StrategyKind::CutEdge: return "ce";
        case StrategyKind::Repartition: return "rp";
    }
    return "?";
}

DynamicGraph make_graph(Family family, std::size_t n, Rng& rng) {
    switch (family) {
        case Family::Ba:
            return barabasi_albert(n, 2, rng, WeightRange{1.0, 3.0});
        case Family::Er:
            return erdos_renyi_gnm(n, 3 * n, rng, WeightRange{1.0, 3.0});
        case Family::Ws:
            return watts_strogatz(n, 3, 0.2, rng);
        case Family::Community:
            return planted_partition(n, 4, 0.2, 0.01, rng);
    }
    return DynamicGraph{};
}

std::unique_ptr<VertexAdditionStrategy> make_strategy(StrategyKind kind,
                                                      std::uint64_t seed) {
    switch (kind) {
        case StrategyKind::RoundRobin:
            return std::make_unique<RoundRobinPS>();
        case StrategyKind::CutEdge:
            return std::make_unique<CutEdgePS>(seed, 3);
        case StrategyKind::Repartition:
            return std::make_unique<RepartitionS>();
    }
    return nullptr;
}

using Param = std::tuple<Family, StrategyKind, std::uint32_t /*ranks*/,
                         std::size_t /*inject step*/, IaKernel>;

class DynamicExactness : public ::testing::TestWithParam<Param> {};

TEST_P(DynamicExactness, ConvergesToExactApsp) {
    const auto [family, kind, ranks, inject_step, kernel] = GetParam();
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(family) * 131 +
                               static_cast<std::uint64_t>(kind) * 17 + ranks * 3 +
                               inject_step;

    Rng graph_rng(seed);
    DynamicGraph g = make_graph(family, 64, graph_rng);

    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 1;
    config.ia_kernel = kernel;
    config.seed = seed ^ 0xABCD;
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(inject_step);

    // Two random batches back to back.
    DynamicGraph expected = g;
    auto strategy = make_strategy(kind, seed);
    for (int b = 0; b < 2; ++b) {
        GrowthConfig gc;
        gc.num_new = 6 + (seed + b) % 10;
        gc.communities = 1 + (seed + b) % 3;
        gc.intra_edges = 1 + b;
        gc.host_edges = 1 + (seed % 2);
        Rng batch_rng(seed * 7 + b);
        const auto batch = grow_batch(expected.num_vertices(), gc, batch_rng);
        engine.apply_addition(batch, *strategy);
        engine.run_rc_steps(b);  // vary interleaving
        expected = apply_batch(expected, batch);
    }
    engine.run_to_quiescence();
    ASSERT_TRUE(engine.quiescent());

    const auto exact = exact_apsp(expected);
    const auto matrix = engine.full_distance_matrix();
    for (std::size_t v = 0; v < exact.size(); ++v) {
        for (std::size_t t = 0; t < exact.size(); ++t) {
            if (exact[v][t] < kInfinity) {
                ASSERT_NEAR(matrix[v][t], exact[v][t], 1e-9)
                    << "d(" << v << "," << t << ")";
            } else {
                ASSERT_GE(matrix[v][t], kInfinity);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, DynamicExactness,
    ::testing::Combine(::testing::Values(Family::Ba, Family::Er, Family::Ws,
                                         Family::Community),
                       ::testing::Values(StrategyKind::RoundRobin,
                                         StrategyKind::CutEdge,
                                         StrategyKind::Repartition),
                       ::testing::Values(2u, 5u, 8u),
                       ::testing::Values(0u, 3u),
                       ::testing::Values(IaKernel::Dijkstra,
                                         IaKernel::DeltaStepping)),
    [](const ::testing::TestParamInfo<Param>& case_info) {
        const Param& p = case_info.param;
        return std::string(family_name(std::get<0>(p))) + "_" +
               strategy_name(std::get<1>(p)) + "_r" +
               std::to_string(std::get<2>(p)) + "_i" +
               std::to_string(std::get<3>(p)) +
               (std::get<4>(p) == IaKernel::DeltaStepping ? "_ds" : "_dij");
    });

// Random mixed-strategy soak: one longer scenario with interleaved batches,
// strategies and convergence levels.
TEST(DynamicExactness, MixedStrategySoak) {
    Rng scenario_rng(2024);
    DynamicGraph expected = barabasi_albert(50, 2, scenario_rng);

    EngineConfig config;
    config.num_ranks = 4;
    config.ia_threads = 1;
    config.seed = 99;
    AnytimeEngine engine(expected, config);
    engine.initialize();

    RoundRobinPS rr;
    CutEdgePS ce(5);
    RepartitionS rp;
    VertexAdditionStrategy* strategies[] = {&rr, &ce, &rp};

    for (int round = 0; round < 6; ++round) {
        GrowthConfig gc;
        gc.num_new = 3 + scenario_rng.uniform(8);
        gc.communities = 1 + scenario_rng.uniform(3);
        gc.intra_edges = scenario_rng.uniform(3);
        gc.host_edges = 1 + scenario_rng.uniform(2);
        Rng batch_rng = scenario_rng.fork();
        const auto batch = grow_batch(expected.num_vertices(), gc, batch_rng);
        engine.apply_addition(batch, *strategies[round % 3]);
        engine.run_rc_steps(scenario_rng.uniform(3));
        expected = apply_batch(expected, batch);

        // Interleave the prior-work updates: a few edge additions between
        // existing vertices and an edge-weight decrease.
        std::vector<Edge> extra;
        while (extra.size() < 2 + scenario_rng.uniform(3)) {
            const auto u =
                static_cast<VertexId>(scenario_rng.uniform(expected.num_vertices()));
            const auto v =
                static_cast<VertexId>(scenario_rng.uniform(expected.num_vertices()));
            const Weight w = 1.0 + scenario_rng.uniform01();
            if (u != v && expected.add_edge(u, v, w)) {
                extra.push_back({u, v, w});
            }
        }
        engine.add_edges(extra);
        const auto edges = expected.edges();
        const Edge& shrink = edges[scenario_rng.uniform(edges.size())];
        const Weight lowered = expected.edge_weight(shrink.u, shrink.v) * 0.7;
        expected.set_edge_weight(shrink.u, shrink.v, lowered);
        ASSERT_TRUE(engine.decrease_edge_weight(shrink.u, shrink.v, lowered));
    }
    engine.run_to_quiescence();

    const auto exact = exact_apsp(expected);
    const auto matrix = engine.full_distance_matrix();
    for (std::size_t v = 0; v < exact.size(); ++v) {
        for (std::size_t t = 0; t < exact.size(); ++t) {
            if (exact[v][t] < kInfinity) {
                ASSERT_NEAR(matrix[v][t], exact[v][t], 1e-9);
            }
        }
    }
}

}  // namespace
}  // namespace aa
