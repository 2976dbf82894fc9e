// Multilevel partitioner: matching/coarsening invariants plus end-to-end
// quality, including a parameterized sweep over graph families and k.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.hpp"
#include "partition/coarsen.hpp"
#include "partition/matching.hpp"
#include "partition/initial.hpp"
#include "partition/multilevel.hpp"
#include "partition/refine.hpp"
#include "partition/simple.hpp"

namespace aa {
namespace {

TEST(HeavyEdgeMatching, SymmetricAndValid) {
    Rng gen_rng(1);
    const CsrGraph g{barabasi_albert(200, 3, gen_rng)};
    Rng rng(2);
    const auto match = heavy_edge_matching(g, rng);
    ASSERT_EQ(match.size(), 200u);
    for (VertexId v = 0; v < 200; ++v) {
        EXPECT_EQ(match[match[v]], v);  // involution
    }
    EXPECT_GT(matching_size(match), 50u);  // a dense graph matches most vertices
}

TEST(HeavyEdgeMatching, PrefersHeavyEdges) {
    // Path 2 -10- 0 -1- 1 -10- 3: whatever the visit order, the heavy-edge
    // rule must produce the pairs {0,2} and {1,3}.
    DynamicGraph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 10.0);
    g.add_edge(1, 3, 10.0);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(seed);
        const auto match = heavy_edge_matching(CsrGraph{g}, rng);
        EXPECT_EQ(match[0], 2u) << "seed " << seed;
        EXPECT_EQ(match[1], 3u) << "seed " << seed;
    }
}

TEST(Coarsen, PreservesTotalVertexWeight) {
    Rng gen_rng(4);
    const CsrGraph g{barabasi_albert(300, 2, gen_rng)};
    Rng rng(5);
    const auto match = heavy_edge_matching(g, rng);
    const auto level = coarsen(g, match);
    EXPECT_NEAR(level.graph.total_vertex_weight(), g.total_vertex_weight(), 1e-9);
    EXPECT_LT(level.graph.num_vertices(), g.num_vertices());
    // Every fine vertex maps somewhere valid.
    for (const VertexId c : level.fine_to_coarse) {
        EXPECT_LT(c, level.graph.num_vertices());
    }
}

TEST(Coarsen, CutWeightInvariantUnderProjection) {
    // The cut of a coarse partition equals the cut of its projection.
    Rng gen_rng(6);
    const CsrGraph g{erdos_renyi_gnm(120, 400, gen_rng)};
    Rng rng(7);
    const auto match = heavy_edge_matching(g, rng);
    const auto level = coarsen(g, match);

    Rng prng(8);
    const auto coarse_p = greedy_growing_partition(level.graph, 3, prng);
    Partitioning fine_p;
    fine_p.num_parts = 3;
    fine_p.assignment.resize(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        fine_p.assignment[v] = coarse_p.assignment[level.fine_to_coarse[v]];
    }
    const auto coarse_q = evaluate_partition(level.graph, coarse_p);
    const auto fine_q = evaluate_partition(g, fine_p);
    EXPECT_NEAR(coarse_q.cut_weight, fine_q.cut_weight, 1e-9);
}

TEST(Refine, NeverWorsensCut) {
    Rng gen_rng(9);
    const CsrGraph g{barabasi_albert(250, 2, gen_rng)};
    Rng rng(10);
    auto p = random_partition(250, 4, rng);
    const auto before = evaluate_partition(g, p);
    const Weight gain = refine_partition(g, p);
    const auto after = evaluate_partition(g, p);
    EXPECT_GE(gain, 0.0);
    EXPECT_LE(after.cut_weight, before.cut_weight + 1e-9);
    EXPECT_NEAR(before.cut_weight - after.cut_weight, gain, 1e-6);
}

TEST(Refine, RespectsBalanceCeiling) {
    Rng gen_rng(11);
    const CsrGraph g{planted_partition(120, 2, 0.4, 0.02, gen_rng)};
    Rng rng(12);
    auto p = random_partition(120, 4, rng);
    RefineConfig config;
    config.balance_factor = 1.1;
    refine_partition(g, p, config);
    const auto q = evaluate_partition(g, p);
    EXPECT_LE(q.imbalance, 1.1 + 1e-9);
}

struct MultilevelCase {
    const char* name;
    std::uint32_t k;
};

// Without a printer gtest lists the parameter as raw bytes, which include the
// ASLR-randomized address of `name` and so change the listed test name per run.
void PrintTo(const MultilevelCase& c, std::ostream* os) {
    *os << c.name << "_k" << c.k;
}

class MultilevelSweep : public ::testing::TestWithParam<MultilevelCase> {};

TEST_P(MultilevelSweep, BalancedAndBetterThanRandom) {
    const auto param = GetParam();
    Rng gen_rng(13);
    DynamicGraph g;
    if (std::string_view(param.name) == "ba") {
        g = barabasi_albert(400, 2, gen_rng);
    } else if (std::string_view(param.name) == "community") {
        g = planted_partition(400, param.k, 0.1, 0.004, gen_rng);
    } else {
        g = watts_strogatz(400, 3, 0.1, gen_rng);
    }

    Rng rng(14);
    const auto p = multilevel_partition(g, param.k, rng);
    EXPECT_TRUE(p.valid());
    const auto q = evaluate_partition(g, p);
    EXPECT_LE(q.imbalance, 1.25);
    for (const std::size_t s : q.part_sizes) {
        EXPECT_GT(s, 0u);
    }

    Rng rrng(15);
    const auto rnd = random_partition(g.num_vertices(), param.k, rrng);
    const auto rq = evaluate_partition(g, rnd);
    EXPECT_LT(q.cut_edges, rq.cut_edges)
        << param.name << " k=" << param.k;
}

INSTANTIATE_TEST_SUITE_P(
    Families, MultilevelSweep,
    ::testing::Values(MultilevelCase{"ba", 2}, MultilevelCase{"ba", 4},
                      MultilevelCase{"ba", 8}, MultilevelCase{"ba", 16},
                      MultilevelCase{"community", 4},
                      MultilevelCase{"community", 8}, MultilevelCase{"ws", 4},
                      MultilevelCase{"ws", 8}),
    [](const ::testing::TestParamInfo<MultilevelCase>& case_info) {
        return std::string(case_info.param.name) + "_k" +
               std::to_string(case_info.param.k);
    });

TEST(Multilevel, SinglePartTrivial) {
    Rng gen_rng(16);
    const auto g = barabasi_albert(50, 2, gen_rng);
    Rng rng(17);
    const auto p = multilevel_partition(g, 1, rng);
    EXPECT_EQ(p.num_parts, 1u);
    EXPECT_TRUE(std::all_of(p.assignment.begin(), p.assignment.end(),
                            [](RankId r) { return r == 0; }));
}

TEST(Multilevel, RecoversPlantedCommunitiesWell) {
    // On a strongly separable graph, the cut should be close to the planted
    // inter-community edge count.
    Rng gen_rng(18);
    std::vector<std::uint32_t> truth;
    const auto g = planted_partition(200, 4, 0.3, 0.005, gen_rng, &truth);
    Partitioning planted;
    planted.num_parts = 4;
    planted.assignment = truth;
    const auto planted_cut = count_cut_edges(g, planted);

    Rng rng(19);
    const auto p = multilevel_partition(g, 4, rng);
    const auto cut = count_cut_edges(g, p);
    EXPECT_LE(cut, planted_cut * 2 + 10);
}

TEST(Multilevel, TinyGraphFewerVerticesThanParts) {
    DynamicGraph g(3);
    g.add_edge(0, 1);
    Rng rng(20);
    const auto p = multilevel_partition(g, 8, rng);
    EXPECT_TRUE(p.valid());
    EXPECT_EQ(p.assignment.size(), 3u);
}

TEST(Multilevel, StarGraphStallsGracefully) {
    // Heavy-edge matching on a star collapses almost nothing after the first
    // pair; the min_shrink guard must stop coarsening, not loop.
    DynamicGraph g(100);
    for (VertexId v = 1; v < 100; ++v) {
        g.add_edge(0, v);
    }
    Rng rng(21);
    const auto p = multilevel_partition(g, 4, rng);
    EXPECT_TRUE(p.valid());
    const auto q = evaluate_partition(g, p);
    EXPECT_LE(q.imbalance, 1.6);
}

}  // namespace
}  // namespace aa
