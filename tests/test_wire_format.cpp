// SIMD-sweep equivalence at the engine level.
//
// The AVX2 relaxation sweeps are a pure kernel optimization: for a fixed
// seed and config, switching EngineConfig::rc_simd must leave every
// distance, the closeness scores, rc ops, bytes on the wire, sim_seconds and
// the telemetry span stream bit-identical. The lattice below pins that
// across rank counts, both executor counts, and both graph generators,
// with a mid-RC vertex-addition batch in every run.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "executors.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"

namespace aa {
namespace {

struct RunResult {
    std::vector<std::vector<Weight>> matrix;
    ClosenessScores scores;
    double sim_seconds{0};
    std::size_t rc_steps{0};
    std::size_t total_bytes{0};
    std::size_t total_messages{0};
    std::vector<RcStepStats> steps;
    std::vector<MetricSpan> spans;
};

struct Scenario {
    std::uint32_t ranks{4};
    Executors executors{Executors::Sequential};
    bool planted{false};  // false: Barabási–Albert, true: planted partition
};

RunResult run_scenario(const Scenario& s, bool simd) {
    Rng rng(555);
    DynamicGraph g = s.planted
                         ? planted_partition(70, 4, 0.2, 0.02, rng)
                         : barabasi_albert(80, 2, rng, WeightRange{1.0, 4.0});

    EngineConfig config;
    config.num_ranks = s.ranks;
    config.seed = 0xF0 + s.ranks;
    config.backend_threads = executor_count(s.executors);
    config.enable_metrics = true;
    config.rc_simd = simd;

    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(2);

    // Mid-RC addition batch: the extend/broadcast/propagate loops re-enter
    // the post+ingest kernels with rows added between steps.
    GrowthConfig gc;
    gc.num_new = 6;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    Rng batch_rng(9001);
    const auto batch = grow_batch(g.num_vertices(), gc, batch_rng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();

    RunResult result;
    result.matrix = engine.full_distance_matrix();
    result.scores = engine.closeness();
    result.sim_seconds = engine.sim_seconds();
    result.rc_steps = engine.rc_steps_completed();
    result.total_bytes = engine.cluster().stats().total_bytes;
    result.total_messages = engine.cluster().stats().total_messages;
    result.steps = engine.step_history();
    result.spans = engine.metrics().spans();
    return result;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
    // EXPECT_EQ on doubles is exact comparison — bit-identical, not "close".
    EXPECT_EQ(a.rc_steps, b.rc_steps);
    ASSERT_EQ(a.matrix.size(), b.matrix.size());
    for (std::size_t v = 0; v < a.matrix.size(); ++v) {
        ASSERT_EQ(a.matrix[v], b.matrix[v]) << "row " << v;
    }
    ASSERT_EQ(a.scores.closeness, b.scores.closeness);
    ASSERT_EQ(a.scores.reachable, b.scores.reachable);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_EQ(a.steps[i].step, b.steps[i].step);
        EXPECT_EQ(a.steps[i].ops, b.steps[i].ops) << "step " << i;
        EXPECT_EQ(a.steps[i].messages, b.steps[i].messages) << "step " << i;
        EXPECT_EQ(a.steps[i].bytes, b.steps[i].bytes) << "step " << i;
    }
    EXPECT_EQ(a.total_messages, b.total_messages);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    // Telemetry spans: same names, ranks, steps, and op counts in the same
    // order.
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        const MetricSpan& x = a.spans[i];
        const MetricSpan& y = b.spans[i];
        EXPECT_EQ(x.name, y.name) << "span " << i;
        EXPECT_EQ(x.rank, y.rank) << "span " << i;
        EXPECT_EQ(x.step, y.step) << "span " << i;
        EXPECT_EQ(x.ops, y.ops) << "span " << i << " (" << x.name << ")";
    }
}

using Param = std::tuple<std::uint32_t /*ranks*/, Executors, bool /*planted*/>;

class WireFormatEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(WireFormatEquivalence, SimdToggleIsInvisibleUnderV2) {
    const auto [ranks, executors, planted] = GetParam();
    const Scenario s{ranks, executors, planted};
    expect_bit_identical(run_scenario(s, /*simd=*/true), run_scenario(s, /*simd=*/false));
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, WireFormatEquivalence,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(Executors::Sequential, Executors::Threaded),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& p) {
        std::string name = "r";
        name += std::to_string(std::get<0>(p.param));
        name += std::get<1>(p.param) == Executors::Threaded ? "_threaded"
                                                            : "_seq";
        name += std::get<2>(p.param) ? "_planted" : "_ba";
        return name;
    });

}  // namespace
}  // namespace aa
