// Demand-driven refinement: the DemandTracker heat accumulator, the
// BoundsOracle closeness intervals (soundness at every engine boundary,
// across additions, deletions and reweights), the RefinePlanner's hard
// bit-identity contract under Uniform / empty demand, budgeted refinement,
// and the serve layer's BoundedError + top-k certification. The *Concurrent*
// cases are the ThreadSanitizer targets.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "executors.hpp"
#include "core/baseline.hpp"
#include "core/closeness.hpp"
#include "core/edge_delete.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "refine/bounds.hpp"
#include "refine/demand.hpp"
#include "refine/planner.hpp"
#include "serve/service.hpp"

namespace aa {
namespace {

// ---------------------------------------------------------------------------
// RefinePlanner: policy parsing.
// ---------------------------------------------------------------------------

TEST(RefinePlanner, PolicyNamesRoundTripThroughParse) {
    for (const RefinePolicy policy : {RefinePolicy::Uniform, RefinePolicy::QueryHeat}) {
        RefinePolicy parsed{};
        ASSERT_TRUE(parse_refine_policy(refine_policy_name(policy), parsed));
        EXPECT_EQ(parsed, policy);
    }
}

TEST(RefinePlanner, ParseRejectsUnknownSpellingsUntouched) {
    RefinePolicy policy = RefinePolicy::QueryHeat;
    EXPECT_FALSE(parse_refine_policy("Uniform", policy));
    EXPECT_FALSE(parse_refine_policy("query-heat", policy));
    EXPECT_FALSE(parse_refine_policy("", policy));
    EXPECT_FALSE(parse_refine_policy("top-k", policy));
    EXPECT_FALSE(parse_refine_policy("topk", policy));
    EXPECT_EQ(policy, RefinePolicy::QueryHeat);  // left untouched on failure
}

// ---------------------------------------------------------------------------
// DemandTracker: heat accumulation, decay, snapshots.
// ---------------------------------------------------------------------------

TEST(RefineDemand, RecordAccumulatesAndQueriesHeat) {
    DemandTracker demand(8);
    EXPECT_EQ(demand.size(), 8u);
    demand.record(3);
    demand.record(3, 2.5);
    demand.record(7, 0.25);
    demand.record(99);      // out of range: ignored
    demand.record(1, 0.0);  // non-positive weight: ignored
    EXPECT_NEAR(demand.heat(3), 3.5, 1e-5);
    EXPECT_NEAR(demand.heat(7), 0.25, 1e-5);
    EXPECT_EQ(demand.heat(1), 0.0);
    EXPECT_EQ(demand.heat(99), 0.0);

    const DemandTracker::Totals t = demand.totals();
    EXPECT_NEAR(t.total, 3.75, 1e-5);
    EXPECT_NEAR(t.max, 3.5, 1e-5);
    EXPECT_EQ(t.hot, 2u);
}

TEST(RefineDemand, DecayHalvesZeroesAndSaturates) {
    DemandTracker demand(4);
    demand.record(0, 4.0);
    demand.decay(0.5);
    EXPECT_NEAR(demand.heat(0), 2.0, 1e-5);
    demand.decay(1.0);  // factor >= 1: no-op
    EXPECT_NEAR(demand.heat(0), 2.0, 1e-5);
    demand.decay(0.0);  // non-positive factor: hard reset
    EXPECT_EQ(demand.heat(0), 0.0);
}

TEST(RefineDemand, SnapshotReportsWhetherAnyHeatExists) {
    DemandTracker demand(5);
    std::vector<double> heat;
    EXPECT_FALSE(demand.snapshot(heat));
    ASSERT_EQ(heat.size(), 5u);
    demand.record(2, 1.5);
    EXPECT_TRUE(demand.snapshot(heat));
    EXPECT_NEAR(heat[2], 1.5, 1e-5);
    EXPECT_EQ(heat[0], 0.0);
}

TEST(RefineDemand, ResizePreservesExistingHeat) {
    DemandTracker demand(4);
    demand.record(1, 2.0);
    demand.resize(16);
    EXPECT_EQ(demand.size(), 16u);
    EXPECT_NEAR(demand.heat(1), 2.0, 1e-5);
    demand.record(12, 1.0);
    EXPECT_NEAR(demand.heat(12), 1.0, 1e-5);
}

// TSan target: reader threads hammer record() while the "driver" decays and
// snapshots — the tracker's contract is that this is race-free (fixed-point
// atomic cells; decay is racy-lossy by design, never undefined).
TEST(RefineDemandConcurrent, RecordersRaceDecayAndSnapshots) {
    DemandTracker demand(64);
    std::vector<std::thread> recorders;
    for (int t = 0; t < 4; ++t) {
        recorders.emplace_back([&demand, t] {
            for (int i = 0; i < 4000; ++i) {
                demand.record(static_cast<VertexId>((t * 17 + i) % 64), 0.5);
            }
        });
    }
    std::vector<double> heat;
    for (int round = 0; round < 50; ++round) {
        demand.decay(0.5);
        demand.snapshot(heat);
        demand.totals();
    }
    for (auto& th : recorders) {
        th.join();
    }
    // Heat is present (decay cannot outrun 16k records) and finite.
    const DemandTracker::Totals t = demand.totals();
    EXPECT_GE(t.total, 0.0);
    EXPECT_EQ(demand.size(), 64u);
}

TEST(RefineDemandConcurrent, RecordersRaceResize) {
    DemandTracker demand(32);
    std::thread recorder([&demand] {
        for (int i = 0; i < 8000; ++i) {
            demand.record(static_cast<VertexId>(i % 96));
        }
    });
    for (int n = 32; n <= 96; n += 8) {
        demand.resize(static_cast<std::size_t>(n));
    }
    recorder.join();
    EXPECT_EQ(demand.size(), 96u);
}

// ---------------------------------------------------------------------------
// BoundsOracle: interval unit tests.
// ---------------------------------------------------------------------------

TEST(Bounds, DegenerateSizesAreExactZero) {
    BoundsParams p;
    p.n = 0;
    EXPECT_TRUE(row_closeness_interval({}, 0, p).exact);
    p.n = 1;
    const std::vector<Weight> row{0};
    const ClosenessInterval iv = row_closeness_interval(row, 0, p);
    EXPECT_EQ(iv.lo, 0.0);
    EXPECT_EQ(iv.hi, 0.0);
    EXPECT_TRUE(iv.exact);
}

TEST(Bounds, QuiescentRowCollapsesToExactScore) {
    const std::vector<Weight> row{0, 1, 2, kInfinity};
    BoundsParams p;
    p.n = 4;
    p.variant = ClosenessVariant::Corrected;
    p.w_min = 1;
    p.w_max = 2;
    p.wavefront_k = 5;
    p.quiescent = true;
    const ClosenessInterval iv = row_closeness_interval(row, 0, p);
    const double want = closeness_score(3.0, 3, 4, ClosenessVariant::Corrected);
    EXPECT_EQ(iv.lo, want);
    EXPECT_EQ(iv.hi, want);
    EXPECT_TRUE(iv.exact);
    EXPECT_EQ(iv.settled, 4u);
    EXPECT_EQ(iv.reached, 3u);
}

TEST(Bounds, PartialRowBracketsEveryFeasibleCompletion) {
    // k = 1, w_min = 1: entries <= 1 are settled; entry 2 (value 3) is a
    // reachable witness with true distance in [1, 3]; entry 3 is unknown
    // (true distance >= 1, or unreachable). Every feasible completion's
    // converged score must land inside the interval.
    for (const ClosenessVariant variant :
         {ClosenessVariant::Corrected, ClosenessVariant::Raw}) {
        const std::vector<Weight> row{0, 1, 3, kInfinity};
        BoundsParams p;
        p.n = 4;
        p.variant = variant;
        p.w_min = 1;
        p.w_max = 3;
        p.wavefront_k = 1;
        const ClosenessInterval iv = row_closeness_interval(row, 0, p);
        EXPECT_FALSE(iv.exact);
        EXPECT_EQ(iv.settled, 2u);
        EXPECT_EQ(iv.reached, 3u);

        const auto score_of = [&](Weight d2, Weight d3) {
            Weight sum = 1;
            std::size_t reached = 2;
            if (d2 < kInfinity) {
                sum += d2;
                ++reached;
            }
            if (d3 < kInfinity) {
                sum += d3;
                ++reached;
            }
            return closeness_score(sum, reached, 4, variant);
        };
        // Feasible completions only: a reachable pair's shortest path is
        // simple, so its distance is capped at (n - 1) * w_max = 9 here.
        for (const auto& [d2, d3] : std::vector<std::pair<Weight, Weight>>{
                 {3, kInfinity},  // current estimates were already true
                 {1, kInfinity},  // witness tightens to the floor
                 {3, 9},          // unknown turns out reachable, maximally far
                 {1, 1},          // everything as near as allowed
             }) {
            const double s = score_of(d2, d3);
            EXPECT_LE(iv.lo, s) << "completion (" << d2 << ", " << d3 << ")";
            EXPECT_GE(iv.hi, s) << "completion (" << d2 << ", " << d3 << ")";
        }
    }
}

// ---------------------------------------------------------------------------
// BoundsOracle: engine-level soundness at every boundary.
// ---------------------------------------------------------------------------

/// Every vertex's interval must contain the converged closeness of the
/// *current* graph. The interval contract is containment of the engine's
/// own converged value; the independent sequential-APSP reference used here
/// can differ from it in the last floating-point bits (different summation
/// order), so containment is checked up to the repo-wide 1e-9 tolerance.
void expect_intervals_contain_converged(const AnytimeEngine& engine,
                                        const DynamicGraph& mirror) {
    const ClosenessScores exact = closeness_from_matrix(
        exact_apsp(mirror), engine.config().closeness_variant);
    for (VertexId v = 0; v < engine.num_vertices(); ++v) {
        const ClosenessInterval iv = engine.closeness_interval(v);
        EXPECT_LE(iv.lo, exact.closeness[v] + 1e-9)
            << "vertex " << v << " at RC" << engine.rc_steps_completed();
        EXPECT_GE(iv.hi, exact.closeness[v] - 1e-9)
            << "vertex " << v << " at RC" << engine.rc_steps_completed();
        if (engine.quiescent()) {
            EXPECT_TRUE(iv.exact) << "vertex " << v;
        }
    }
}

void run_boundary_soundness(WeightRange weights, std::uint64_t seed) {
    Rng rng(seed);
    DynamicGraph g = barabasi_albert(90, 2, rng, weights);
    DynamicGraph mirror = g;

    EngineConfig config;
    config.num_ranks = 4;
    config.ia_threads = 2;
    config.seed = seed * 3 + 1;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();
    expect_intervals_contain_converged(engine, mirror);

    engine.rc_step();
    expect_intervals_contain_converged(engine, mirror);

    // Addition boundary.
    GrowthConfig gc;
    gc.num_new = 6;
    gc.communities = 2;
    gc.weights = weights;
    Rng batch_rng(seed + 7);
    const GrowthBatch batch = grow_batch(engine.num_vertices(), gc, batch_rng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    mirror = apply_batch(mirror, batch);
    expect_intervals_contain_converged(engine, mirror);

    engine.rc_step();
    expect_intervals_contain_converged(engine, mirror);

    // Deletion boundary (invalidate / re-settle).
    const VertexId du = 0;
    const VertexId dv = mirror.neighbors(du).front().to;
    ShrinkBatch shrink;
    shrink.deletions.push_back({du, dv, 0.0});
    engine.apply_deletion(shrink);
    mirror.remove_edge(du, dv);
    expect_intervals_contain_converged(engine, mirror);

    // Weight-raise boundary (changes w_max, exercises the cascade).
    const VertexId ru = 1;
    const VertexId rv = mirror.neighbors(ru).front().to;
    const Weight raised = mirror.neighbors(ru).front().weight * 2.5;
    const Edge update{ru, rv, raised};
    engine.update_edge_weights({&update, 1});
    mirror.set_edge_weight(ru, rv, raised);
    expect_intervals_contain_converged(engine, mirror);

    // Every remaining boundary down to quiescence, then the collapse.
    while (engine.rc_step()) {
        expect_intervals_contain_converged(engine, mirror);
    }
    ASSERT_TRUE(engine.quiescent());
    expect_intervals_contain_converged(engine, mirror);
}

TEST(Bounds, IntervalsContainConvergedAtEveryBoundaryUnitWeights) {
    run_boundary_soundness(WeightRange{}, 21);
}

TEST(Bounds, IntervalsContainConvergedAtEveryBoundaryWeighted) {
    run_boundary_soundness(WeightRange{1.0, 3.0}, 22);
}

TEST(Bounds, WavefrontCounterTracksStructuralChanges) {
    Rng rng(5);
    DynamicGraph g = barabasi_albert(60, 2, rng);
    EngineConfig config;
    config.num_ranks = 4;
    config.ia_threads = 1;
    config.seed = 11;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();
    EXPECT_EQ(engine.wavefront_steps(), 0);
    engine.rc_step();
    EXPECT_EQ(engine.wavefront_steps(), 1);
    engine.rc_step();
    EXPECT_EQ(engine.wavefront_steps(), 2);

    GrowthConfig gc;
    gc.num_new = 4;
    Rng batch_rng(3);
    const GrowthBatch batch = grow_batch(engine.num_vertices(), gc, batch_rng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    EXPECT_EQ(engine.wavefront_steps(), 0);  // structural change resets

    engine.rc_step();
    EXPECT_EQ(engine.wavefront_steps(), 1);

    ShrinkBatch shrink;
    shrink.deletions.push_back({0, engine.graph().neighbors(0).front().to, 0.0});
    engine.apply_deletion(shrink);
    EXPECT_EQ(engine.wavefront_steps(), 0);
}

TEST(Bounds, CheckpointRestoreKeepsWavefront) {
    Rng rng(9);
    DynamicGraph g = barabasi_albert(70, 2, rng);
    const DynamicGraph mirror = g;
    EngineConfig config;
    config.num_ranks = 4;
    config.ia_threads = 1;
    config.seed = 13;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();
    engine.rc_step();
    ASSERT_EQ(engine.wavefront_steps(), 1);

    std::stringstream buffer;
    engine.save_checkpoint(buffer);
    AnytimeEngine restored = AnytimeEngine::load_checkpoint(buffer, config);
    // The certificate is part of the exact restore: the restored engine
    // trusts exactly what the saver trusted...
    EXPECT_EQ(restored.wavefront_steps(), engine.wavefront_steps());
    expect_intervals_contain_converged(restored, mirror);
    // ...and keeps counting from there.
    restored.rc_step();
    EXPECT_EQ(restored.wavefront_steps(), 2);
    restored.run_to_quiescence();
    expect_intervals_contain_converged(restored, mirror);
}

// ---------------------------------------------------------------------------
// The hard bit-identity contract: Uniform policy, or any policy with no
// demand signal, reproduces the historical engine bit for bit — distances,
// closeness, the simulated clock, per-step ops/messages/bytes, and the
// telemetry span sequence — across ranks x executors x sync/async.
// ---------------------------------------------------------------------------

struct RunResult {
    std::vector<std::vector<Weight>> matrix;
    ClosenessScores scores;
    double sim_seconds{0};
    std::size_t rc_steps{0};
    std::vector<RcStepStats> steps;
    std::vector<MetricSpan> spans;
};

enum class DemandMode { None, Heavy };

RunResult run_refine_scenario(RefinePolicy policy, DemandMode demand,
                              std::uint32_t ranks, Executors executors,
                              BoundaryWireFormat wire, bool async) {
    Rng rng(987);
    DynamicGraph g = barabasi_albert(72, 2, rng, WeightRange{1.0, 3.0});

    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 2;
    config.seed = 0xF1DE + ranks;
    config.backend_threads = executor_count(executors);
    config.wire_format = wire;
    config.rc_async = async;
    config.enable_metrics = true;
    config.refine_policy = policy;

    AnytimeEngine engine(g, config);
    engine.initialize();
    const auto inject = [&] {
        if (demand == DemandMode::Heavy) {
            for (VertexId v = 0; v < 8; ++v) {
                engine.demand().record(v, static_cast<double>(v + 1));
            }
        }
    };
    inject();
    engine.run_rc_steps(2);

    GrowthConfig gc;
    gc.num_new = 5;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    Rng batch_rng(4242);
    const GrowthBatch batch = grow_batch(g.num_vertices(), gc, batch_rng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    inject();
    engine.run_to_quiescence();

    RunResult result;
    result.matrix = engine.full_distance_matrix();
    result.scores = engine.closeness();
    result.sim_seconds = engine.sim_seconds();
    result.rc_steps = engine.rc_steps_completed();
    result.steps = engine.step_history();
    result.spans = engine.metrics().spans();
    return result;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
    // EXPECT_EQ on doubles is exact comparison — bit-identical, not "close".
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.rc_steps, b.rc_steps);
    ASSERT_EQ(a.matrix.size(), b.matrix.size());
    for (std::size_t v = 0; v < a.matrix.size(); ++v) {
        ASSERT_EQ(a.matrix[v], b.matrix[v]) << "row " << v;
    }
    ASSERT_EQ(a.scores.closeness, b.scores.closeness);
    ASSERT_EQ(a.scores.reachable, b.scores.reachable);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_EQ(a.steps[i].ops, b.steps[i].ops) << "step " << i;
        EXPECT_EQ(a.steps[i].messages, b.steps[i].messages) << "step " << i;
        EXPECT_EQ(a.steps[i].bytes, b.steps[i].bytes) << "step " << i;
        EXPECT_EQ(a.steps[i].exchange_seconds, b.steps[i].exchange_seconds)
            << "step " << i;
    }
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        EXPECT_EQ(a.spans[i].name, b.spans[i].name) << "span " << i;
        EXPECT_EQ(a.spans[i].rank, b.spans[i].rank) << "span " << i;
        EXPECT_EQ(a.spans[i].step, b.spans[i].step) << "span " << i;
        EXPECT_EQ(a.spans[i].t_begin, b.spans[i].t_begin) << "span " << i;
        EXPECT_EQ(a.spans[i].t_end, b.spans[i].t_end) << "span " << i;
        EXPECT_EQ(a.spans[i].ops, b.spans[i].ops) << "span " << i;
    }
}

using UniformParam =
    std::tuple<std::uint32_t, Executors, BoundaryWireFormat, bool>;

class RefineUniform : public ::testing::TestWithParam<UniformParam> {};

TEST_P(RefineUniform, UniformAndEmptyDemandAreBitIdenticalToBaseline) {
    const auto [ranks, executors, wire, async] = GetParam();
    const RunResult baseline = run_refine_scenario(
        RefinePolicy::Uniform, DemandMode::None, ranks, executors, wire, async);
    // Uniform ignores demand entirely...
    expect_bit_identical(baseline,
                         run_refine_scenario(RefinePolicy::Uniform,
                                             DemandMode::Heavy, ranks, executors,
                                             wire, async));
    // ...and a demand-aware policy with no recorded demand plans nothing.
    expect_bit_identical(baseline,
                         run_refine_scenario(RefinePolicy::QueryHeat,
                                             DemandMode::None, ranks, executors,
                                             wire, async));
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, RefineUniform,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(Executors::Sequential, Executors::Threaded),
                       ::testing::Values(BoundaryWireFormat::V2Soa),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<UniformParam>& p) {
        return "r" + std::to_string(std::get<0>(p.param)) +
               (std::get<1>(p.param) == Executors::Threaded ? "_threaded"
                                                            : "_seq") +
               "_v2" +
               (std::get<3>(p.param) ? "_async" : "_sync");
    });

// Heat steering is a pure reordering: converged values agree with Uniform —
// bitwise on unit weights, within the repo tolerance when weighted (equal
// shortest paths may be discovered in a different order).
TEST(RefineHeat, SteeredRunConvergesToUniformValues) {
    const auto run = [](RefinePolicy policy, DemandMode demand) {
        return run_refine_scenario(policy, demand, 4, Executors::Sequential,
                                   BoundaryWireFormat::V2Soa, false);
    };
    const RunResult uniform = run(RefinePolicy::Uniform, DemandMode::None);
    const RunResult steered = run(RefinePolicy::QueryHeat, DemandMode::Heavy);
    ASSERT_EQ(steered.matrix.size(), uniform.matrix.size());
    for (std::size_t v = 0; v < uniform.matrix.size(); ++v) {
        for (std::size_t t = 0; t < uniform.matrix[v].size(); ++t) {
            EXPECT_NEAR(steered.matrix[v][t], uniform.matrix[v][t], 1e-9)
                << "d(" << v << ", " << t << ")";
        }
    }
}

// ---------------------------------------------------------------------------
// Budgeted refinement: refine_budget_ops caps propagation work per rank per
// step. Budgeted runs still converge to the same fixpoint (no mark is ever
// lost), and budgeted steps never advance the wavefront certificate.
// ---------------------------------------------------------------------------

TEST(RefineBudget, BudgetedRunConvergesWithSoundBounds) {
    Rng rng(41);
    DynamicGraph g = barabasi_albert(100, 2, rng);
    const DynamicGraph mirror = g;

    EngineConfig config;
    config.num_ranks = 4;
    config.ia_threads = 1;
    config.seed = 19;
    config.refine_policy = RefinePolicy::QueryHeat;
    config.refine_budget_ops = 800;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();
    for (VertexId v = 0; v < 4; ++v) {
        engine.demand().record(v, 8.0);
    }

    std::size_t steps = 0;
    while (engine.rc_step()) {
        ASSERT_LT(++steps, 600u) << "budgeted run failed to converge";
        // Budgeted steps may stop short of the local fixpoint, so the
        // wavefront certificate must not advance — and the (stale-k)
        // intervals must stay sound anyway.
        EXPECT_EQ(engine.wavefront_steps(), 0);
        if (steps % 25 == 0) {
            expect_intervals_contain_converged(engine, mirror);
        }
    }
    ASSERT_TRUE(engine.quiescent());

    // Unit weights: the converged fixpoint is bitwise unique, budget or not.
    const auto matrix = engine.full_distance_matrix();
    const auto exact = exact_apsp(mirror);
    for (std::size_t v = 0; v < exact.size(); ++v) {
        ASSERT_EQ(matrix[v], exact[v]) << "row " << v;
    }
    expect_intervals_contain_converged(engine, mirror);
}

// ---------------------------------------------------------------------------
// Serve integration: BoundedError freshness and top-k certification.
// ---------------------------------------------------------------------------

TEST(RefineServe, BoundedErrorRequiresBoundsCapableSnapshots) {
    Rng rng(51);
    DynamicGraph g = barabasi_albert(60, 2, rng);
    EngineConfig config;
    config.num_ranks = 4;
    config.ia_threads = 1;
    config.seed = 23;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();

    {
        QueryService service(engine);  // enable_bounds defaults to false
        const PointResult r = service.point(0, FreshnessPolicy::BoundedError);
        EXPECT_EQ(r.meta.status, QueryStatus::Unavailable);
    }
    ServeConfig sc;
    sc.enable_bounds = true;
    QueryService service(engine, sc);
    const PointResult r = service.point(0, FreshnessPolicy::BoundedError);
    ASSERT_EQ(r.meta.status, QueryStatus::Ok);
    EXPECT_LE(r.bound_lo, r.closeness);
    EXPECT_GE(r.bound_hi, r.closeness);

    const std::vector<VertexId> vs{0, 5, 9};
    const BatchResult b = service.batch(vs, FreshnessPolicy::BoundedError);
    ASSERT_EQ(b.meta.status, QueryStatus::Ok);
    ASSERT_EQ(b.bound_lo.size(), vs.size());
    ASSERT_EQ(b.bound_hi.size(), vs.size());
    for (std::size_t i = 0; i < vs.size(); ++i) {
        EXPECT_LE(b.bound_lo[i], b.closeness[i]);
        EXPECT_GE(b.bound_hi[i], b.closeness[i]);
    }
}

TEST(RefineServe, QueriesFeedTheDemandTracker) {
    Rng rng(52);
    DynamicGraph g = barabasi_albert(50, 2, rng);
    EngineConfig config;
    config.num_ranks = 2;
    config.ia_threads = 1;
    config.seed = 29;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();
    QueryService service(engine);

    ASSERT_EQ(engine.demand().heat(7), 0.0);
    service.point(7);
    EXPECT_GT(engine.demand().heat(7), 0.0);
    const std::vector<VertexId> vs{1, 2};
    service.batch(vs);
    EXPECT_GT(engine.demand().heat(1), 0.0);
    EXPECT_GT(engine.demand().heat(2), 0.0);
}

TEST(RefineCertify, CertifiedTopKNeverDisagreesWithConvergedRanking) {
    Rng rng(31);
    DynamicGraph g = barabasi_albert(80, 2, rng, WeightRange{1.0, 2.0});
    const DynamicGraph mirror = g;
    EngineConfig config;
    config.num_ranks = 4;
    config.ia_threads = 2;
    config.seed = 37;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();

    ServeConfig sc;
    sc.enable_bounds = true;
    QueryService service(engine, sc);
    const std::size_t k = 5;

    std::vector<std::vector<VertexId>> certified_sets;
    const auto poll = [&] {
        const TopKResult r = service.topk(k, FreshnessPolicy::BoundedError);
        ASSERT_EQ(r.meta.status, QueryStatus::Ok);
        if (r.certified) {
            std::vector<VertexId> set;
            for (const TopKEntry& e : r.entries) {
                set.push_back(e.vertex);
            }
            std::sort(set.begin(), set.end());
            certified_sets.push_back(std::move(set));
        }
    };
    poll();
    while (engine.rc_step()) {
        poll();
    }
    ASSERT_TRUE(engine.quiescent());
    poll();

    // Converged reference set from exact sequential APSP.
    const ClosenessScores exact = closeness_from_matrix(
        exact_apsp(mirror), engine.config().closeness_variant);
    const std::vector<VertexId> ranking = closeness_ranking(exact);
    std::vector<VertexId> want(ranking.begin(), ranking.begin() + k);
    std::sort(want.begin(), want.end());

    // The quiescent snapshot must certify (scores are distinct at this seed),
    // and no certified set ever disagrees with the converged ranking.
    ASSERT_FALSE(certified_sets.empty());
    for (const auto& set : certified_sets) {
        EXPECT_EQ(set, want);
    }
}

}  // namespace
}  // namespace aa
