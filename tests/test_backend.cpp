// Rank-executor contract tests.
//
// The load-bearing property is the determinism contract from
// core/engine.hpp: for a fixed seed and config, the default thread-per-core
// executors must reproduce one executor (ranks in ascending order on the
// driver thread) *bit-identically* — every distance, every closeness score,
// the simulated clock, and the telemetry span stream — no matter how the OS
// schedules the rank threads. The lattice below exercises it across rank
// counts and both communication schedules, with a mid-RC vertex-addition
// batch in every run and, in half of the runs, a shrink batch after it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"

namespace aa {
namespace {

// The default engine runs thread-per-core: min(P, hardware threads)
// executors, the driver thread included. An explicit count wins, clamped to
// [1, P]: more executors than ranks would never get a chunk.
TEST(BackendBasics, DefaultSizedToCores) {
    EXPECT_EQ(EngineConfig{}.backend_threads, 0u);
    const std::size_t cores =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    Rng rng(5);
    const DynamicGraph g = barabasi_albert(32, 2, rng);
    for (const std::uint32_t ranks : {1u, 2u, 3u, 8u, 16u}) {
        EngineConfig config;
        config.num_ranks = ranks;
        EXPECT_EQ(AnytimeEngine(g, config).num_executors(),
                  std::min<std::size_t>(ranks, cores))
            << "ranks=" << ranks;
    }
    EngineConfig config;
    config.num_ranks = 8;
    config.backend_threads = 3;
    EXPECT_EQ(AnytimeEngine(g, config).num_executors(), 3u);
    config.backend_threads = 1;
    EXPECT_EQ(AnytimeEngine(g, config).num_executors(), 1u);
}

TEST(BackendBasics, ExecutorsClampedToRanks) {
    EngineConfig config;
    config.num_ranks = 2;
    config.backend_threads = 5;
    Rng rng(6);
    AnytimeEngine engine(barabasi_albert(24, 2, rng), config);
    EXPECT_EQ(engine.num_executors(), 2u);
    engine.initialize();
    engine.run_to_quiescence();
    EXPECT_TRUE(engine.quiescent());
}

// One executor is the reference order: a pool of one runs [0, P) inline, in
// ascending order, on the calling thread.
TEST(BackendBasics, SequentialRunsRanksInAscendingOrder) {
    ThreadPool executors(1);
    ASSERT_EQ(executors.num_threads(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    executors.parallel_for(0, 5, [&](std::size_t r) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(r);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(BackendBasics, ThreadedRunsEveryRankExactlyOnceWithBarrier) {
    ThreadPool executors(4);
    for (int round = 0; round < 50; ++round) {
        std::vector<int> hits(8, 0);
        std::atomic<int> total{0};
        executors.parallel_for(0, hits.size(), [&](std::size_t r) {
            hits[r] += 1;  // distinct slots: racy only if a rank ran twice
            total.fetch_add(1, std::memory_order_relaxed);
        });
        // Barrier semantics: all writes are visible after parallel_for returns.
        EXPECT_EQ(total.load(), 8);
        for (const int h : hits) {
            EXPECT_EQ(h, 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism lattice: one executor vs the default, bit for bit.
// ---------------------------------------------------------------------------

struct RunResult {
    std::vector<std::vector<Weight>> matrix;
    ClosenessScores scores;
    double sim_seconds{0};
    std::size_t rc_steps{0};
    std::vector<MetricSpan> spans;
};

// Which dynamic updates a lattice run applies mid-RC.
enum class Updates {
    Additions,           // one vertex-addition batch
    AdditionsThenShrink  // the same batch, then edge/vertex deletions and reweights
};

// `backend_threads` as in EngineConfig: 1 = one executor, 0 = the
// thread-per-core default.
RunResult run_scenario(std::size_t backend_threads, std::uint32_t ranks,
                       CommSchedule schedule, Updates updates) {
    Rng rng(987);
    DynamicGraph g = barabasi_albert(72, 2, rng, WeightRange{1.0, 3.0});

    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 2;
    config.schedule = schedule;
    config.seed = 0xBACC01 + ranks;
    config.backend_threads = backend_threads;
    config.enable_metrics = true;

    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(2);

    // Mid-RC addition batch: the dynamic-update loops (extend, broadcast
    // apply, propagate) all run on the rank executors too.
    GrowthConfig gc;
    gc.num_new = 5;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    Rng batch_rng(4242);
    const auto batch = grow_batch(g.num_vertices(), gc, batch_rng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);

    if (updates == Updates::AdditionsThenShrink) {
        // The invalidate/re-settle cascade and the decrease broadcast run on
        // the rank executors as well.
        engine.run_rc_steps(1);
        const std::vector<Edge> edges = engine.graph().edges();
        ShrinkBatch shrink;
        shrink.deletions = {edges[4], edges[21]};
        shrink.vertices = {9};
        shrink.reweights = {
            Edge{edges[33].u, edges[33].v, edges[33].weight + 2.0},
            Edge{edges[50].u, edges[50].v, edges[50].weight * 0.5}};
        const ShrinkReport report = engine.apply_deletion(shrink);
        EXPECT_GE(report.edges_removed, 2u);
        EXPECT_EQ(report.weight_increases, 1u);
        EXPECT_EQ(report.weight_decreases, 1u);
    }
    engine.run_to_quiescence();

    RunResult result;
    result.matrix = engine.full_distance_matrix();
    result.scores = engine.closeness();
    result.sim_seconds = engine.sim_seconds();
    result.rc_steps = engine.rc_steps_completed();
    result.spans = engine.metrics().spans();
    return result;
}

void expect_bit_identical(const RunResult& seq, const RunResult& threaded) {
    // EXPECT_EQ on doubles is exact comparison — bit-identical, not "close".
    EXPECT_EQ(seq.sim_seconds, threaded.sim_seconds);
    EXPECT_EQ(seq.rc_steps, threaded.rc_steps);
    ASSERT_EQ(seq.matrix.size(), threaded.matrix.size());
    for (std::size_t v = 0; v < seq.matrix.size(); ++v) {
        ASSERT_EQ(seq.matrix[v], threaded.matrix[v]) << "row " << v;
    }
    ASSERT_EQ(seq.scores.closeness, threaded.scores.closeness);
    ASSERT_EQ(seq.scores.reachable, threaded.scores.reachable);
    // Telemetry: same spans, in the same order, with the same simulated
    // bounds and op counts (per-rank sinks merged in rank order).
    ASSERT_EQ(seq.spans.size(), threaded.spans.size());
    for (std::size_t i = 0; i < seq.spans.size(); ++i) {
        const MetricSpan& a = seq.spans[i];
        const MetricSpan& b = threaded.spans[i];
        EXPECT_EQ(a.name, b.name) << "span " << i;
        EXPECT_EQ(a.rank, b.rank) << "span " << i;
        EXPECT_EQ(a.step, b.step) << "span " << i;
        EXPECT_EQ(a.t_begin, b.t_begin) << "span " << i << " (" << a.name << ")";
        EXPECT_EQ(a.t_end, b.t_end) << "span " << i << " (" << a.name << ")";
        EXPECT_EQ(a.ops, b.ops) << "span " << i << " (" << a.name << ")";
    }
}

using Param = std::tuple<std::uint32_t /*ranks*/, CommSchedule, Updates>;

class BackendDeterminism : public ::testing::TestWithParam<Param> {};

TEST_P(BackendDeterminism, ThreadedMatchesSequentialBitIdentically) {
    const auto [ranks, schedule, updates] = GetParam();
    const RunResult seq = run_scenario(1, ranks, schedule, updates);
    const RunResult threaded = run_scenario(0, ranks, schedule, updates);
    expect_bit_identical(seq, threaded);
}

TEST_P(BackendDeterminism, ThreadedWithFewerWorkersThanRanksStillMatches) {
    const auto [ranks, schedule, updates] = GetParam();
    const RunResult seq = run_scenario(1, ranks, schedule, updates);
    const RunResult threaded = run_scenario(2, ranks, schedule, updates);
    expect_bit_identical(seq, threaded);
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, BackendDeterminism,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(CommSchedule::SerializedAllToAll,
                                         CommSchedule::ParallelRounds),
                       ::testing::Values(Updates::Additions,
                                         Updates::AdditionsThenShrink)),
    // The last suffix is kept from an earlier axis so instance names stay
    // stable: "_dij" runs the addition batch only, "_ds" adds the shrink batch.
    [](const ::testing::TestParamInfo<Param>& p) {
        return "r" + std::to_string(std::get<0>(p.param)) +
               (std::get<1>(p.param) == CommSchedule::SerializedAllToAll
                    ? "_ser"
                    : "_par") +
               (std::get<2>(p.param) == Updates::AdditionsThenShrink ? "_ds"
                                                                     : "_dij");
    });

// Repartition-S moves whole rows between ranks; its seed and re-mark loops
// run on the rank executors, so pin that path separately (RoundRobinPS above never
// exercises it).
TEST(BackendDeterminismRepartition, ThreadedMatchesSequentialBitIdentically) {
    for (const CommSchedule schedule :
         {CommSchedule::SerializedAllToAll, CommSchedule::ParallelRounds}) {
        Rng rng(321);
        DynamicGraph g = planted_partition(60, 4, 0.2, 0.02, rng);
        RunResult results[2];
        for (const std::size_t backend_threads : {1u, 0u}) {
            EngineConfig config;
            config.num_ranks = 4;
            config.schedule = schedule;
            config.seed = 0xC0FFEE;
            config.backend_threads = backend_threads;
            config.enable_metrics = true;
            AnytimeEngine engine(g, config);
            engine.initialize();
            engine.run_rc_steps(1);
            GrowthConfig gc;
            gc.num_new = 8;
            gc.communities = 2;
            gc.intra_edges = 2;
            gc.host_edges = 2;
            Rng batch_rng(777);
            const auto batch = grow_batch(g.num_vertices(), gc, batch_rng);
            RepartitionS strategy;
            engine.apply_addition(batch, strategy);
            engine.run_to_quiescence();
            RunResult& result = results[backend_threads == 0 ? 1 : 0];
            result.matrix = engine.full_distance_matrix();
            result.scores = engine.closeness();
            result.sim_seconds = engine.sim_seconds();
            result.rc_steps = engine.rc_steps_completed();
            result.spans = engine.metrics().spans();
        }
        expect_bit_identical(results[0], results[1]);
    }
}

}  // namespace
}  // namespace aa
