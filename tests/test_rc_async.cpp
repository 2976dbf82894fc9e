// Event-driven RC exchange (relax-on-arrival) equivalence at the engine
// level.
//
// EngineConfig::rc_async reshapes only the simulated timeline: boundary
// messages become timestamped delivery events and ranks ingest them as they
// arrive, but ingest preserves the canonical per-receiver message order and
// propagation is deferred until a rank has everything — so distances,
// closeness, dirty order, per-step ops, and message traffic must stay
// bit-identical to the step-synchronous default at every step. The lattice
// below pins that across rank counts × both execution backends, with a
// mid-RC vertex-addition batch in every run. The delivery
// trace is built on the driver thread, so it must also be identical across
// backends and across repeated threaded runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/engine.hpp"
#include "core/rc.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "runtime/backend.hpp"

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
    std::vector<DeliveryTraceEntry> trace;
};

struct Overrides {
    bool rc_async{false};
    CommSchedule schedule{CommSchedule::SerializedAllToAll};
    PriceModel price_model{PriceModel::PerByte};
    std::size_t ingest_window{0};
};

RunResult run_scenario(std::uint32_t ranks, BackendKind backend,
                       BoundaryWireFormat format, const Overrides& o) {
    Rng rng(555);
    DynamicGraph g = barabasi_albert(80, 2, rng, WeightRange{1.0, 4.0});

    EngineConfig config;
    config.num_ranks = ranks;
    config.seed = 0xF0 + ranks;
    config.backend = backend;
    config.enable_metrics = true;
    config.wire_format = format;
    config.rc_async = o.rc_async;
    config.schedule = o.schedule;
    config.price_model = o.price_model;
    config.rc_ingest_window_bytes = o.ingest_window;

    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(2);

    // Mid-RC addition batch: async steps must stay equivalent with rows
    // added (and rank neighbourhoods changed) between steps.
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
    result.trace = engine.delivery_trace();
    return result;
}

/// Everything an event-driven step may NOT change: results, work, traffic.
/// (EXPECT_EQ on doubles is exact comparison — bit-identical, not "close".)
void expect_equivalent_modulo_timeline(const RunResult& sync,
                                       const RunResult& async_r) {
    EXPECT_EQ(sync.rc_steps, async_r.rc_steps);
    ASSERT_EQ(sync.matrix.size(), async_r.matrix.size());
    for (std::size_t v = 0; v < sync.matrix.size(); ++v) {
        ASSERT_EQ(sync.matrix[v], async_r.matrix[v]) << "row " << v;
    }
    ASSERT_EQ(sync.scores.closeness, async_r.scores.closeness);
    ASSERT_EQ(sync.scores.reachable, async_r.scores.reachable);
    ASSERT_EQ(sync.steps.size(), async_r.steps.size());
    for (std::size_t i = 0; i < sync.steps.size(); ++i) {
        EXPECT_EQ(sync.steps[i].step, async_r.steps[i].step);
        EXPECT_EQ(sync.steps[i].ops, async_r.steps[i].ops) << "step " << i;
        EXPECT_EQ(sync.steps[i].messages, async_r.steps[i].messages)
            << "step " << i;
        EXPECT_EQ(sync.steps[i].bytes, async_r.steps[i].bytes) << "step " << i;
    }
    EXPECT_EQ(sync.total_messages, async_r.total_messages);
    EXPECT_EQ(sync.total_bytes, async_r.total_bytes);
}

void expect_identical_trace(const RunResult& a, const RunResult& b) {
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        const DeliveryTraceEntry& x = a.trace[i];
        const DeliveryTraceEntry& y = b.trace[i];
        EXPECT_EQ(x.step, y.step) << "event " << i;
        EXPECT_EQ(x.time, y.time) << "event " << i;
        EXPECT_EQ(x.from, y.from) << "event " << i;
        EXPECT_EQ(x.to, y.to) << "event " << i;
        EXPECT_EQ(x.seq, y.seq) << "event " << i;
        EXPECT_EQ(x.bytes, y.bytes) << "event " << i;
    }
}

using Param =
    std::tuple<std::uint32_t /*ranks*/, BackendKind, BoundaryWireFormat>;

class RcAsyncEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(RcAsyncEquivalence, AsyncMatchesSyncModuloTimeline) {
    const auto [ranks, backend, format] = GetParam();
    const RunResult sync =
        run_scenario(ranks, backend, format, {/*rc_async=*/false});
    const RunResult async_r =
        run_scenario(ranks, backend, format, {/*rc_async=*/true});
    expect_equivalent_modulo_timeline(sync, async_r);
    // The sync run never produces delivery events; the async run produces one
    // per RC-exchanged message (dynamic-update broadcasts stay collective, so
    // the trace is a subset of total message traffic).
    EXPECT_TRUE(sync.trace.empty());
    EXPECT_FALSE(async_r.trace.empty());
    EXPECT_LE(async_r.trace.size(), async_r.total_messages);
    // Relax-on-arrival can only shorten the timeline: ingest overlaps the
    // in-flight tail instead of waiting for the full collective.
    EXPECT_LE(async_r.sim_seconds, sync.sim_seconds * (1 + 1e-12));
}

TEST_P(RcAsyncEquivalence, PipelinedScheduleSameFixpoint) {
    // Changing the communication schedule under async changes arrival times
    // only — the canonical ingest order keeps the fixpoint (and all work
    // accounting) bit-identical; the pipelined wire can only be faster than
    // the serialized one.
    const auto [ranks, backend, format] = GetParam();
    Overrides serialized{/*rc_async=*/true, CommSchedule::SerializedAllToAll};
    Overrides pipelined{/*rc_async=*/true, CommSchedule::Pipelined};
    const RunResult a = run_scenario(ranks, backend, format, serialized);
    const RunResult b = run_scenario(ranks, backend, format, pipelined);
    expect_equivalent_modulo_timeline(a, b);
    EXPECT_LE(b.sim_seconds, a.sim_seconds * (1 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, RcAsyncEquivalence,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(BackendKind::Sequential,
                                         BackendKind::Threaded),
                       ::testing::Values(BoundaryWireFormat::V2Soa)),
    [](const ::testing::TestParamInfo<Param>& p) {
        std::string name = "r";
        name += std::to_string(std::get<0>(p.param));
        name += std::get<1>(p.param) == BackendKind::Threaded ? "_threaded"
                                                              : "_seq";
        name += "_v2";
        return name;
    });

TEST(RcAsyncDeterminism, ThreadedRunsReplayIdentically) {
    // Same seed, same config, two fresh engines on the threaded backend: the
    // delivery traces (event pop order with timestamps) must match event for
    // event, and so must every result. Ingest runs in the rank closures on
    // concurrent workers, but each receiver walks its own arrivals in
    // canonical order and the trace is built on the driver, so worker
    // scheduling cannot perturb either.
    const Overrides async_pipelined{/*rc_async=*/true, CommSchedule::Pipelined};
    const RunResult a = run_scenario(8, BackendKind::Threaded,
                                     BoundaryWireFormat::V2Soa, async_pipelined);
    const RunResult b = run_scenario(8, BackendKind::Threaded,
                                     BoundaryWireFormat::V2Soa, async_pipelined);
    expect_identical_trace(a, b);
    expect_equivalent_modulo_timeline(a, b);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_FALSE(a.trace.empty());
}

TEST(RcAsyncDeterminism, BackendsShareOneTrace) {
    const Overrides async_pipelined{/*rc_async=*/true, CommSchedule::Pipelined};
    const RunResult seq = run_scenario(4, BackendKind::Sequential,
                                       BoundaryWireFormat::V2Soa, async_pipelined);
    const RunResult thr = run_scenario(4, BackendKind::Threaded,
                                       BoundaryWireFormat::V2Soa, async_pipelined);
    expect_identical_trace(seq, thr);
    expect_equivalent_modulo_timeline(seq, thr);
    EXPECT_EQ(seq.sim_seconds, thr.sim_seconds);
}

TEST(RcAsyncDeterminism, TraceIsInEventOrderPerStep) {
    const Overrides async_serialized{/*rc_async=*/true};
    const RunResult r = run_scenario(4, BackendKind::Sequential,
                                     BoundaryWireFormat::V2Soa, async_serialized);
    ASSERT_FALSE(r.trace.empty());
    for (std::size_t i = 1; i < r.trace.size(); ++i) {
        const DeliveryTraceEntry& prev = r.trace[i - 1];
        const DeliveryTraceEntry& cur = r.trace[i];
        if (prev.step != cur.step) {
            continue;  // new exchange, clock keyed from its own inflight start
        }
        // (time, source, seq) lexicographic — the EventQueue contract.
        const bool ordered =
            prev.time < cur.time ||
            (prev.time == cur.time &&
             (prev.from < cur.from || (prev.from == cur.from && prev.seq < cur.seq)));
        EXPECT_TRUE(ordered) << "events " << i - 1 << " and " << i;
    }
}

// ---- Golden RC-step values --------------------------------------------------
//
// One fixed scenario — BA n = 80, P = 8, two RC steps, a RoundRobin addition
// batch, a deletion batch (two edges, one vertex, one weight increase), one
// shard move, then quiescence — with every figure the RC step produces pinned
// bit for bit: the simulated clock, each step's exchange time, ops and clock
// after the barrier, the distance matrix, and the span stream (ordered for the
// synchronous step; as a multiset for the event-driven one, whose per-rank
// closures merge spans in rank order). The values were captured from the
// engine and are written as hexfloat / hash literals, so they are an oracle
// that needs no second implementation of the step: a change to the step body
// that moves any of them changes the algorithm or its pricing.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

template <typename T>
std::uint64_t fnv1a(std::uint64_t h, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t span_hash(const MetricSpan& span) {
    std::uint64_t h = kFnvBasis;
    for (const char c : span.name) {
        h = fnv1a(h, c);
    }
    h = fnv1a(h, span.rank);
    h = fnv1a(h, span.step);
    h = fnv1a(h, span.t_begin);
    h = fnv1a(h, span.t_end);
    return fnv1a(h, span.ops);
}

struct GoldenRun {
    double sim_seconds{0};
    std::size_t rc_steps{0};
    std::uint64_t steps_hash{0};   // every step's exchange time, ops, clock
    std::uint64_t matrix_hash{0};  // full_distance_matrix(), row-major
    std::uint64_t spans_hash{0};   // see the section comment
};

GoldenRun run_golden(bool rc_async, BackendKind backend) {
    Rng rng(4242);
    const DynamicGraph g = barabasi_albert(80, 2, rng, WeightRange{1.0, 4.0});
    EngineConfig config;
    config.num_ranks = 8;
    config.seed = 0x601D;
    config.backend = backend;
    config.enable_metrics = true;
    config.rc_async = rc_async;
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(2);

    GrowthConfig gc;
    gc.num_new = 6;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    Rng batch_rng(77);
    RoundRobinPS strategy;
    engine.apply_addition(grow_batch(engine.num_vertices(), gc, batch_rng),
                          strategy);

    // A boundary block delivered by a collective outside the RC loop: the
    // next step finds it in the receiver's inbox ahead of its own arrivals
    // (the event-driven step ingests such leftovers before it posts).
    for (const Edge& e : engine.graph().edges()) {
        const RankId from = engine.shard_ownership().owner(e.u);
        const RankId to = engine.shard_ownership().owner(e.v);
        if (from == to) {
            continue;
        }
        Serializer out;
        encode_row_block(out, e.u, engine.distance_row(e.u));
        engine.cluster().send(from, to, MessageTag::BoundaryDvUpdate, out.take());
        engine.cluster().exchange();
        break;
    }
    engine.run_rc_steps(2);

    const std::vector<Edge> edges = engine.graph().edges();
    ShrinkBatch shrink;
    shrink.deletions = {edges[3], edges[17]};
    shrink.vertices = {11};
    shrink.reweights = {Edge{edges[30].u, edges[30].v, edges[30].weight + 2.0}};
    engine.apply_deletion(shrink);
    engine.run_rc_steps(1);

    const ShardOwnership& ownership = engine.shard_ownership();
    ShardId moving = kInvalidShard;
    for (ShardId s = 0; s < ownership.num_shards(); ++s) {
        if (ownership.rank_of(s) == 2 && !ownership.shard_vertices(s).empty()) {
            moving = s;
            break;
        }
    }
    EXPECT_NE(moving, kInvalidShard);
    const std::vector<ShardMove> moves{{moving, 2, 5}};
    engine.migrate_shards(moves);
    engine.run_to_quiescence();

    GoldenRun run;
    run.sim_seconds = engine.sim_seconds();
    run.rc_steps = engine.rc_steps_completed();
    run.steps_hash = kFnvBasis;
    for (const RcStepStats& s : engine.step_history()) {
        run.steps_hash = fnv1a(run.steps_hash, s.exchange_seconds);
        run.steps_hash = fnv1a(run.steps_hash, s.ops);
        run.steps_hash = fnv1a(run.steps_hash, s.sim_seconds_after);
    }
    run.matrix_hash = kFnvBasis;
    for (const std::vector<Weight>& row : engine.full_distance_matrix()) {
        for (const Weight d : row) {
            run.matrix_hash = fnv1a(run.matrix_hash, d);
        }
    }
    std::vector<std::uint64_t> per_span;
    std::size_t leftover_ingests = 0;
    for (const MetricSpan& span : engine.metrics().spans()) {
        per_span.push_back(span_hash(span));
        leftover_ingests += span.name == "rc.ingest" ? 1 : 0;
    }
    if (rc_async) {
        EXPECT_EQ(leftover_ingests, 1u);  // the injected block, and only it
        std::sort(per_span.begin(), per_span.end());
    }
    run.spans_hash = kFnvBasis;
    for (const std::uint64_t h : per_span) {
        run.spans_hash = fnv1a(run.spans_hash, h);
    }
    return run;
}

void expect_golden(const GoldenRun& got, const GoldenRun& want) {
    EXPECT_EQ(got.sim_seconds, want.sim_seconds)
        << std::hexfloat << got.sim_seconds;
    EXPECT_EQ(got.rc_steps, want.rc_steps);
    EXPECT_EQ(got.steps_hash, want.steps_hash) << std::hex << got.steps_hash;
    EXPECT_EQ(got.matrix_hash, want.matrix_hash) << std::hex << got.matrix_hash;
    EXPECT_EQ(got.spans_hash, want.spans_hash) << std::hex << got.spans_hash;
}

// The two modes share the matrix (bit-identical results) and differ in the
// timeline; both backends must reproduce their mode's values exactly.
constexpr GoldenRun kSyncGolden{0x1.6f2822aa59775p-5, 9, 0x69f837406b9412cb,
                                0xcda422cdf0d777ff, 0xa98eaf17a3343863};
constexpr GoldenRun kAsyncGolden{0x1.6f0b7adc7d3edp-5, 9, 0xee255acc733a3e87,
                                 0xcda422cdf0d777ff, 0x9a720d637afca9e2};

TEST(RcStepGolden, SyncSequential) {
    expect_golden(run_golden(false, BackendKind::Sequential), kSyncGolden);
}

TEST(RcStepGolden, SyncThreaded) {
    expect_golden(run_golden(false, BackendKind::Threaded), kSyncGolden);
}

TEST(RcStepGolden, AsyncSequential) {
    expect_golden(run_golden(true, BackendKind::Sequential), kAsyncGolden);
}

TEST(RcStepGolden, AsyncThreaded) {
    expect_golden(run_golden(true, BackendKind::Threaded), kAsyncGolden);
}

TEST(RcIngest, AdaptiveWindowMatchesFixed) {
    // The 0 sentinel resolves to a host-dependent window; windowing is
    // contractually invisible to results, so the adaptive run must be
    // bit-identical — including sim_seconds — to the historical fixed
    // 128 MiB window, sync and async alike.
    for (const bool rc_async : {false, true}) {
        Overrides adaptive{rc_async};
        Overrides fixed{rc_async};
        fixed.ingest_window = kRcIngestWindowBytes;
        const RunResult a = run_scenario(4, BackendKind::Sequential,
                                         BoundaryWireFormat::V2Soa, adaptive);
        const RunResult f = run_scenario(4, BackendKind::Sequential,
                                         BoundaryWireFormat::V2Soa, fixed);
        expect_equivalent_modulo_timeline(a, f);
        expect_identical_trace(a, f);
        EXPECT_EQ(a.sim_seconds, f.sim_seconds) << "rc_async=" << rc_async;
    }
}

TEST(RcIngest, AdaptiveResolutionRules) {
    // Explicit values win verbatim; the sentinel resolves into the documented
    // clamp range, and concurrent backends get a share no larger than the
    // sequential backend's whole-LLC window.
    Rng rng(7);
    DynamicGraph g = barabasi_albert(40, 2, rng, WeightRange{1.0, 2.0});
    EngineConfig config;
    config.num_ranks = 4;
    config.rc_ingest_window_bytes = 12345;
    AnytimeEngine explicit_engine(g, config);
    EXPECT_EQ(explicit_engine.rc_ingest_window_bytes_effective(), 12345u);

    config.rc_ingest_window_bytes = 0;
    config.backend = BackendKind::Sequential;
    AnytimeEngine seq_engine(g, config);
    const std::size_t seq_window = seq_engine.rc_ingest_window_bytes_effective();
    EXPECT_GE(seq_window, std::size_t{4} << 20);
    EXPECT_LE(seq_window, std::size_t{128} << 20);
    EXPECT_EQ(seq_window, adaptive_rc_ingest_window_bytes(1));

    config.backend = BackendKind::Threaded;
    AnytimeEngine thr_engine(g, config);
    const std::size_t thr_window = thr_engine.rc_ingest_window_bytes_effective();
    EXPECT_GE(thr_window, std::size_t{4} << 20);
    EXPECT_LE(thr_window, seq_window);
    EXPECT_EQ(thr_window, adaptive_rc_ingest_window_bytes(4));
}

TEST(PriceModel, PerByteIsTheHistoricalDefault) {
    const Overrides defaulted{};
    Overrides explicit_per_byte{};
    explicit_per_byte.price_model = PriceModel::PerByte;
    const RunResult a = run_scenario(4, BackendKind::Sequential,
                                     BoundaryWireFormat::V2Soa, defaulted);
    const RunResult b = run_scenario(4, BackendKind::Sequential,
                                     BoundaryWireFormat::V2Soa, explicit_per_byte);
    expect_equivalent_modulo_timeline(a, b);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
}

TEST(CommSchedule, PipelinedSyncMatchesSerializedResults) {
    // The Pipelined schedule in the step-synchronous engine: pure pricing
    // change, same fixpoint and work, never slower than the serialized wire.
    Overrides serialized{};
    Overrides pipelined{};
    pipelined.schedule = CommSchedule::Pipelined;
    const RunResult a = run_scenario(8, BackendKind::Sequential,
                                     BoundaryWireFormat::V2Soa, serialized);
    const RunResult b = run_scenario(8, BackendKind::Sequential,
                                     BoundaryWireFormat::V2Soa, pipelined);
    expect_equivalent_modulo_timeline(a, b);
    EXPECT_LE(b.sim_seconds, a.sim_seconds);
}

}  // namespace
}  // namespace aa
