// The observability layer: MetricsRegistry semantics (disabled-mode cost
// discipline, span nesting, instruments), the span CSV/JSON exporters, and
// the engine-level aa.timeline.v1 block.
#include <gtest/gtest.h>

#include <sstream>

#include "common/metrics.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "core/telemetry.hpp"
#include "graph/generators.hpp"

namespace aa {
namespace {

// ---- registry: disabled mode -----------------------------------------------

TEST(MetricsRegistry, DisabledDoesNothingAndAllocatesNothing) {
    MetricsRegistry m;
    ASSERT_FALSE(m.enabled());

    const auto c = m.counter("ops", 0);
    const auto g = m.gauge("depth");
    const double bounds[] = {1.0, 10.0};
    const auto h = m.histogram("bytes", bounds);
    const auto s = m.span_open("phase", 0, 1, 0.5);
    EXPECT_EQ(c, MetricsRegistry::kNullHandle);
    EXPECT_EQ(g, MetricsRegistry::kNullHandle);
    EXPECT_EQ(h, MetricsRegistry::kNullHandle);
    EXPECT_EQ(s, MetricsRegistry::kNullHandle);

    m.add(c, 5);
    m.set(g, 3);
    m.observe(h, 2.0);
    m.span_add(s, 1, 2, 3);
    m.span_attr(s, "k", "v");
    m.span_close(s, 1.0);
    m.record_span(MetricSpan{.name = "x", .attrs = {}});

    EXPECT_TRUE(m.spans().empty());
    EXPECT_TRUE(m.counters().empty());
    EXPECT_TRUE(m.histograms().empty());
    EXPECT_EQ(m.open_span_count(), 0u);
    // The cost contract: a disabled registry never allocates. The span store
    // still having zero capacity after all of the calls above is the
    // observable half of that promise.
    EXPECT_EQ(m.spans().capacity(), 0u);
}

TEST(MetricsRegistry, HandlesMintedWhileDisabledStayInert) {
    MetricsRegistry m;
    const auto stale = m.counter("early");
    m.enable();
    m.add(stale, 7);  // must not touch (or crash on) any live instrument
    EXPECT_TRUE(m.counters().empty());
}

// ---- registry: instruments -------------------------------------------------

TEST(MetricsRegistry, CountersAccumulateAndGaugesOverwrite) {
    MetricsRegistry m;
    m.enable();
    const auto c = m.counter("ops", 2);
    EXPECT_EQ(m.counter("ops", 2), c);            // find-or-create
    EXPECT_NE(m.counter("ops", 3), c);            // distinct per rank
    m.add(c, 2.0);
    m.add(c, 3.5);
    EXPECT_DOUBLE_EQ(m.value(c), 5.5);

    const auto g = m.gauge("queue");
    m.set(g, 10);
    m.set(g, 4);
    EXPECT_DOUBLE_EQ(m.value(g), 4);

    const auto counters = m.counters();
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_EQ(counters[0].name, "ops");
    EXPECT_EQ(counters[0].rank, 2);
    EXPECT_FALSE(counters[0].is_gauge);
    EXPECT_TRUE(counters[2].is_gauge);
}

TEST(MetricsRegistry, HistogramBucketsAndOverflow) {
    MetricsRegistry m;
    m.enable();
    const double bounds[] = {1.0, 10.0};
    const auto h = m.histogram("payload", bounds);
    EXPECT_EQ(m.histogram("payload", bounds), h);
    m.observe(h, 0.5);    // <= 1
    m.observe(h, 1.0);    // <= 1 (bounds are upper bounds, inclusive)
    m.observe(h, 5.0);    // <= 10
    m.observe(h, 100.0);  // overflow
    const auto hists = m.histograms();
    ASSERT_EQ(hists.size(), 1u);
    ASSERT_EQ(hists[0].counts.size(), 3u);
    EXPECT_EQ(hists[0].counts[0], 2u);
    EXPECT_EQ(hists[0].counts[1], 1u);
    EXPECT_EQ(hists[0].counts[2], 1u);
    EXPECT_DOUBLE_EQ(hists[0].sum, 106.5);
    EXPECT_EQ(hists[0].observations, 4u);
}

// ---- registry: spans -------------------------------------------------------

TEST(MetricsRegistry, SpansNestLifoWithDepthAndParent) {
    MetricsRegistry m;
    m.enable();
    const auto outer = m.span_open("add", -1, 3, 1.0);
    const auto inner = m.span_open("add.extend", 0, 3, 1.25);
    m.span_add(inner, 10.0, 256, 2);
    m.span_add(inner, 5.0);
    m.span_close(inner, 1.5);
    m.span_attr(outer, "strategy", "CutEdge-PS");
    m.span_close(outer, 2.0);
    const auto sibling = m.span_open("rc.post", 1, 4, 2.0);
    m.span_close(sibling, 2.5);

    const auto& spans = m.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(m.open_span_count(), 0u);

    EXPECT_EQ(spans[outer].name, "add");
    EXPECT_EQ(spans[outer].depth, 0u);
    EXPECT_EQ(spans[outer].parent, -1);
    ASSERT_EQ(spans[outer].attrs.size(), 1u);
    EXPECT_EQ(spans[outer].attrs[0].first, "strategy");

    EXPECT_EQ(spans[inner].name, "add.extend");
    EXPECT_EQ(spans[inner].depth, 1u);
    EXPECT_EQ(spans[inner].parent, static_cast<std::int64_t>(outer));
    EXPECT_DOUBLE_EQ(spans[inner].ops, 15.0);
    EXPECT_EQ(spans[inner].bytes, 256u);
    EXPECT_EQ(spans[inner].messages, 2u);
    EXPECT_DOUBLE_EQ(spans[inner].t_begin, 1.25);
    EXPECT_DOUBLE_EQ(spans[inner].t_end, 1.5);

    EXPECT_EQ(spans[sibling].depth, 0u);
    EXPECT_EQ(spans[sibling].parent, -1);
}

// The registry's contracts hold in every build type (NDEBUG included): a
// close out of LIFO order or on an empty stack, and any live handle that the
// registry never minted, abort instead of corrupting the span tree or
// writing out of bounds.
TEST(MetricsRegistry, DiesOnNonLifoClose) {
    MetricsRegistry m;
    m.enable();
    const auto outer = m.span_open("outer", -1, -1, 0.0);
    const auto inner = m.span_open("inner", -1, -1, 0.5);
    EXPECT_DEATH(m.span_close(outer, 1.0), "spans must close LIFO");
    m.span_close(inner, 1.0);
    m.span_close(outer, 2.0);
    EXPECT_DEATH(m.span_close(outer, 3.0), "spans must close LIFO");
}

TEST(MetricsRegistry, DiesOnUnknownHandle) {
    MetricsRegistry m;
    m.enable();
    const auto c = m.counter("ops");
    const double bounds[] = {1.0};
    const auto h = m.histogram("bytes", bounds);
    const auto s = m.span_open("phase", -1, -1, 0.0);
    m.span_close(s, 1.0);
    EXPECT_DEATH(m.add(c + 7, 1.0), "unknown metrics handle");
    EXPECT_DEATH(m.set(c + 7, 1.0), "unknown metrics handle");
    EXPECT_DEATH(m.observe(h + 7, 1.0), "unknown metrics handle");
    EXPECT_DEATH(m.span_add(s + 7, 1.0), "unknown metrics handle");
    EXPECT_DEATH(m.span_attr(s + 7, "k", "v"), "unknown metrics handle");
}

TEST(MetricsRegistry, ClearDropsDataButKeepsEnablement) {
    MetricsRegistry m;
    m.enable();
    m.add(m.counter("c"), 1);
    m.record_span(MetricSpan{.name = "s", .attrs = {}});
    m.clear();
    EXPECT_TRUE(m.enabled());
    EXPECT_TRUE(m.spans().empty());
    EXPECT_TRUE(m.counters().empty());
}

// ---- exporters -------------------------------------------------------------

TEST(MetricsExport, JsonEscape) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(MetricsExport, SpanCsvRoundTripIsLossless) {
    std::vector<MetricSpan> spans;
    MetricSpan plain;
    plain.name = "rc.post";
    plain.rank = 3;
    plain.step = 7;
    plain.t_begin = 0.125;
    plain.t_end = 0.25;
    plain.ops = 42.5;
    plain.bytes = 1024;
    plain.messages = 4;
    spans.push_back(plain);

    MetricSpan nasty;  // every delimiter the escaping must survive
    nasty.name = "add,phase;x=1%2\n";
    nasty.depth = 2;
    nasty.parent = 0;
    nasty.attrs = {{"strategy", "CutEdge-PS"},
                   {"note", "a,b;c=d%e"},
                   {"empty", ""}};
    spans.push_back(nasty);

    const std::string csv = spans_to_csv(spans);
    const auto back = spans_from_csv(csv);
    ASSERT_EQ(back.size(), spans.size());
    EXPECT_EQ(back[0], spans[0]);
    EXPECT_EQ(back[1], spans[1]);
}

TEST(MetricsExport, RegistryJsonContainsEverything) {
    MetricsRegistry m;
    m.enable();
    m.add(m.counter("sent", 1), 9);
    const double bounds[] = {8.0};
    m.observe(m.histogram("sizes", bounds), 3.0);
    const auto s = m.span_open("ia", 0, -1, 0.0);
    m.span_attr(s, "threads", "4");
    m.span_close(s, 0.5);

    const std::string json = metrics_to_json(m, 2);
    EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ia\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\":\"4\""), std::string::npos);
    EXPECT_NE(json.find("\"sent\""), std::string::npos);
    EXPECT_NE(json.find("\"sizes\""), std::string::npos);
}

TEST(MetricsExport, SummaryJsonReducesSpansPerName) {
    MetricsRegistry m;
    m.enable();
    m.add(m.counter("sent"), 9);
    const auto record = [&m](const char* name, double t_begin, double t_end) {
        MetricSpan span;
        span.name = name;
        span.t_begin = t_begin;
        span.t_end = t_end;
        m.record_span(std::move(span));
    };
    for (int i = 1; i <= 4; ++i) {
        record("publish", 1.0, 1.0 + i);
    }
    record("query", 0.0, 0.5);

    const std::string json = metrics_summary_to_json(m, 2);
    EXPECT_EQ(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"publish\",\"count\":4,\"p50\":2,"
                        "\"p99\":4,\"max\":4}"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"query\",\"count\":1,\"p50\":0.5,"
                        "\"p99\":0.5,\"max\":0.5}"),
              std::string::npos);
    EXPECT_NE(json.find("\"sent\""), std::string::npos);
}

// ---- engine integration ----------------------------------------------------

EngineConfig small_config() {
    EngineConfig config;
    config.num_ranks = 4;
    config.ia_threads = 2;
    return config;
}

TEST(Telemetry, EngineTimelineCarriesPhaseSpans) {
    Rng rng(11);
    auto g = barabasi_albert(120, 2, rng);
    EngineConfig config = small_config();
    config.enable_metrics = true;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();
    engine.run_rc_steps(2);
    GrowthConfig gc;
    gc.num_new = 6;
    Rng batch_rng(5);
    RoundRobinPS strategy;
    engine.apply_addition(grow_batch(engine.num_vertices(), gc, batch_rng),
                          strategy);
    engine.run_to_quiescence();

    const auto& spans = engine.metrics().spans();
    ASSERT_FALSE(spans.empty());
    const auto has = [&spans](std::string_view name) {
        for (const MetricSpan& s : spans) {
            if (s.name == name) {
                return true;
            }
        }
        return false;
    };
    EXPECT_TRUE(has("dd"));
    EXPECT_TRUE(has("ia"));
    EXPECT_TRUE(has("rc.post"));
    EXPECT_TRUE(has("rc.exchange"));
    EXPECT_TRUE(has("rc.ingest"));
    EXPECT_TRUE(has("rc.propagate"));
    EXPECT_TRUE(has("add"));
    EXPECT_EQ(engine.metrics().open_span_count(), 0u);

    // Span times live on the simulated clock and never run backwards.
    for (const MetricSpan& s : spans) {
        EXPECT_LE(s.t_begin, s.t_end) << s.name;
        EXPECT_LE(s.t_end, engine.sim_seconds() + 1e-9) << s.name;
    }

    const std::string json = telemetry_json(engine);
    EXPECT_NE(json.find("\"schema\": \"aa.timeline.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"per_rank\""), std::string::npos);
    EXPECT_NE(json.find("\"steps\""), std::string::npos);

    // The CSV exporter is the same span stream, losslessly.
    EXPECT_EQ(spans_from_csv(telemetry_csv(engine)), spans);
}

TEST(Telemetry, MetricsOffByDefaultRecordsNothing) {
    Rng rng(11);
    auto g = barabasi_albert(80, 2, rng);
    AnytimeEngine engine(std::move(g), small_config());
    engine.initialize();
    engine.run_to_quiescence();
    EXPECT_FALSE(engine.metrics().enabled());
    EXPECT_TRUE(engine.metrics().spans().empty());
    EXPECT_EQ(engine.metrics().spans().capacity(), 0u);
}

// ---- golden telemetry over every update path -------------------------------
//
// One fixed scenario through every engine entry point that opens a phase
// span or runs a per-rank phase: initialize, RoundRobin-PS, CutEdge-PS and
// Repartition-S (Scratch) additions, add_edges, a shrink batch with every
// kind of change (a weight decrease included), a shard move, a checkpoint
// save/load and a resume to quiescence, plus an Adaptive Repartition-S
// addition in a second engine. Every MetricSpan field (attrs, depth and
// parent included), the dynamic-update op totals, the simulated clocks and
// the final distance matrices are pinned as hexfloat / hash literals captured
// from the engine, so a change to how phases are attributed, nested or
// charged moves at least one of them.

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

std::uint64_t fnv1a_str(std::uint64_t h, std::string_view s) {
    for (const char c : s) {
        h = fnv1a(h, c);
    }
    return fnv1a(h, '\0');  // terminator: "ab"+"c" != "a"+"bc"
}

std::uint64_t hash_spans(std::uint64_t h, const MetricsRegistry& metrics) {
    for (const MetricSpan& s : metrics.spans()) {
        h = fnv1a_str(h, s.name);
        h = fnv1a(h, s.rank);
        h = fnv1a(h, s.step);
        h = fnv1a(h, s.depth);
        h = fnv1a(h, s.parent);
        h = fnv1a(h, s.t_begin);
        h = fnv1a(h, s.t_end);
        h = fnv1a(h, s.ops);
        h = fnv1a(h, s.bytes);
        h = fnv1a(h, s.messages);
        for (const auto& [key, value] : s.attrs) {
            h = fnv1a_str(h, key);
            h = fnv1a_str(h, value);
        }
        h = fnv1a(h, s.attrs.size());
    }
    return h;
}

std::uint64_t hash_matrix(std::uint64_t h, const AnytimeEngine& engine) {
    for (const std::vector<Weight>& row : engine.full_distance_matrix()) {
        for (const Weight d : row) {
            h = fnv1a(h, d);
        }
    }
    return h;
}

struct TelemetryGoldenRun {
    double dynamic_ops{0};          // the Scratch engine, before the save
    double adaptive_dynamic_ops{0};  // the Adaptive engine
    double sim_seconds{0};           // the restored engine at quiescence
    double adaptive_sim_seconds{0};
    std::uint64_t matrix_hash{0};  // restored, then Adaptive, row-major
    std::uint64_t spans_hash{0};   // Scratch, restored, then Adaptive
};

GrowthBatch golden_batch(const AnytimeEngine& engine, std::uint64_t seed) {
    GrowthConfig gc;
    gc.num_new = 5;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    gc.weights = WeightRange{1.0, 3.0};
    Rng rng(seed);
    return grow_batch(engine.num_vertices(), gc, rng);
}

TelemetryGoldenRun run_telemetry_golden(bool rc_async, BackendKind backend) {
    Rng rng(4242);
    const DynamicGraph g = barabasi_albert(60, 2, rng, WeightRange{1.0, 4.0});
    EngineConfig config;
    config.num_ranks = 4;
    config.seed = 0x601D;
    config.backend = backend;
    config.enable_metrics = true;
    config.rc_async = rc_async;

    TelemetryGoldenRun run;
    run.spans_hash = kFnvBasis;
    run.matrix_hash = kFnvBasis;
    std::stringstream blob;
    double uninterrupted_sim_seconds = 0;
    {
        AnytimeEngine engine(g, config);
        engine.initialize();
        engine.run_rc_steps(2);
        RoundRobinPS round_robin;
        engine.apply_addition(golden_batch(engine, 71), round_robin);
        engine.run_rc_steps(1);
        CutEdgePS cut_edge;
        engine.apply_addition(golden_batch(engine, 72), cut_edge);
        engine.run_rc_steps(1);
        RepartitionS repartition;
        engine.apply_addition(golden_batch(engine, 73), repartition);
        engine.run_rc_steps(2);

        // Two edges between established vertices, the first one twice.
        std::vector<Edge> added;
        for (VertexId u = 0; u < engine.num_vertices() && added.size() < 2;
             u += 7) {
            const VertexId v = engine.num_vertices() - 1 - u;
            if (u < v && !engine.graph().has_edge(u, v)) {
                added.push_back({u, v, 1.5});
            }
        }
        EXPECT_EQ(added.size(), 2u);
        added.push_back({added[0].v, added[0].u, 2.5});
        engine.add_edges(added);
        engine.run_rc_steps(1);

        const std::vector<Edge> edges = engine.graph().edges();
        ShrinkBatch shrink;
        shrink.deletions = {edges[3], edges[19]};
        shrink.vertices = {13};
        shrink.reweights = {
            Edge{edges[30].u, edges[30].v, edges[30].weight + 2.0},
            Edge{edges[41].u, edges[41].v, edges[41].weight * 0.5}};
        const ShrinkReport report = engine.apply_deletion(shrink);
        EXPECT_EQ(report.weight_increases, 1u);
        EXPECT_EQ(report.weight_decreases, 1u);
        EXPECT_GT(report.cascade_rounds, 1u);  // raises crossed a cut edge
        engine.run_rc_steps(1);

        const ShardOwnership& ownership = engine.shard_ownership();
        ShardId moving = kInvalidShard;
        for (ShardId s = 0; s < ownership.num_shards(); ++s) {
            if (ownership.rank_of(s) == 1 && !ownership.shard_vertices(s).empty()) {
                moving = s;
                break;
            }
        }
        EXPECT_NE(moving, kInvalidShard);
        const std::vector<ShardMove> moves{{moving, 1, 3}};
        engine.migrate_shards(moves);
        engine.run_rc_steps(1);

        engine.save_checkpoint(blob);
        run.dynamic_ops = engine.report().dynamic_ops;
        run.spans_hash = hash_spans(run.spans_hash, engine.metrics());
        EXPECT_EQ(engine.metrics().open_span_count(), 0u);
        // The independent oracle for the restore leg: the saver itself, run
        // on to quiescence without the interruption.
        engine.run_to_quiescence();
        uninterrupted_sim_seconds = engine.sim_seconds();
    }
    AnytimeEngine restored = AnytimeEngine::load_checkpoint(blob, config);
    restored.run_to_quiescence();
    EXPECT_EQ(restored.sim_seconds(), uninterrupted_sim_seconds)
        << std::hexfloat << restored.sim_seconds() << " vs " << uninterrupted_sim_seconds;
    run.sim_seconds = restored.sim_seconds();
    run.matrix_hash = hash_matrix(run.matrix_hash, restored);
    run.spans_hash = hash_spans(run.spans_hash, restored.metrics());

    config.repartition_mode = RepartitionMode::Adaptive;
    AnytimeEngine adaptive(g, config);
    adaptive.initialize();
    adaptive.run_rc_steps(2);
    RepartitionS repartition;
    adaptive.apply_addition(golden_batch(adaptive, 74), repartition);
    adaptive.run_to_quiescence();
    run.adaptive_dynamic_ops = adaptive.report().dynamic_ops;
    run.adaptive_sim_seconds = adaptive.sim_seconds();
    run.matrix_hash = hash_matrix(run.matrix_hash, adaptive);
    run.spans_hash = hash_spans(run.spans_hash, adaptive.metrics());
    return run;
}

void expect_telemetry_golden(const TelemetryGoldenRun& got,
                             const TelemetryGoldenRun& want) {
    EXPECT_EQ(got.dynamic_ops, want.dynamic_ops)
        << std::hexfloat << got.dynamic_ops;
    EXPECT_EQ(got.adaptive_dynamic_ops, want.adaptive_dynamic_ops)
        << std::hexfloat << got.adaptive_dynamic_ops;
    EXPECT_EQ(got.sim_seconds, want.sim_seconds)
        << std::hexfloat << got.sim_seconds;
    EXPECT_EQ(got.adaptive_sim_seconds, want.adaptive_sim_seconds)
        << std::hexfloat << got.adaptive_sim_seconds;
    EXPECT_EQ(got.matrix_hash, want.matrix_hash) << std::hex << got.matrix_hash;
    EXPECT_EQ(got.spans_hash, want.spans_hash) << std::hex << got.spans_hash;
}

// Both exchange modes converge to the same matrix and differ in the
// timeline; both backends must reproduce their mode's values exactly.
// The restore leg's sim_seconds and spans_hash were re-captured when the
// checkpoint became an exact restore (no resweep after the load); the
// restored clock is pinned independently against the uninterrupted saver.
constexpr TelemetryGoldenRun kSyncTelemetryGolden{
    0x1.3646p+16,          0x1.e58p+12,        0x1.5da8a9befa1ddp-6,
    0x1.a876dd2efb153p-8, 0x1547cfa22326651a, 0x56ddabbc479822ed};
constexpr TelemetryGoldenRun kAsyncTelemetryGolden{
    0x1.3646p+16,          0x1.e58p+12,        0x1.5d650f2cdf761p-6,
    0x1.a80525e52aefep-8, 0x1547cfa22326651a, 0x6c8f20b74575627f};

TEST(TelemetryGolden, EveryUpdatePathSyncSequential) {
    expect_telemetry_golden(run_telemetry_golden(false, BackendKind::Sequential),
                            kSyncTelemetryGolden);
}

TEST(TelemetryGolden, EveryUpdatePathSyncThreaded) {
    expect_telemetry_golden(run_telemetry_golden(false, BackendKind::Threaded),
                            kSyncTelemetryGolden);
}

TEST(TelemetryGolden, EveryUpdatePathAsyncSequential) {
    expect_telemetry_golden(run_telemetry_golden(true, BackendKind::Sequential),
                            kAsyncTelemetryGolden);
}

TEST(TelemetryGolden, EveryUpdatePathAsyncThreaded) {
    expect_telemetry_golden(run_telemetry_golden(true, BackendKind::Threaded),
                            kAsyncTelemetryGolden);
}

}  // namespace
}  // namespace aa
