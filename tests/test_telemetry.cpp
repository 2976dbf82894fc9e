// The observability layer: MetricsRegistry semantics (disabled-mode cost
// discipline, span nesting, instruments), the span CSV/JSON exporters, and
// the engine-level aa.timeline.v1 block.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace aa
