// The anytime query-serving layer: versioned snapshot publication, point /
// batch / top-k queries, freshness policies, admission control, and the
// monotone-quality guarantee across successive snapshots. The *Concurrent*
// cases are the ThreadSanitizer targets (reader threads hammer the snapshot
// store while the driver thread runs the engine to quiescence).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "executors.hpp"
#include "core/closeness.hpp"
#include "core/edge_delete.hpp"
#include "core/engine.hpp"
#include "core/quality.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "refine/bounds.hpp"
#include "refine/demand.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/topk.hpp"
#include "shard/migration.hpp"

namespace aa {
namespace {

EngineConfig serve_config(std::uint32_t ranks) {
    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 1;
    config.seed = 77;
    return config;
}

/// Engine + attached service over a BA graph, initialized (so snapshot #1
/// exists) but not yet converged.
struct Fixture {
    AnytimeEngine engine;
    QueryService service;

    explicit Fixture(std::size_t n, std::uint32_t ranks, ServeConfig sc = {},
                     std::uint64_t seed = 3)
        : engine(
              [&] {
                  Rng rng(seed);
                  return barabasi_albert(n, 2, rng);
              }(),
              serve_config(ranks)),
          service((engine.initialize(), engine), sc) {}
};

TEST(Serve, SnapshotVersionsStrictlyIncrease) {
    Fixture f(80, 4);
    std::vector<std::uint64_t> versions;
    f.service.set_on_publish([&](const ResultSnapshot& s) {
        versions.push_back(s.version);
    });

    f.engine.run_rc_steps(2);
    GrowthConfig gc;
    gc.num_new = 8;
    Rng rng(9);
    const auto batch = grow_batch(f.engine.num_vertices(), gc, rng);
    RoundRobinPS strategy;
    f.engine.apply_addition(batch, strategy);
    f.engine.run_to_quiescence();
    f.service.publish();

    ASSERT_GE(versions.size(), 4u);  // 2 steps + add + >=1 converge step + manual
    for (std::size_t i = 1; i < versions.size(); ++i) {
        EXPECT_LT(versions[i - 1], versions[i]);
    }
    // The initial publication (version 1) predates the observer; the stream
    // continues right after it.
    EXPECT_EQ(versions.front(), 2u);
    EXPECT_EQ(f.service.snapshot()->version, versions.back());
    EXPECT_EQ(f.service.publications(), versions.back());
}

TEST(Serve, MidRcQueryMatchesMatrixClosenessBitIdentical) {
    Fixture f(90, 5);
    // At every publication boundary the engine is idle, so the snapshot and
    // the matrix-derived closeness describe the same state; the contract is
    // bit-identity, hence EXPECT_EQ on doubles.
    std::size_t checked = 0;
    f.service.set_on_publish([&](const ResultSnapshot& s) {
        const auto expected = closeness_from_matrix(
            f.engine.full_distance_matrix(), f.engine.config().closeness_variant);
        ASSERT_EQ(s.scores.size(), expected.closeness.size());
        for (std::size_t v = 0; v < expected.closeness.size(); ++v) {
            EXPECT_EQ(s.scores.closeness(v), expected.closeness[v]);
            EXPECT_EQ(s.scores.reachable(v), expected.reachable[v]);
        }
        ++checked;
    });

    // Step one at a time and query between steps, well before quiescence.
    for (int step = 0; step < 3 && f.engine.rc_step(); ++step) {
        const auto snapshot = f.service.snapshot();
        const auto expected = closeness_from_matrix(
            f.engine.full_distance_matrix(), f.engine.config().closeness_variant);
        for (VertexId v = 0; v < 10; ++v) {
            const auto r = f.service.point(v, FreshnessPolicy::ServeStale);
            ASSERT_EQ(r.meta.status, QueryStatus::Ok);
            EXPECT_EQ(r.meta.version, snapshot->version);
            EXPECT_EQ(r.closeness, expected.closeness[v]);
            EXPECT_EQ(r.reachable, expected.reachable[v]);
        }
    }
    EXPECT_GE(checked, 3u);
}

TEST(Serve, RawVariantFlowsThroughSnapshots) {
    // Same bit-identity when the engine is configured for the paper's raw
    // inverse-sum variant instead of the corrected default.
    Rng rng(4);
    auto g = barabasi_albert(70, 2, rng);
    EngineConfig config = serve_config(4);
    config.closeness_variant = ClosenessVariant::Raw;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();
    QueryService service(engine);
    engine.run_rc_steps(1);
    const auto snapshot = service.snapshot();
    const auto expected = closeness_from_matrix(engine.full_distance_matrix(),
                                                ClosenessVariant::Raw);
    for (std::size_t v = 0; v < expected.closeness.size(); ++v) {
        EXPECT_EQ(snapshot->scores.closeness(v), expected.closeness[v]);
    }
}

TEST(Serve, TopKEqualsFullSortOfSnapshot) {
    Fixture f(100, 4);
    const std::size_t k = 7;
    while (true) {
        const bool progressed = f.engine.rc_step();
        const auto snapshot = f.service.snapshot();
        const auto result = f.service.topk(k, FreshnessPolicy::ServeStale);
        ASSERT_EQ(result.meta.status, QueryStatus::Ok);
        ASSERT_EQ(result.meta.version, snapshot->version);

        // Reference: a full sort of the same snapshot's scores.
        const auto ranking = closeness_ranking(snapshot->scores.materialize());
        ASSERT_EQ(result.entries.size(), k);
        for (std::size_t i = 0; i < k; ++i) {
            EXPECT_EQ(result.entries[i].vertex, ranking[i]);
            EXPECT_EQ(result.entries[i].score,
                      snapshot->scores.closeness(ranking[i]));
        }
        if (!progressed) {
            break;
        }
    }
    // k beyond the maintained ranking falls back to full selection and must
    // agree with the same reference.
    const auto snapshot = f.service.snapshot();
    const auto big = f.service.topk(23, FreshnessPolicy::ServeStale);
    const auto ranking = closeness_ranking(snapshot->scores.materialize());
    ASSERT_EQ(big.entries.size(), 23u);
    for (std::size_t i = 0; i < big.entries.size(); ++i) {
        EXPECT_EQ(big.entries[i].vertex, ranking[i]);
    }
}

TEST(Serve, CowScoresBuildSharesUntouchedChunks) {
    // Pin the copy-on-write memory behaviour at the chunk level: a chunk is
    // shared with the previous snapshot iff no changed vertex lands in it and
    // its size is compatible; everything else is copied and patched.
    const std::size_t n = CowScores::kChunkSize * 2 + 10;
    std::vector<VertexId> all(n);
    std::vector<Weight> c1(n);
    std::vector<std::size_t> r1(n);
    for (std::size_t v = 0; v < n; ++v) {
        all[v] = static_cast<VertexId>(v);
        c1[v] = 0.5 * static_cast<Weight>(v);
        r1[v] = v;
    }
    const CowScores a = CowScores::patch(nullptr, n, all, c1, r1);
    ASSERT_EQ(a.num_chunks(), 3u);
    ASSERT_EQ(a.size(), n);
    EXPECT_EQ(a.materialize().closeness, c1);

    // One change in the middle chunk: chunks 0 and 2 share, chunk 1 copies.
    auto c2 = c1;
    const VertexId touched = static_cast<VertexId>(CowScores::kChunkSize + 3);
    c2[touched] = 99;
    const std::vector<VertexId> changed{touched};
    const std::vector<Weight> changed_closeness{99};
    const std::vector<std::size_t> changed_reachable{r1[touched]};
    const CowScores b =
        CowScores::patch(&a, n, changed, changed_closeness, changed_reachable);
    EXPECT_EQ(b.chunk(0), a.chunk(0));
    EXPECT_NE(b.chunk(1), a.chunk(1));
    EXPECT_EQ(b.chunk(2), a.chunk(2));

    // Accessors and materialize() agree with the plain planes.
    const ClosenessScores plain = b.materialize();
    EXPECT_EQ(plain.closeness, c2);
    EXPECT_EQ(plain.reachable, r1);
    EXPECT_EQ(b.closeness(touched), 99.0);
    EXPECT_EQ(b.reachable(touched), static_cast<std::size_t>(touched));

    // Growth: the tail chunk changes size, so it is never shared even though
    // the only changed vertex is the new one.
    auto c3 = c2;
    auto r3 = r1;
    c3.push_back(1);
    r3.push_back(2);
    const std::vector<VertexId> grew{static_cast<VertexId>(n)};
    const std::vector<Weight> grew_closeness{1};
    const std::vector<std::size_t> grew_reachable{2};
    const CowScores c =
        CowScores::patch(&b, n + 1, grew, grew_closeness, grew_reachable);
    EXPECT_EQ(c.chunk(0), b.chunk(0));
    EXPECT_EQ(c.chunk(1), b.chunk(1));
    EXPECT_NE(c.chunk(2), b.chunk(2));
    const ClosenessScores grown = c.materialize();
    EXPECT_EQ(grown.closeness, c3);
    EXPECT_EQ(grown.reachable, r3);

    // Shrink back with nothing changed: the tail chunk changes size again,
    // so it is copied from the prefix rather than shared.
    const CowScores d = CowScores::patch(&c, n, {}, {}, {});
    EXPECT_EQ(d.chunk(0), c.chunk(0));
    EXPECT_EQ(d.chunk(1), c.chunk(1));
    EXPECT_NE(d.chunk(2), c.chunk(2));
    EXPECT_EQ(d.materialize().closeness, c2);
}

TEST(Serve, CowQuiescentRepublicationSharesEveryChunk) {
    // An out-of-band publication of an unchanged engine must not copy the
    // score planes at all: every chunk of the new snapshot is the previous
    // snapshot's chunk. This is the memory contract that makes per-boundary
    // publication cheap once the engine settles.
    Fixture f(600, 4);  // 600 vertices -> 3 chunks of 256
    f.engine.run_to_quiescence();
    const auto before = f.service.snapshot();
    f.service.publish();
    const auto after = f.service.snapshot();
    ASSERT_NE(before, after);
    ASSERT_TRUE(after->changed.empty());
    ASSERT_EQ(before->scores.num_chunks(), after->scores.num_chunks());
    ASSERT_GE(after->scores.num_chunks(), 3u);
    for (std::size_t i = 0; i < after->scores.num_chunks(); ++i) {
        EXPECT_EQ(before->scores.chunk(i), after->scores.chunk(i))
            << "chunk " << i;
    }
}

TEST(Serve, TopKTracksHubShrink) {
    // Score *decreases* through the sharded planes: delete most of the
    // reigning hub's edges via the shrink path and keep the merged top-k
    // bit-identical to a full selection across the whole (non-monotone)
    // snapshot stream. The changed list must name the invalidated hub — that
    // is what makes its plane re-select and demote it.
    Rng rng(13);
    DynamicGraph g = barabasi_albert(100, 3, rng);
    const DynamicGraph host = g;
    AnytimeEngine engine(std::move(g), serve_config(4));
    engine.initialize();
    engine.run_to_quiescence();
    QueryService service(engine);

    const VertexId hub = service.topk(5).entries.front().vertex;
    bool hub_changed = false;
    service.set_on_publish([&](const ResultSnapshot& s) {
        const auto top = service.topk(5, FreshnessPolicy::ServeStale);
        ASSERT_EQ(top.meta.version, s.version);
        EXPECT_EQ(top.entries, topk_from_snapshot(s, 5))
            << "version " << s.version;
        hub_changed = hub_changed ||
                      std::find(s.changed.begin(), s.changed.end(), hub) !=
                          s.changed.end();
    });

    ShrinkBatch batch;
    for (const Neighbor& nb : host.neighbors(hub)) {
        batch.deletions.push_back({hub, nb.to, 0.0});
        if (batch.deletions.size() == host.neighbors(hub).size() - 1) {
            break;  // keep one edge: shrink the hub, don't isolate it
        }
    }
    engine.apply_deletion(batch);  // mid-settle publication
    ASSERT_TRUE(hub_changed) << "invalidated hub missing from the changed list";
    engine.run_to_quiescence();
    EXPECT_NE(service.topk(5).entries.front().vertex, hub);
}

TEST(Serve, FreshnessPoliciesWithSyncStepDriver) {
    Fixture f(80, 4);
    f.service.set_step_driver([&] { return f.engine.rc_step(); });

    // ServeStale: answers from the current snapshot, no engine progress.
    const auto v0 = f.service.snapshot()->version;
    const auto steps0 = f.engine.rc_steps_completed();
    const auto stale = f.service.point(3, FreshnessPolicy::ServeStale);
    EXPECT_EQ(stale.meta.status, QueryStatus::Ok);
    EXPECT_EQ(stale.meta.version, v0);
    EXPECT_EQ(f.engine.rc_steps_completed(), steps0);

    // WaitForNextStep: advances the engine and serves a strictly newer
    // snapshot.
    const auto next = f.service.point(3, FreshnessPolicy::WaitForNextStep);
    EXPECT_EQ(next.meta.status, QueryStatus::Ok);
    EXPECT_GT(next.meta.version, v0);
    EXPECT_GT(f.engine.rc_steps_completed(), steps0);

    // WaitForQuiescence: runs to convergence; the served values are exact.
    const auto exact = exact_closeness(f.engine.graph(),
                                       f.engine.config().closeness_variant);
    const auto settled = f.service.point(3, FreshnessPolicy::WaitForQuiescence);
    EXPECT_EQ(settled.meta.status, QueryStatus::Ok);
    EXPECT_TRUE(settled.meta.quiescent);
    EXPECT_TRUE(f.engine.quiescent());
    EXPECT_NEAR(settled.closeness, exact.closeness[3], 1e-9);

    // Quiescent engine, WaitForNextStep: the out-of-band publication still
    // yields one fresher (and quiescent) snapshot rather than hanging.
    const auto after = f.service.point(4, FreshnessPolicy::WaitForNextStep);
    EXPECT_EQ(after.meta.status, QueryStatus::Ok);
    EXPECT_GT(after.meta.version, settled.meta.version);
    EXPECT_TRUE(after.meta.quiescent);
}

TEST(Serve, AdmissionControlShedsWhenPendingFull) {
    ServeConfig sc;
    sc.max_pending = 0;  // no waiting capacity at all
    Fixture f(60, 4, sc);
    // No step driver and no concurrent publisher: a waiting policy must be
    // shed immediately instead of queueing.
    const auto r = f.service.point(1, FreshnessPolicy::WaitForNextStep);
    EXPECT_EQ(r.meta.status, QueryStatus::Shed);
    EXPECT_EQ(f.service.shed_count(), 1u);
    // ServeStale is never subject to admission control.
    const auto ok = f.service.point(1, FreshnessPolicy::ServeStale);
    EXPECT_EQ(ok.meta.status, QueryStatus::Ok);
}

TEST(Serve, BatchIsConsistentWithinOneSnapshot) {
    Fixture f(80, 4);
    f.engine.run_rc_steps(1);
    const std::vector<VertexId> vs{0, 5, 17, 42, 79};
    const auto result = f.service.batch(vs, FreshnessPolicy::ServeStale);
    ASSERT_EQ(result.meta.status, QueryStatus::Ok);
    ASSERT_EQ(result.closeness.size(), vs.size());
    const auto snapshot = f.service.snapshot();
    ASSERT_EQ(snapshot->version, result.meta.version);
    for (std::size_t i = 0; i < vs.size(); ++i) {
        EXPECT_EQ(result.closeness[i], snapshot->scores.closeness(vs[i]));
        EXPECT_EQ(result.reachable[i], snapshot->scores.reachable(vs[i]));
    }
}

TEST(Serve, MonotoneQualityAcrossSnapshots) {
    // The paper's anytime property, observed through the serving surface:
    // every published snapshot is at least as good as its predecessor.
    Rng rng(6);
    auto g = barabasi_albert(90, 2, rng);
    const auto exact = exact_apsp(g);
    AnytimeEngine engine(std::move(g), serve_config(6));
    engine.initialize();
    QueryService service(engine);

    std::vector<QualityMetrics> quality;
    std::vector<double> frac_unknown;
    service.set_on_publish([&](const ResultSnapshot& s) {
        quality.push_back(evaluate_quality(engine.full_distance_matrix(), exact));
        frac_unknown.push_back(s.frac_unknown);
    });
    service.publish();  // baseline right after IA
    engine.run_to_quiescence();

    ASSERT_GE(quality.size(), 2u);
    for (std::size_t i = 1; i < quality.size(); ++i) {
        EXPECT_TRUE(quality_monotone(quality[i - 1], quality[i])) << "snapshot " << i;
        EXPECT_LE(frac_unknown[i], frac_unknown[i - 1] + 1e-12) << "snapshot " << i;
    }
    EXPECT_NEAR(quality.back().frac_exact, 1.0, 1e-12);
    EXPECT_EQ(frac_unknown.back(), 0.0);
}

TEST(Serve, StalenessMetaTracksSupersededSnapshots) {
    Fixture f(60, 4);
    const auto held = f.service.snapshot();  // pin the current snapshot
    f.engine.run_rc_steps(2);
    // The held snapshot is now behind; a fresh query is not.
    EXPECT_GE(f.service.store().latest_version(), held->version + 2);
    const auto fresh = f.service.point(0, FreshnessPolicy::ServeStale);
    EXPECT_EQ(fresh.meta.staleness_versions, 0u);
    EXPECT_GE(fresh.meta.staleness_wall, 0.0);
}

// ---- concurrent cases (ThreadSanitizer targets) ---------------------------

TEST(Serve, ConcurrentReadersDuringConvergence) {
    Rng rng(8);
    auto g = barabasi_albert(140, 2, rng);
    AnytimeEngine engine(std::move(g), serve_config(4));
    engine.initialize();
    QueryService service(engine);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> served{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            // Reads route through per-shard planes, so version monotonicity
            // is promised per vertex (per shard), not across vertices: the
            // anchor pins one vertex per reader for the monotone check while
            // the roving queries exercise the rest of the surface.
            const VertexId anchor = static_cast<VertexId>(t);
            std::uint64_t last_version = 0;
            VertexId v = static_cast<VertexId>(t);
            while (!stop.load(std::memory_order_relaxed)) {
                const auto p = service.point(anchor, FreshnessPolicy::ServeStale);
                ASSERT_EQ(p.meta.status, QueryStatus::Ok);
                // Successive reads of the same vertex never go backwards.
                ASSERT_GE(p.meta.version, last_version);
                last_version = p.meta.version;
                const auto q = service.point(v % 140, FreshnessPolicy::ServeStale);
                ASSERT_EQ(q.meta.status, QueryStatus::Ok);
                const auto top = service.topk(5, FreshnessPolicy::ServeStale);
                ASSERT_EQ(top.meta.status, QueryStatus::Ok);
                ASSERT_EQ(top.entries.size(), 5u);
                const std::vector<VertexId> vs{v % 140, (v + 7) % 140};
                const auto b = service.batch(vs, FreshnessPolicy::ServeStale);
                ASSERT_EQ(b.meta.status, QueryStatus::Ok);
                served.fetch_add(1, std::memory_order_relaxed);
                v += 3;
            }
        });
    }

    // Driver: step, inject a batch mid-RC, converge — all while readers run.
    engine.run_rc_steps(2);
    GrowthConfig gc;
    gc.num_new = 12;
    Rng brng(13);
    const auto batch = grow_batch(engine.num_vertices(), gc, brng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();

    // The engine may converge before the reader threads have even started;
    // snapshots keep being served after quiescence, so hold the service open
    // until every reader has demonstrably done work.
    while (served.load(std::memory_order_relaxed) < 50) {
        std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& thread : readers) {
        thread.join();
    }
    EXPECT_GE(served.load(), 50u);
    EXPECT_TRUE(service.snapshot()->quiescent);
}

TEST(Serve, ConcurrentReadersWithThreadedBackend) {
    // Same workload as above, but the engine itself runs thread-per-core: the
    // snapshot readers coexist with the engine's rank executors (the
    // publication happens on the driver thread at phase boundaries, so the
    // two thread populations only meet through the snapshot store).
    Rng rng(8);
    auto g = barabasi_albert(140, 2, rng);
    EngineConfig config = serve_config(4);
    config.backend_threads = 0;
    AnytimeEngine engine(std::move(g), config);
    engine.initialize();
    QueryService service(engine);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> served{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            // Per-shard monotone reads: the version check anchors on one
            // fixed vertex per reader (see ConcurrentReadersDuringConvergence).
            const VertexId anchor = static_cast<VertexId>(t);
            std::uint64_t last_version = 0;
            VertexId v = static_cast<VertexId>(t);
            while (!stop.load(std::memory_order_relaxed)) {
                const auto p = service.point(anchor, FreshnessPolicy::ServeStale);
                ASSERT_EQ(p.meta.status, QueryStatus::Ok);
                ASSERT_GE(p.meta.version, last_version);
                last_version = p.meta.version;
                const auto q = service.point(v % 140, FreshnessPolicy::ServeStale);
                ASSERT_EQ(q.meta.status, QueryStatus::Ok);
                const auto top = service.topk(5, FreshnessPolicy::ServeStale);
                ASSERT_EQ(top.meta.status, QueryStatus::Ok);
                served.fetch_add(1, std::memory_order_relaxed);
                v += 3;
            }
        });
    }

    engine.run_rc_steps(2);
    GrowthConfig gc;
    gc.num_new = 12;
    Rng brng(13);
    const auto batch = grow_batch(engine.num_vertices(), gc, brng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();

    while (served.load(std::memory_order_relaxed) < 50) {
        std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& thread : readers) {
        thread.join();
    }
    EXPECT_TRUE(service.snapshot()->quiescent);
}

TEST(Serve, ConcurrentWaitForNextStepIsWokenByPublication) {
    Fixture f(70, 4);
    const auto before = f.service.snapshot()->version;
    std::atomic<bool> done{false};
    PointResult got;
    std::thread waiter([&] {
        got = f.service.point(2, FreshnessPolicy::WaitForNextStep);
        done.store(true, std::memory_order_release);
    });
    // WaitForNextStep is relative to the query's arrival, so the driver must
    // keep publishing until the waiter has been served — a single
    // publication could land before the query arrives.
    while (!done.load(std::memory_order_acquire)) {
        f.service.publish();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    waiter.join();
    EXPECT_EQ(got.meta.status, QueryStatus::Ok);
    EXPECT_GT(got.meta.version, before);
}

TEST(Serve, ConcurrentWaitForQuiescenceServesExactScores) {
    Rng rng(10);
    auto g = barabasi_albert(80, 2, rng);
    AnytimeEngine engine(std::move(g), serve_config(4));
    engine.initialize();
    QueryService service(engine);
    const auto exact = exact_closeness(engine.graph(),
                                       engine.config().closeness_variant);

    PointResult got;
    std::thread waiter([&] {
        got = service.point(1, FreshnessPolicy::WaitForQuiescence);
    });
    engine.run_to_quiescence();
    waiter.join();
    EXPECT_EQ(got.meta.status, QueryStatus::Ok);
    EXPECT_TRUE(got.meta.quiescent);
    EXPECT_NEAR(got.closeness, exact.closeness[1], 1e-9);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Checks every publication of a service against references that share no
/// code with the snapshot builder, captured with the engine idle inside the
/// publication observer:
///  * closeness_from_matrix over the engine's full_distance_matrix(): scores
///    and reachable counts bit for bit, and total_reachable / frac_unknown
///    derived from them;
///  * the changed list, recomputed by bit-diffing the published snapshot
///    against its published predecessor;
///  * the chunk-share rule: a chunk is the predecessor's exactly when no
///    changed vertex lands in it and it has the predecessor chunk's size;
///  * with bounds, row_closeness_interval over the same matrix rows.
/// It also tallies the counterfactual whole-snapshot chain, in which every
/// publication scans all n rows and ships both n-length planes plus its
/// changed list.
struct PublicationOracle {
    PublicationOracle(const AnytimeEngine& e, const QueryService& s,
                      bool bounds = false)
        : engine(e), service(s), with_bounds(bounds) {}

    const AnytimeEngine& engine;
    const QueryService& service;
    bool with_bounds;

    std::shared_ptr<const ResultSnapshot> previous;
    std::uint64_t publications{0};
    std::size_t changed_rows{0};
    std::size_t chunks_copied{0};
    std::size_t chunks_shared{0};
    std::size_t whole_rows{0};
    std::size_t whole_bytes{0};

    void check(const ResultSnapshot& got) {
        const std::shared_ptr<const ResultSnapshot> current = service.snapshot();
        ASSERT_EQ(current.get(), &got);
        const std::shared_ptr<const ResultSnapshot> held =
            std::exchange(previous, current);
        const ResultSnapshot* prev = held.get();
        ++publications;

        EXPECT_EQ(got.version, prev != nullptr ? prev->version + 1 : 1);
        EXPECT_EQ(got.rc_step, engine.rc_steps_completed());
        EXPECT_EQ(bits_of(got.sim_seconds), bits_of(engine.sim_seconds()));
        EXPECT_EQ(got.quiescent, engine.quiescent());

        const auto matrix = engine.full_distance_matrix();
        const ClosenessScores want =
            closeness_from_matrix(matrix, engine.config().closeness_variant);
        const std::size_t n = matrix.size();
        ASSERT_EQ(got.scores.size(), n);
        const std::size_t prev_n = prev != nullptr ? prev->scores.size() : 0;
        std::size_t total_reachable = 0;
        std::vector<VertexId> changed;
        for (std::size_t v = 0; v < n; ++v) {
            ASSERT_EQ(bits_of(got.scores.closeness(v)),
                      bits_of(want.closeness[v]))
                << "vertex " << v;
            ASSERT_EQ(got.scores.reachable(v), want.reachable[v])
                << "vertex " << v;
            total_reachable += want.reachable[v];
            if (v >= prev_n ||
                bits_of(want.closeness[v]) !=
                    bits_of(prev->scores.closeness(v)) ||
                want.reachable[v] != prev->scores.reachable(v)) {
                changed.push_back(static_cast<VertexId>(v));
            }
        }
        EXPECT_EQ(got.total_reachable, total_reachable);
        const double frac_unknown =
            n > 0 ? static_cast<double>(n * n - total_reachable) /
                        (static_cast<double>(n) * static_cast<double>(n))
                  : 0.0;
        EXPECT_EQ(bits_of(got.frac_unknown), bits_of(frac_unknown));
        EXPECT_EQ(got.changed, changed);
        changed_rows += changed.size();

        const std::size_t chunk = CowScores::kChunkSize;
        ASSERT_EQ(got.scores.num_chunks(), (n + chunk - 1) / chunk);
        for (std::size_t c = 0; c < got.scores.num_chunks(); ++c) {
            const std::size_t lo = c * chunk;
            const std::size_t hi = std::min(lo + chunk, n);
            const bool untouched = std::none_of(
                changed.begin(), changed.end(), [&](VertexId v) {
                    return v >= lo && v < hi;
                });
            const bool has_prev_chunk =
                prev != nullptr && c < prev->scores.num_chunks();
            const bool share = untouched && has_prev_chunk &&
                               prev->scores.chunk(c)->closeness.size() ==
                                   hi - lo;
            const bool shared = has_prev_chunk &&
                                got.scores.chunk(c) == prev->scores.chunk(c);
            EXPECT_EQ(shared, share) << "chunk " << c;
            ++(share ? chunks_shared : chunks_copied);
        }

        EXPECT_EQ(got.has_bounds, with_bounds);
        if (with_bounds) {
            const BoundsParams params = engine.bounds_params();
            ASSERT_EQ(got.bound_lo.size(), n);
            ASSERT_EQ(got.bound_hi.size(), n);
            ASSERT_EQ(got.bound_exact.size(), n);
            for (std::size_t v = 0; v < n; ++v) {
                const ClosenessInterval interval = row_closeness_interval(
                    matrix[v], static_cast<VertexId>(v), params);
                EXPECT_EQ(bits_of(got.bound_lo[v]), bits_of(interval.lo))
                    << "vertex " << v;
                EXPECT_EQ(bits_of(got.bound_hi[v]), bits_of(interval.hi))
                    << "vertex " << v;
                EXPECT_EQ(got.bound_exact[v], interval.exact ? 1 : 0)
                    << "vertex " << v;
            }
        } else {
            EXPECT_TRUE(got.bound_lo.empty());
            EXPECT_TRUE(got.bound_hi.empty());
            EXPECT_TRUE(got.bound_exact.empty());
        }

        whole_rows += n;
        whole_bytes += n * (sizeof(Weight) + sizeof(std::size_t)) +
                       changed.size() * sizeof(VertexId);
    }
};

TEST(Serve, DeltaVsFullLatticeBitIdentical) {
    // Every publication of the service — touched-row or every-row builds
    // into sharded read planes — against the independent references of
    // PublicationOracle, plus a merged top-k equal to a full selection of
    // the same snapshot, across ranks × executors × sync/async RC × bounds,
    // with a mid-RC addition, a deletion and a shard migration in flight.
    for (const std::uint32_t ranks : {2u, 4u, 8u}) {
        for (const Executors executors :
             {Executors::Sequential, Executors::Threaded}) {
            for (const bool rc_async : {false, true}) {
                for (const bool with_bounds : {false, true}) {
                    SCOPED_TRACE(std::string("ranks=") +
                                 std::to_string(ranks) + " executors=" +
                                 (executors == Executors::Threaded ? "thr"
                                                                     : "seq") +
                                 (rc_async ? " async" : " sync") +
                                 (with_bounds ? " bounds" : ""));
                    Rng rng(21);
                    EngineConfig config = serve_config(ranks);
                    config.backend_threads = executor_count(executors);
                    config.rc_async = rc_async;
                    AnytimeEngine engine(barabasi_albert(72, 2, rng), config);
                    engine.initialize();
                    ServeConfig sc;
                    sc.enable_bounds = with_bounds;
                    QueryService service(engine, sc);

                    PublicationOracle oracle(engine, service, with_bounds);
                    const auto check = [&](const ResultSnapshot& published) {
                        oracle.check(published);
                        const auto top =
                            service.topk(5, FreshnessPolicy::ServeStale);
                        ASSERT_EQ(top.meta.status, QueryStatus::Ok);
                        EXPECT_EQ(top.meta.version, published.version);
                        EXPECT_EQ(top.entries,
                                  topk_from_snapshot(published, 5));
                    };
                    check(*service.snapshot());
                    service.set_on_publish(check);

                    engine.run_rc_steps(2);
                    {  // mid-RC addition
                        GrowthConfig gc;
                        gc.num_new = 6;
                        Rng brng(31);
                        const auto batch =
                            grow_batch(engine.num_vertices(), gc, brng);
                        RoundRobinPS strategy;
                        engine.apply_addition(batch, strategy);
                    }
                    engine.run_rc_steps(1);
                    {  // deletion mid-settle
                        const auto& nbs = engine.graph().neighbors(0);
                        ASSERT_FALSE(nbs.empty());
                        ShrinkBatch batch;
                        batch.deletions.push_back({0, nbs.front().to, 0.0});
                        engine.apply_deletion(batch);
                    }
                    {  // migration in flight
                        const ShardOwnership& own = engine.shard_ownership();
                        const ShardId s = own.shard(0);
                        const RankId from = own.rank_of(s);
                        const RankId to = (from + 1) % ranks;
                        const std::vector<ShardMove> moves{{s, from, to}};
                        engine.migrate_shards(moves);
                    }
                    engine.run_to_quiescence();
                    // Quiescent republication: nothing changed, every chunk
                    // shared.
                    service.publish();
                    const PublicationStats stats =
                        service.publication_stats();
                    EXPECT_EQ(oracle.publications, service.publications());
                    EXPECT_EQ(stats.changed_rows, oracle.changed_rows);
                    if (with_bounds) {
                        // Bounds tighten on unchanged rows: every row, always.
                        EXPECT_EQ(stats.full_publications, stats.publications);
                    } else {
                        EXPECT_GT(stats.delta_publications, 0u);
                    }
                }
            }
        }
    }
}

TEST(Serve, PublicationStatsDeltaReduction) {
    // The service's publication stats against the oracle's independent
    // tallies, and its work against the counterfactual whole-snapshot chain
    // (n rows and both n-length planes per publication): fewer rows scanned
    // and fewer bytes shipped once convergence localizes change.
    Rng rng(23);
    AnytimeEngine engine(barabasi_albert(300, 2, rng), serve_config(4));
    engine.initialize();
    QueryService service(engine);

    PublicationOracle oracle(engine, service);
    oracle.check(*service.snapshot());
    service.set_on_publish(
        [&](const ResultSnapshot& published) { oracle.check(published); });
    engine.run_to_quiescence();
    service.publish();  // quiescent republication: nothing changed

    const PublicationStats a = service.publication_stats();
    EXPECT_EQ(a.publications, oracle.publications);
    EXPECT_GT(a.delta_publications, 0u);
    EXPECT_EQ(a.delta_publications + a.full_publications, a.publications);
    EXPECT_EQ(a.changed_rows, oracle.changed_rows);
    EXPECT_EQ(a.chunks_copied, oracle.chunks_copied);
    EXPECT_EQ(a.chunks_shared, oracle.chunks_shared);
    EXPECT_EQ(a.published_bytes,
              a.changed_rows * (sizeof(Weight) + sizeof(std::size_t) +
                                sizeof(VertexId)));
    EXPECT_LT(a.rows_scanned, oracle.whole_rows);
    EXPECT_LT(a.published_bytes, oracle.whole_bytes);
}

TEST(Serve, StructuralChangeCostsOneFullPublication) {
    // Every row is re-summed exactly once per vertex-count change: the
    // publication right after it scans every row, and the next RC-step
    // publication is back to the touched rows. Construction counts as the
    // first such change.
    Fixture f(120, 4);
    PublicationStats stats = f.service.publication_stats();
    ASSERT_EQ(stats.publications, 1u);
    ASSERT_EQ(stats.full_publications, 1u);

    ASSERT_EQ(f.engine.run_rc_steps(1), 1u);
    stats = f.service.publication_stats();
    ASSERT_EQ(stats.publications, 2u);
    EXPECT_EQ(stats.full_publications, 1u) << "first RC-step publication";
    EXPECT_EQ(stats.delta_publications, 1u);

    RoundRobinPS strategy;
    Rng rng(41);
    for (std::uint64_t change = 1; change <= 3; ++change) {
        SCOPED_TRACE("change " + std::to_string(change));
        GrowthConfig gc;
        gc.num_new = 5;
        const auto batch = grow_batch(f.engine.num_vertices(), gc, rng);
        const PublicationStats before = f.service.publication_stats();
        f.engine.apply_addition(batch, strategy);
        stats = f.service.publication_stats();
        ASSERT_EQ(stats.publications, before.publications + 1);
        EXPECT_EQ(stats.full_publications, before.full_publications + 1);
        EXPECT_EQ(stats.full_publications, 1 + change);

        ASSERT_EQ(f.engine.run_rc_steps(1), 1u);
        const PublicationStats after = f.service.publication_stats();
        ASSERT_EQ(after.publications, stats.publications + 1);
        EXPECT_EQ(after.full_publications, stats.full_publications)
            << "RC-step publication after the change";
        EXPECT_EQ(after.delta_publications, stats.delta_publications + 1);
    }
}

TEST(Serve, TenantAdmissionIsolation) {
    Fixture f(60, 4);
    TenantConfig starved;
    starved.max_pending = 0;
    const TenantId alpha = f.service.register_tenant("alpha", starved);
    TenantConfig roomy;
    roomy.max_pending = 4;
    const TenantId beta = f.service.register_tenant("beta", roomy);

    // Alpha has no waiting capacity: its waiting query sheds at once...
    const auto shed = f.service.point(1, FreshnessPolicy::WaitForNextStep, alpha);
    EXPECT_EQ(shed.meta.status, QueryStatus::Shed);
    // ...without consuming beta's capacity or blocking beta's waiter.
    std::atomic<bool> done{false};
    PointResult got;
    std::thread waiter([&] {
        got = f.service.point(2, FreshnessPolicy::WaitForNextStep, beta);
        done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) {
        f.service.publish();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    waiter.join();
    EXPECT_EQ(got.meta.status, QueryStatus::Ok);

    const auto ca = f.service.tenant_counters(alpha);
    EXPECT_EQ(ca.shed, 1u);
    EXPECT_EQ(ca.served, 0u);
    const auto cb = f.service.tenant_counters(beta);
    EXPECT_EQ(cb.shed, 0u);
    EXPECT_EQ(cb.served, 1u);
    // The default tenant was never involved.
    EXPECT_EQ(f.service.tenant_counters(kDefaultTenant).shed, 0u);
    EXPECT_EQ(f.service.num_tenants(), 3u);
}

TEST(Serve, TenantFreshnessSloAccounting) {
    Fixture f(60, 4);
    TenantConfig strict;
    strict.freshness_slo = 0.0;  // every served response is late
    const TenantId tight = f.service.register_tenant("tight", strict);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto r = f.service.point(1, FreshnessPolicy::ServeStale, tight);
    ASSERT_EQ(r.meta.status, QueryStatus::Ok);
    EXPECT_GT(r.meta.staleness_wall, 0.0);
    const auto c = f.service.tenant_counters(tight);
    EXPECT_EQ(c.served, 1u);
    EXPECT_EQ(c.slo_misses, 1u);
    // The default tenant has no SLO: no misses however stale the answer.
    const auto ok = f.service.point(1, FreshnessPolicy::ServeStale);
    ASSERT_EQ(ok.meta.status, QueryStatus::Ok);
    EXPECT_EQ(f.service.tenant_counters(kDefaultTenant).slo_misses, 0u);
}

TEST(Serve, TenantDemandWeightScalesHeat) {
    Fixture f(60, 4);
    TenantConfig heavy;
    heavy.demand_weight = 5.0;
    const TenantId whale = f.service.register_tenant("whale", heavy);
    const double before = f.engine.demand().heat(7);
    const auto base = f.service.point(7, FreshnessPolicy::ServeStale);
    ASSERT_EQ(base.meta.status, QueryStatus::Ok);
    const double after_default = f.engine.demand().heat(7);
    const auto weighted = f.service.point(7, FreshnessPolicy::ServeStale, whale);
    ASSERT_EQ(weighted.meta.status, QueryStatus::Ok);
    const double after_whale = f.engine.demand().heat(7);
    EXPECT_NEAR(after_default - before, 1.0, 1e-6);
    EXPECT_NEAR(after_whale - after_default, 5.0, 1e-6);
}

TEST(Serve, ConcurrentCloseUnblocksWaiters) {
    Fixture f(60, 4);
    PointResult got;
    std::thread waiter([&] {
        got = f.service.point(0, FreshnessPolicy::WaitForQuiescence);
    });
    // Never converge; shut the service down instead.
    f.service.close();
    waiter.join();
    EXPECT_EQ(got.meta.status, QueryStatus::Unavailable);
    // ServeStale keeps working after close.
    const auto stale = f.service.point(0, FreshnessPolicy::ServeStale);
    EXPECT_EQ(stale.meta.status, QueryStatus::Ok);
}

TEST(Serve, ConcurrentShardedReadersServeConsistentMerges) {
    // Readers hammer the sharded read paths — per-shard point planes and the
    // merged top-k — while the driver steps, grows and converges the engine.
    // Every merged top-k must be a strictly ranked prefix from one snapshot,
    // and per-vertex versions must never go backwards.
    Rng rng(17);
    auto g = barabasi_albert(160, 2, rng);
    AnytimeEngine engine(std::move(g), serve_config(8));
    engine.initialize();
    QueryService service(engine);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> served{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            const VertexId anchor = static_cast<VertexId>(t * 11);
            std::uint64_t last_version = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const auto p = service.point(anchor, FreshnessPolicy::ServeStale);
                ASSERT_EQ(p.meta.status, QueryStatus::Ok);
                ASSERT_GE(p.meta.version, last_version);
                last_version = p.meta.version;
                const auto top = service.topk(6, FreshnessPolicy::ServeStale);
                ASSERT_EQ(top.meta.status, QueryStatus::Ok);
                ASSERT_EQ(top.entries.size(), 6u);
                for (std::size_t i = 1; i < top.entries.size(); ++i) {
                    // Strict ranking order implies no duplicates and no
                    // cross-snapshot mixing in the merged result.
                    ASSERT_TRUE(topk_outranks(top.entries[i - 1],
                                              top.entries[i]));
                }
                served.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    engine.run_rc_steps(3);
    GrowthConfig gc;
    gc.num_new = 16;
    Rng brng(19);
    const auto batch = grow_batch(engine.num_vertices(), gc, brng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();

    while (served.load(std::memory_order_relaxed) < 80) {
        std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& thread : readers) {
        thread.join();
    }
    EXPECT_TRUE(service.snapshot()->quiescent);
}

TEST(Serve, ConcurrentTenantSheddingKeepsOtherTenantsServed) {
    // A tenant flooding waiting queries far beyond its own budget gets shed;
    // a well-behaved tenant's waiters are all served meanwhile — per-tenant
    // admission keeps the blast radius per tenant, even under contention.
    Fixture f(70, 4);
    TenantConfig tiny;
    tiny.max_pending = 1;
    const TenantId noisy = f.service.register_tenant("noisy", tiny);
    TenantConfig roomy;
    roomy.max_pending = 64;
    const TenantId quiet = f.service.register_tenant("quiet", roomy);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> flood_exited{0};
    std::vector<std::thread> flood;
    for (int t = 0; t < 4; ++t) {
        flood.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const auto r =
                    f.service.point(1, FreshnessPolicy::WaitForNextStep, noisy);
                // While the service is open, a flood query is either served
                // or shed — never erroneously unavailable.
                ASSERT_NE(r.meta.status, QueryStatus::Unavailable);
            }
            flood_exited.fetch_add(1, std::memory_order_relaxed);
        });
    }

    std::atomic<std::size_t> quiet_served{0};
    std::thread quiet_reader([&] {
        for (int i = 0; i < 20; ++i) {
            const auto r =
                f.service.point(2, FreshnessPolicy::WaitForNextStep, quiet);
            ASSERT_EQ(r.meta.status, QueryStatus::Ok);
            quiet_served.fetch_add(1, std::memory_order_relaxed);
        }
    });

    while (quiet_served.load(std::memory_order_relaxed) < 20) {
        f.service.publish();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_relaxed);
    // Parked flood waiters need one more publication each to wake and exit.
    while (flood_exited.load(std::memory_order_relaxed) < 4) {
        f.service.publish();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& thread : flood) {
        thread.join();
    }
    quiet_reader.join();

    EXPECT_EQ(quiet_served.load(), 20u);
    EXPECT_EQ(f.service.tenant_counters(quiet).shed, 0u);
    // Four flooders against a budget of one: shedding must have happened.
    EXPECT_GT(f.service.tenant_counters(noisy).shed, 0u);
}

}  // namespace
}  // namespace aa
