// Checkpoint / restore: the anytime property turned into persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "core/baseline.hpp"
#include "core/closeness.hpp"
#include "core/engine.hpp"
#include "core/rc.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"

namespace aa {
namespace {

EngineConfig small_config(std::uint32_t ranks) {
    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 1;
    config.seed = 55;
    return config;
}

std::span<const std::byte> as_bytes(const std::string& s) {
    return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

TEST(Crc32c, StandardCheckVector) {
    EXPECT_EQ(crc32c(as_bytes("123456789")), 0xE3069283u);
    EXPECT_EQ(crc32c_portable(as_bytes("123456789")), 0xE3069283u);
    EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShotOnEveryPath) {
    std::string data;
    for (int i = 0; i < 1000; ++i) {
        data.push_back(static_cast<char>(i * 37 + 11));
    }
    const std::uint32_t whole = crc32c_portable(as_bytes(data));
    EXPECT_EQ(crc32c(as_bytes(data)), whole);
    for (const std::size_t split : {0, 1, 7, 8, 9, 500, 999, 1000}) {
        const std::string a = data.substr(0, split);
        const std::string b = data.substr(split);
        EXPECT_EQ(crc32c(as_bytes(b), crc32c(as_bytes(a))), whole) << split;
        EXPECT_EQ(crc32c_portable(as_bytes(b), crc32c_portable(as_bytes(a))), whole)
            << split;
    }
}

std::string save(const AnytimeEngine& engine) {
    std::stringstream blob;
    engine.save_checkpoint(blob);
    return blob.str();
}

AnytimeEngine load(const std::string& bytes, const EngineConfig& config) {
    std::stringstream blob(bytes);
    return AnytimeEngine::load_checkpoint(blob, config);
}

/// load() must throw a CheckpointError whose message contains `needle`.
void expect_rejected(const std::string& bytes, const EngineConfig& config,
                     const std::string& needle) {
    try {
        (void)load(bytes, config);
        ADD_FAILURE() << "checkpoint loaded; expected a rejection naming '" << needle
                      << "'";
    } catch (const CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message: " << e.what();
    }
}

TEST(Checkpoint, RoundTripAtQuiescence) {
    Rng rng(1);
    const auto g = barabasi_albert(60, 2, rng);
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_to_quiescence();
    ASSERT_TRUE(engine.quiescent());

    auto restored = load(save(engine), small_config(4));
    EXPECT_EQ(restored.num_vertices(), 60u);
    // Exact restore: a quiescent save loads quiescent, owes no RC step, and
    // keeps the saver's counters and clock.
    EXPECT_TRUE(restored.quiescent());
    EXPECT_EQ(restored.rc_steps_completed(), engine.rc_steps_completed());
    EXPECT_EQ(restored.sim_seconds(), engine.sim_seconds());
    EXPECT_FALSE(restored.rc_step());
    EXPECT_EQ(restored.rc_steps_completed(), engine.rc_steps_completed());
    EXPECT_EQ(restored.sim_seconds(), engine.sim_seconds());
    EXPECT_EQ(restored.full_distance_matrix(), engine.full_distance_matrix());

    const auto exact = exact_apsp(g);
    const auto final_matrix = restored.full_distance_matrix();
    for (std::size_t v = 0; v < 60; ++v) {
        for (std::size_t t = 0; t < 60; ++t) {
            if (exact[v][t] < kInfinity) {
                ASSERT_NEAR(final_matrix[v][t], exact[v][t], 1e-9);
            }
        }
    }
}

TEST(Checkpoint, ResumeMidConvergence) {
    // Interrupt after one RC step, checkpoint, restore, finish: the resumed
    // run is the uninterrupted run, bit for bit.
    Rng rng(2);
    const auto g = erdos_renyi_gnm(50, 140, rng, WeightRange{1.0, 3.0});
    AnytimeEngine engine(g, small_config(3));
    engine.initialize();
    engine.run_rc_steps(1);

    auto restored = load(save(engine), small_config(3));
    restored.run_to_quiescence();
    engine.run_to_quiescence();
    EXPECT_EQ(restored.full_distance_matrix(), engine.full_distance_matrix());
    EXPECT_EQ(restored.sim_seconds(), engine.sim_seconds());
    EXPECT_EQ(restored.rc_steps_completed(), engine.rc_steps_completed());

    const auto exact = exact_apsp(g);
    const auto matrix = restored.full_distance_matrix();
    for (std::size_t v = 0; v < 50; ++v) {
        for (std::size_t t = 0; t < 50; ++t) {
            if (exact[v][t] < kInfinity) {
                ASSERT_NEAR(matrix[v][t], exact[v][t], 1e-9);
            } else {
                ASSERT_GE(matrix[v][t], kInfinity);
            }
        }
    }
}

TEST(Checkpoint, RestoredEngineAcceptsDynamicUpdates) {
    Rng rng(3);
    const auto g = barabasi_albert(50, 2, rng);
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_to_quiescence();

    auto restored = load(save(engine), small_config(4));

    GrowthConfig gc;
    gc.num_new = 10;
    Rng brng(4);
    const auto batch = grow_batch(50, gc, brng);
    RoundRobinPS strategy;
    restored.apply_addition(batch, strategy);
    restored.run_to_quiescence();

    const auto grown = apply_batch(g, batch);
    const auto exact = exact_apsp(grown);
    const auto matrix = restored.full_distance_matrix();
    for (std::size_t v = 0; v < exact.size(); ++v) {
        for (std::size_t t = 0; t < exact.size(); ++t) {
            if (exact[v][t] < kInfinity) {
                ASSERT_NEAR(matrix[v][t], exact[v][t], 1e-9);
            }
        }
    }
}

// ---- exact resume --------------------------------------------------------
//
// One script of engine updates with three save points. At each, the engine
// is saved and restored; the restored engine and the uninterrupted one then
// both run to quiescence and must agree bit for bit: distances, the clock,
// the step count, and every resumed step's ops and traffic. Both then absorb
// the same further updates and must still agree.

enum class SavePoint { MidRc, AfterAddition, AfterDeletion };

/// Deliver a boundary block for `e.u`'s row to the owner of `e.v` outside the
/// RC loop, so it sits in that rank's inbox (`deliver`) or the sender's
/// outbox until the next step picks it up.
void inject_boundary_block(AnytimeEngine& engine, bool deliver) {
    for (const Edge& e : engine.graph().edges()) {
        const RankId from = engine.shard_ownership().owner(e.u);
        const RankId to = engine.shard_ownership().owner(e.v);
        if (from == to) {
            continue;
        }
        Serializer out;
        encode_row_block(out, e.u, engine.distance_row(e.u));
        engine.cluster().send(from, to, MessageTag::BoundaryDvUpdate, out.take());
        if (deliver) {
            engine.cluster().exchange();
        }
        return;
    }
    FAIL() << "no cut edge to inject a boundary block over";
}

AnytimeEngine drive_to(SavePoint point, const EngineConfig& config) {
    Rng rng(21);
    AnytimeEngine engine(barabasi_albert(60, 2, rng, WeightRange{1.0, 4.0}), config);
    engine.initialize();
    engine.run_rc_steps(2);
    if (point == SavePoint::MidRc) {
        return engine;
    }
    GrowthConfig gc;
    gc.num_new = 6;
    gc.communities = 2;
    gc.weights = WeightRange{1.0, 4.0};
    Rng batch_rng(22);
    RoundRobinPS strategy;
    engine.apply_addition(grow_batch(engine.num_vertices(), gc, batch_rng), strategy);
    // An undelivered inbox: the next step ingests it ahead of its own traffic.
    inject_boundary_block(engine, true);
    if (point == SavePoint::AfterAddition) {
        return engine;
    }
    engine.rc_step();
    const std::vector<Edge> edges = engine.graph().edges();
    ShrinkBatch shrink;
    shrink.deletions = {edges[2], edges[17]};
    shrink.reweights = {Edge{edges[25].u, edges[25].v, edges[25].weight + 2.0}};
    engine.apply_deletion(shrink);
    // A posted, not yet exchanged message.
    inject_boundary_block(engine, false);
    return engine;
}

void expect_exact_resume(SavePoint point, BackendKind backend, bool async) {
    EngineConfig config = small_config(4);
    config.backend = backend;
    config.rc_async = async;
    AnytimeEngine engine = drive_to(point, config);
    ASSERT_FALSE(engine.quiescent());
    AnytimeEngine restored = load(save(engine), config);
    EXPECT_EQ(restored.sim_seconds(), engine.sim_seconds());
    EXPECT_EQ(restored.wavefront_steps(), engine.wavefront_steps());

    const std::size_t steps_before = engine.step_history().size();
    engine.run_to_quiescence();
    restored.run_to_quiescence();
    EXPECT_EQ(restored.full_distance_matrix(), engine.full_distance_matrix());
    EXPECT_EQ(restored.sim_seconds(), engine.sim_seconds())
        << std::hexfloat << restored.sim_seconds() << " vs " << engine.sim_seconds();
    EXPECT_EQ(restored.rc_steps_completed(), engine.rc_steps_completed());
    const auto& resumed = restored.step_history();
    ASSERT_EQ(resumed.size(), engine.step_history().size() - steps_before);
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        const RcStepStats& want = engine.step_history()[steps_before + i];
        EXPECT_EQ(resumed[i].step, want.step);
        EXPECT_EQ(resumed[i].ops, want.ops) << "step " << want.step;
        EXPECT_EQ(resumed[i].messages, want.messages) << "step " << want.step;
        EXPECT_EQ(resumed[i].bytes, want.bytes) << "step " << want.step;
        EXPECT_EQ(resumed[i].sim_seconds_after, want.sim_seconds_after)
            << "step " << want.step;
    }

    // Later structural updates see the same state too: Repartition-S draws
    // from the engine RNG and walks the graph's adjacency order, and a
    // vertex deletion walks that order as well.
    for (AnytimeEngine* e : {&engine, &restored}) {
        GrowthConfig gc;
        gc.num_new = 5;
        gc.weights = WeightRange{1.0, 4.0};
        Rng batch_rng(23);
        RepartitionS repartition;
        e->apply_addition(grow_batch(e->num_vertices(), gc, batch_rng), repartition);
        ShrinkBatch shrink;
        shrink.vertices = {4};
        e->apply_deletion(shrink);
        e->run_to_quiescence();
    }
    EXPECT_EQ(restored.full_distance_matrix(), engine.full_distance_matrix());
    EXPECT_EQ(restored.sim_seconds(), engine.sim_seconds())
        << std::hexfloat << restored.sim_seconds() << " vs " << engine.sim_seconds();
    EXPECT_EQ(restored.owners(), engine.owners());
}

void expect_exact_resume_everywhere(SavePoint point) {
    for (const BackendKind backend : {BackendKind::Sequential, BackendKind::Threaded}) {
        for (const bool async : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << (backend == BackendKind::Threaded ? "threaded" : "sequential")
                         << (async ? " async" : " sync"));
            expect_exact_resume(point, backend, async);
        }
    }
}

TEST(Checkpoint, ExactResumeMidRc) { expect_exact_resume_everywhere(SavePoint::MidRc); }

TEST(Checkpoint, ExactResumeAfterAddition) {
    expect_exact_resume_everywhere(SavePoint::AfterAddition);
}

TEST(Checkpoint, ExactResumeAfterDeletion) {
    expect_exact_resume_everywhere(SavePoint::AfterDeletion);
}

// ---- in-flight mail ---------------------------------------------------------
//
// A checkpoint carries in-flight boundary blocks, so a restored engine can
// hold mail: here one block delivered to rank 0's inbox and one posted
// toward it. quiescent() must see either kind, and every call that
// exchanges or receives must land the mail first — ingest it, never drop it,
// never parse it as its own message — and stay exact at quiescence.

/// Send `u`'s current row to rank 0 as a boundary block over a cut edge
/// {u, v} with v on rank 0; `deliver` exchanges it into rank 0's inbox.
void mail_block_to_rank0(AnytimeEngine& engine, bool deliver) {
    for (const Edge& e : engine.graph().edges()) {
        for (const auto& [u, v] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
            const RankId from = engine.shard_ownership().owner(u);
            if (from == 0 || engine.shard_ownership().owner(v) != 0) {
                continue;
            }
            Serializer out;
            encode_row_block(out, u, engine.distance_row(u));
            engine.cluster().send(from, 0, MessageTag::BoundaryDvUpdate, out.take());
            if (deliver) {
                engine.cluster().exchange();
            }
            return;
        }
    }
    FAIL() << "no cut edge into rank 0";
}

/// A converged engine, saved with a delivered and a posted block, restored.
AnytimeEngine restored_with_mail(const DynamicGraph& g, const EngineConfig& config) {
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();
    mail_block_to_rank0(engine, true);
    EXPECT_FALSE(engine.quiescent()) << "a delivered block is still in flight";
    mail_block_to_rank0(engine, false);
    AnytimeEngine restored = load(save(engine), config);
    EXPECT_FALSE(restored.quiescent());
    return restored;
}

/// Run `call` on a restored engine holding mail, in both exchange modes;
/// `call` returns the graph the engine must then hold exactly.
template <class Call>
void expect_mail_lands(Call&& call) {
    for (const bool async : {false, true}) {
        SCOPED_TRACE(async ? "async" : "sync");
        EngineConfig config = small_config(4);
        config.rc_async = async;
        Rng rng(31);
        const DynamicGraph g = barabasi_albert(50, 2, rng, WeightRange{1.0, 4.0});
        AnytimeEngine engine = restored_with_mail(g, config);
        const DynamicGraph expected = call(engine, g);
        EXPECT_FALSE(engine.cluster().has_pending_messages());
        EXPECT_FALSE(engine.cluster().mailboxes().has_unreceived());
        engine.run_to_quiescence();
        EXPECT_TRUE(engine.quiescent());
        const auto exact = exact_apsp(expected);
        const auto matrix = engine.full_distance_matrix();
        ASSERT_EQ(matrix.size(), exact.size());
        for (std::size_t v = 0; v < exact.size(); ++v) {
            for (std::size_t t = 0; t < exact.size(); ++t) {
                if (exact[v][t] < kInfinity) {
                    ASSERT_NEAR(matrix[v][t], exact[v][t], 1e-9) << v << "," << t;
                } else {
                    ASSERT_GE(matrix[v][t], kInfinity) << v << "," << t;
                }
            }
        }
    }
}

TEST(Checkpoint, InFlightMailAddEdges) {
    expect_mail_lands([](AnytimeEngine& engine, const DynamicGraph& g) {
        DynamicGraph expected = g;
        std::vector<Edge> added;
        for (VertexId u = 0; u < g.num_vertices() && added.size() < 3; u += 5) {
            const VertexId v = static_cast<VertexId>(g.num_vertices() - 1 - u);
            if (u < v && !g.has_edge(u, v)) {
                added.push_back({u, v, 1.5});
                expected.add_edge(u, v, 1.5);
            }
        }
        engine.add_edges(added);
        return expected;
    });
}

TEST(Checkpoint, InFlightMailVertexAdditions) {
    RoundRobinPS round_robin;
    CutEdgePS cut_edge;
    RepartitionS repartition;
    for (VertexAdditionStrategy* strategy :
         std::initializer_list<VertexAdditionStrategy*>{&round_robin, &cut_edge,
                                                        &repartition}) {
        SCOPED_TRACE(std::string(strategy->name()));
        expect_mail_lands([&](AnytimeEngine& engine, const DynamicGraph& g) {
            GrowthConfig gc;
            gc.num_new = 5;
            gc.weights = WeightRange{1.0, 4.0};
            Rng batch_rng(32);
            const GrowthBatch batch = grow_batch(g.num_vertices(), gc, batch_rng);
            engine.apply_addition(batch, *strategy);
            return apply_batch(g, batch);
        });
    }
}

TEST(Checkpoint, InFlightMailDeletionAndWeightChanges) {
    expect_mail_lands([](AnytimeEngine& engine, const DynamicGraph& g) {
        DynamicGraph expected = g;
        const std::vector<Edge> edges = g.edges();
        ShrinkBatch shrink;
        shrink.deletions = {edges[4], edges[21]};
        shrink.reweights = {Edge{edges[30].u, edges[30].v, edges[30].weight + 2.0}};
        for (const Edge& e : shrink.deletions) {
            expected.remove_edge(e.u, e.v);
        }
        expected.set_edge_weight(edges[30].u, edges[30].v, edges[30].weight + 2.0);
        engine.apply_deletion(shrink);
        // A decrease rides the edge broadcast after the cascade.
        EXPECT_TRUE(engine.decrease_edge_weight(edges[9].u, edges[9].v, 0.5));
        expected.set_edge_weight(edges[9].u, edges[9].v, 0.5);
        return expected;
    });
}

TEST(Checkpoint, InFlightMailShardMigration) {
    expect_mail_lands([](AnytimeEngine& engine, const DynamicGraph& g) {
        const ShardOwnership& ownership = engine.shard_ownership();
        for (ShardId s = 0; s < ownership.num_shards(); ++s) {
            if (ownership.rank_of(s) == 1 && !ownership.shard_vertices(s).empty()) {
                const std::vector<ShardMove> moves{{s, 1, 3}};
                engine.migrate_shards(moves);
                break;
            }
        }
        return g;
    });
}

TEST(Checkpoint, InFlightMailClosenessAndQuery) {
    expect_mail_lands([](AnytimeEngine& engine, const DynamicGraph& g) {
        const ClosenessScores distributed = engine.compute_closeness_distributed();
        const ClosenessScores observer = engine.closeness();
        EXPECT_EQ(distributed.closeness, observer.closeness);
        EXPECT_EQ(distributed.reachable, observer.reachable);
        return g;
    });
    expect_mail_lands([](AnytimeEngine& engine, const DynamicGraph& g) {
        VertexId u = 0;
        while (engine.shard_ownership().owner(u) == 0) {
            ++u;  // a remote owner: the query is a priced round trip
        }
        const Weight d = engine.query_distance(u, 0);
        EXPECT_EQ(d, engine.distance_row(u)[0]);
        return g;
    });
}

// ---- rejection ------------------------------------------------------------

TEST(Checkpoint, RejectsGarbage) {
    expect_rejected("definitely not a checkpoint", small_config(2), "bad magic");
    expect_rejected("short", small_config(2), "truncated");
    expect_rejected("", small_config(2), "truncated");
}

TEST(Checkpoint, RejectsRankMismatch) {
    Rng rng(5);
    const auto g = barabasi_albert(30, 2, rng);
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    expect_rejected(save(engine), small_config(8), "rank count");
}

template <typename T>
T peek(const std::string& bytes, std::size_t offset) {
    T value;
    std::memcpy(&value, bytes.data() + offset, sizeof(T));
    return value;
}

template <typename T>
void poke(std::string& bytes, std::size_t offset, T value) {
    std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

/// One checkpoint section: its first byte and the offset of its CRC32C.
struct Section {
    std::size_t begin{0};
    std::size_t crc_at{0};
};

/// Recompute a section's CRC32C after poking a value into it, so the load
/// reaches the semantic validator instead of stopping at the checksum.
void reseal(std::string& bytes, const Section& section) {
    const std::string body = bytes.substr(section.begin, section.crc_at - section.begin);
    poke<std::uint32_t>(bytes, section.crc_at, crc32c(as_bytes(body)));
}

/// A saved checkpoint of a small engine with every section located by
/// walking the v3 layout (see src/core/checkpoint.cpp): header, graph,
/// shards, layout, rows, marks, state, mail.
struct SavedCheckpoint {
    std::string bytes;
    std::size_t n{0};
    Section header, graph, shards, layout, rows, marks, state, mail;
};

SavedCheckpoint locate_sections(std::string bytes, std::size_t ranks) {
    SavedCheckpoint saved;
    saved.bytes = std::move(bytes);
    const std::string& b = saved.bytes;
    std::size_t at = 0;
    const auto close = [&](Section& s) {
        s.crc_at = at;
        at += sizeof(std::uint32_t);
    };
    const auto skip_adjacency = [&] {
        at += 8 + peek<std::uint64_t>(b, at) * (sizeof(VertexId) + sizeof(Weight));
    };
    saved.header.begin = at;
    at += 8 + 3 * 4 + 1;
    close(saved.header);

    saved.graph.begin = at;
    saved.n = peek<std::uint64_t>(b, at);
    at += 8;
    for (std::size_t v = 0; v < saved.n; ++v) {
        skip_adjacency();
    }
    close(saved.graph);

    saved.shards.begin = at;
    at += 8 + peek<std::uint64_t>(b, at) * sizeof(ShardId);
    at += 8 + peek<std::uint64_t>(b, at) * sizeof(RankId);
    close(saved.shards);

    saved.layout.begin = at;
    for (std::size_t r = 0; r < ranks; ++r) {
        const auto rows = peek<std::uint64_t>(b, at);
        at += 8;
        for (std::uint64_t i = 0; i < rows; ++i) {
            at += sizeof(VertexId);
            skip_adjacency();
        }
    }
    close(saved.layout);

    saved.rows.begin = at;
    at += saved.n * saved.n * sizeof(Weight);
    close(saved.rows);

    saved.marks.begin = at;
    for (std::size_t i = 0; i < 2 * saved.n; ++i) {
        at += 8 + peek<std::uint64_t>(b, at) * sizeof(VertexId);
    }
    close(saved.marks);

    saved.state.begin = at;
    at += 8 + 8 + 4 * 8 + ranks * sizeof(double);
    close(saved.state);

    saved.mail.begin = at;
    const auto messages = peek<std::uint64_t>(b, at);
    at += 8;
    for (std::uint64_t i = 0; i < messages; ++i) {
        at += 1 + 2 * 4;
        at += 8 + peek<std::uint64_t>(b, at);
    }
    close(saved.mail);
    EXPECT_EQ(at, b.size()) << "the section walk disagrees with the v3 layout";
    return saved;
}

/// A small engine saved at quiescence (mid_rc = false) or after one RC step
/// with one boundary message left in an outbox (mid_rc = true).
SavedCheckpoint save_small(std::uint32_t ranks, bool mid_rc = false) {
    Rng rng(8);
    const auto g = barabasi_albert(30, 2, rng);
    AnytimeEngine engine(g, small_config(ranks));
    engine.initialize();
    if (mid_rc) {
        engine.run_rc_steps(1);
        inject_boundary_block(engine, false);
    } else {
        engine.run_to_quiescence();
    }
    return locate_sections(save(engine), ranks);
}

TEST(Checkpoint, RejectsConfigFingerprintMismatch) {
    Rng rng(5);
    const auto g = barabasi_albert(30, 2, rng);
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    SavedCheckpoint saved = locate_sections(save(engine), 4);

    EngineConfig shards = small_config(4);
    shards.shards_per_rank = 3;
    expect_rejected(saved.bytes, shards, "shards_per_rank");
    EngineConfig variant = small_config(4);
    variant.closeness_variant = ClosenessVariant::Raw;
    expect_rejected(saved.bytes, variant, "closeness variant");
}

TEST(Checkpoint, RejectsRetiredV2) {
    // v2 carried a wire-format byte and a tag and entry count per in-flight
    // message; a file claiming it must not load, even with a valid CRC.
    SavedCheckpoint saved = save_small(4, true);
    const std::size_t version_at = saved.header.begin + 8;  // after the magic
    ASSERT_EQ(peek<std::uint32_t>(saved.bytes, version_at), 3u);
    poke<std::uint32_t>(saved.bytes, version_at, 2);
    reseal(saved.bytes, saved.header);
    expect_rejected(saved.bytes, small_config(4), "unsupported format version 2");
}

TEST(Checkpoint, RejectsShardMapRankOutOfRange) {
    // A shard-map entry names the rank whose state owns the shard's rows;
    // one past P would index rank state out of bounds.
    SavedCheckpoint saved = save_small(4);
    const std::size_t first_entry =
        saved.shards.begin + 8 + saved.n * sizeof(ShardId) + 8;
    ASSERT_LT(peek<RankId>(saved.bytes, first_entry), 4u);
    poke<RankId>(saved.bytes, first_entry, 1000);
    reseal(saved.bytes, saved.shards);
    expect_rejected(saved.bytes, small_config(4), "unknown rank");
}

TEST(Checkpoint, RejectsNegativeDistance) {
    // Relaxation never raises a value, so a negative distance would survive
    // every later RC step and skew closeness silently.
    SavedCheckpoint saved = save_small(4);
    std::size_t entry = saved.rows.begin;
    while (!(peek<Weight>(saved.bytes, entry) > 0)) {  // first off-diagonal entry
        entry += sizeof(Weight);
    }
    poke<Weight>(saved.bytes, entry, -5.0);
    reseal(saved.bytes, saved.rows);
    expect_rejected(saved.bytes, small_config(4), "negative or NaN distance");
}

TEST(Checkpoint, RejectsInfiniteEdgeWeight) {
    // An inf-weight edge would load silently: edge_weight() reports
    // kInfinity for "no edge", so it could never be deleted, and it makes
    // every bounds interval's upper end infinite.
    SavedCheckpoint saved = save_small(4);
    // Vertex 0's first neighbour: after n and vertex 0's degree.
    const std::size_t weight_at = saved.graph.begin + 8 + 8 + sizeof(VertexId);
    ASSERT_GT(peek<Weight>(saved.bytes, weight_at), 0.0);
    poke<Weight>(saved.bytes, weight_at, kInfinity);
    reseal(saved.bytes, saved.graph);
    expect_rejected(saved.bytes, small_config(4), "finite and positive");
}

TEST(Checkpoint, RejectsMalformedGraph) {
    const SavedCheckpoint saved = save_small(4);
    const std::size_t degree_at = saved.graph.begin + 8;
    ASSERT_GE(peek<std::uint64_t>(saved.bytes, degree_at), 2u);
    const std::size_t first = degree_at + 8;  // vertex 0's first neighbour id
    const std::size_t second = first + sizeof(VertexId) + sizeof(Weight);
    const auto corrupt = [&](auto mutate, const std::string& needle) {
        std::string bytes = saved.bytes;
        mutate(bytes);
        reseal(bytes, saved.graph);
        expect_rejected(bytes, small_config(4), needle);
    };
    corrupt([&](std::string& b) { poke<VertexId>(b, first, 1000); }, "endpoint >= n");
    corrupt([&](std::string& b) { poke<VertexId>(b, first, 0); }, "self-loop");
    corrupt([&](std::string& b) { poke<VertexId>(b, second, peek<VertexId>(b, first)); },
            "duplicate edge");
    corrupt([&](std::string& b) {
        poke<Weight>(b, first + sizeof(VertexId), peek<Weight>(b, first + 4) + 0.5);
    },
            "not listed identically");
}

TEST(Checkpoint, RejectsDirtyColumnOutOfRange) {
    SavedCheckpoint saved = save_small(4, true);
    // The first row with a pending prop or send column.
    std::size_t at = saved.marks.begin;
    while (peek<std::uint64_t>(saved.bytes, at) == 0) {
        at += 8;
        ASSERT_LT(at, saved.marks.crc_at) << "no pending marks to corrupt";
    }
    poke<VertexId>(saved.bytes, at + 8, static_cast<VertexId>(saved.n + 5));
    reseal(saved.bytes, saved.marks);
    expect_rejected(saved.bytes, small_config(4), "pending marks");
}

TEST(Checkpoint, LoadsPendingMarksInAnyOrder) {
    // The saver writes each pending-column list ascending; the loader
    // accepts any order. Reverse every list: the file must load, save back
    // to the original bytes, and resume exactly as the original does.
    SavedCheckpoint saved = save_small(4, true);
    const std::string original = saved.bytes;
    std::size_t reversed = 0;
    for (std::size_t at = saved.marks.begin; at < saved.marks.crc_at;) {
        const auto k = static_cast<std::size_t>(peek<std::uint64_t>(saved.bytes, at));
        at += 8;
        if (k > 1) {
            std::vector<VertexId> cols(k);
            std::memcpy(cols.data(), saved.bytes.data() + at, k * sizeof(VertexId));
            std::reverse(cols.begin(), cols.end());
            std::memcpy(saved.bytes.data() + at, cols.data(), k * sizeof(VertexId));
            ++reversed;
        }
        at += k * sizeof(VertexId);
    }
    ASSERT_GT(reversed, 0u) << "no pending list long enough to reorder";
    reseal(saved.bytes, saved.marks);
    ASSERT_NE(saved.bytes, original);

    AnytimeEngine reordered = load(saved.bytes, small_config(4));
    EXPECT_EQ(save(reordered), original);
    AnytimeEngine reference = load(original, small_config(4));
    reordered.run_to_quiescence();
    reference.run_to_quiescence();
    EXPECT_EQ(reordered.full_distance_matrix(), reference.full_distance_matrix());
    EXPECT_EQ(reordered.sim_seconds(), reference.sim_seconds());
    EXPECT_EQ(reordered.rc_steps_completed(), reference.rc_steps_completed());
}

TEST(Checkpoint, RejectsMessageRankOutOfRange) {
    SavedCheckpoint saved = save_small(4, true);
    ASSERT_EQ(peek<std::uint64_t>(saved.bytes, saved.mail.begin), 1u);
    poke<RankId>(saved.bytes, saved.mail.begin + 8 + 1, 9);  // the sender
    reseal(saved.bytes, saved.mail);
    expect_rejected(saved.bytes, small_config(4), "unknown rank");
}

TEST(Checkpoint, RejectsMalformedMessagePayload) {
    // The payload is what the next RC step's ingest kernel decodes, so it is
    // validated like any other input: here its block names a vertex >= n.
    SavedCheckpoint saved = save_small(4, true);
    const std::size_t payload_at = saved.mail.begin + 8 + 1 + 2 * 4 + 8;
    poke<VertexId>(saved.bytes, payload_at, 1000000);
    reseal(saved.bytes, saved.mail);
    expect_rejected(saved.bytes, small_config(4), "boundary block vertex out of range");
}

TEST(Checkpoint, RejectsChecksumMismatchAndTrailingBytes) {
    SavedCheckpoint saved = save_small(4);
    std::string flipped = saved.bytes;
    std::size_t entry = saved.rows.begin;
    while (!(peek<Weight>(flipped, entry) > 0 &&
             peek<Weight>(flipped, entry) < kInfinity)) {
        entry += sizeof(Weight);
    }
    flipped[entry] ^= 0x01;  // the lowest mantissa bit: a valid distance still
    expect_rejected(flipped, small_config(4), "section 'rows' fails its CRC32C check");
    expect_rejected(saved.bytes + '\0', small_config(4), "trailing bytes");
}

// ---- corruption sweep -------------------------------------------------------
//
// Every single-byte corruption and every truncation of a real checkpoint
// (mid-RC, so the marks and mail sections are populated) must end in a
// CheckpointError: no crash, no other exception, no silent load.

TEST(CheckpointCorruption, EveryFlippedByteIsRejected) {
    const SavedCheckpoint saved = save_small(4, true);
    ASSERT_GT(saved.mail.crc_at - saved.mail.begin, 8u);
    std::vector<std::size_t> accepted;
    std::vector<std::size_t> wrong_error;
    for (std::size_t i = 0; i < saved.bytes.size(); ++i) {
        std::string bytes = saved.bytes;
        bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
        try {
            (void)load(bytes, small_config(4));
            accepted.push_back(i);
        } catch (const CheckpointError&) {
        } catch (...) {
            wrong_error.push_back(i);
        }
    }
    EXPECT_TRUE(accepted.empty()) << accepted.size() << " flips loaded, first at byte "
                                  << accepted.front();
    EXPECT_TRUE(wrong_error.empty()) << wrong_error.size()
                                     << " flips threw another exception, first at byte "
                                     << wrong_error.front();
}

TEST(CheckpointCorruption, EveryTruncationIsRejected) {
    const SavedCheckpoint saved = save_small(4, true);
    std::vector<std::size_t> accepted;
    std::vector<std::size_t> wrong_error;
    for (std::size_t length = 0; length < saved.bytes.size(); ++length) {
        try {
            (void)load(saved.bytes.substr(0, length), small_config(4));
            accepted.push_back(length);
        } catch (const CheckpointError&) {
        } catch (...) {
            wrong_error.push_back(length);
        }
    }
    EXPECT_TRUE(accepted.empty()) << accepted.size() << " truncations loaded, first at "
                                  << accepted.front();
    EXPECT_TRUE(wrong_error.empty()) << wrong_error.size()
                                     << " truncations threw another exception, first at "
                                     << wrong_error.front();
    // The intact checkpoint itself loads.
    EXPECT_NO_THROW((void)load(saved.bytes, small_config(4)));
}

TEST(StepHistory, RecordsEveryStep) {
    Rng rng(6);
    const auto g = barabasi_albert(70, 2, rng);
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    EXPECT_TRUE(engine.step_history().empty());
    const std::size_t steps = engine.run_to_quiescence();
    const auto& history = engine.step_history();
    ASSERT_EQ(history.size(), steps);
    double last_time = 0;
    for (std::size_t i = 0; i < history.size(); ++i) {
        EXPECT_EQ(history[i].step, i + 1);
        EXPECT_GE(history[i].sim_seconds_after, last_time);
        last_time = history[i].sim_seconds_after;
        EXPECT_GT(history[i].ops, 0.0);
    }
    // The first step ships the IA results: it must carry traffic.
    EXPECT_GT(history[0].messages, 0u);
    EXPECT_GT(history[0].bytes, 0u);
    EXPECT_GT(history[0].exchange_seconds, 0.0);
}

TEST(DistributedCloseness, MatchesObserverAndChargesTime) {
    Rng rng(7);
    const auto g = barabasi_albert(80, 2, rng);
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_to_quiescence();

    const auto observer = engine.closeness();
    const double before = engine.sim_seconds();
    const auto distributed = engine.compute_closeness_distributed();
    EXPECT_GT(engine.sim_seconds(), before);  // it costs something

    ASSERT_EQ(distributed.closeness.size(), observer.closeness.size());
    for (std::size_t v = 0; v < observer.closeness.size(); ++v) {
        EXPECT_NEAR(distributed.closeness[v], observer.closeness[v], 1e-12);
        EXPECT_EQ(distributed.reachable[v], observer.reachable[v]);
    }
}

}  // namespace
}  // namespace aa
