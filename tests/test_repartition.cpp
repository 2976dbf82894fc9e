// Repartition-S specifics: row migration, ownership rebuild, partial-result
// reuse, and interaction with in-progress analysis.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>

#include "core/baseline.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"

namespace aa {
namespace {

EngineConfig config_with(std::uint32_t ranks) {
    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 1;
    config.seed = 31;
    return config;
}

GrowthBatch make_batch(const DynamicGraph& host, std::size_t count,
                       std::uint64_t seed) {
    GrowthConfig gc;
    gc.num_new = count;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    Rng rng(seed);
    return grow_batch(host.num_vertices(), gc, rng);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Distances and closeness bit-identical to a from-scratch engine (same
/// config) on the final graph.
void expect_matches_fresh(const AnytimeEngine& engine, const DynamicGraph& final_graph,
                          const EngineConfig& config) {
    AnytimeEngine fresh(final_graph, config);
    fresh.initialize();
    fresh.run_to_quiescence();
    const auto got = engine.full_distance_matrix();
    const auto want = fresh.full_distance_matrix();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
        for (std::size_t t = 0; t < want.size(); ++t) {
            ASSERT_EQ(bits(got[v][t]), bits(want[v][t]))
                << "d(" << v << "," << t << ") = " << got[v][t] << " want " << want[v][t];
        }
    }
    const ClosenessScores got_scores = engine.closeness();
    const ClosenessScores want_scores = fresh.closeness();
    ASSERT_EQ(got_scores.closeness.size(), want_scores.closeness.size());
    for (std::size_t v = 0; v < want_scores.closeness.size(); ++v) {
        EXPECT_EQ(bits(got_scores.closeness[v]), bits(want_scores.closeness[v]))
            << "closeness(" << v << ")";
        EXPECT_EQ(got_scores.reachable[v], want_scores.reachable[v]) << "reachable(" << v << ")";
    }
}

/// Pending prop / send column counts of one row.
struct PendingMarks {
    std::uint64_t prop{0};
    std::uint64_t send{0};
};

/// Every vertex's pending marks, read from a checkpoint's layout and marks
/// sections (layout table in ARCHITECTURE.md, "Checkpoints").
std::vector<PendingMarks> pending_marks(const AnytimeEngine& engine) {
    std::stringstream blob;
    engine.save_checkpoint(blob);
    const std::string b = blob.str();
    std::size_t at = 0;
    const auto read = [&]<typename T>(T) {
        T value;
        std::memcpy(&value, b.data() + at, sizeof(T));
        at += sizeof(T);
        return value;
    };
    const auto u64 = [&] { return read(std::uint64_t{}); };
    constexpr std::size_t kCrc = sizeof(std::uint32_t);
    constexpr std::size_t kHalfEdge = sizeof(VertexId) + sizeof(Weight);
    at += 8 + 3 * 4 + 1 + kCrc;  // header
    const std::uint64_t n = u64();
    for (std::uint64_t v = 0; v < n; ++v) {
        const std::uint64_t degree = u64();
        at += degree * kHalfEdge;
    }
    at += kCrc;
    const std::uint64_t shard_of = u64();
    at += shard_of * sizeof(ShardId);
    const std::uint64_t shards = u64();
    at += shards * sizeof(RankId) + kCrc;
    std::vector<VertexId> layout;  // vertices in the saved row order
    for (std::size_t r = 0; r < engine.num_ranks(); ++r) {
        const std::uint64_t rows = u64();
        for (std::uint64_t i = 0; i < rows; ++i) {
            layout.push_back(read(VertexId{}));
            const std::uint64_t degree = u64();
            at += degree * kHalfEdge;
        }
    }
    at += kCrc + n * n * sizeof(Weight) + kCrc;  // layout seal, rows
    std::vector<PendingMarks> marks(n);
    for (const VertexId v : layout) {
        marks[v].prop = u64();
        at += marks[v].prop * sizeof(VertexId);
        marks[v].send = u64();
        at += marks[v].send * sizeof(VertexId);
    }
    return marks;
}

TEST(Repartition, OwnershipIsRebuiltConsistently) {
    Rng rng(1);
    const auto host = barabasi_albert(60, 2, rng);
    AnytimeEngine engine(host, config_with(4));
    engine.initialize();
    engine.run_to_quiescence();

    const auto batch = make_batch(host, 20, 7);
    engine.repartition_add(batch);
    const auto& owners = engine.owners();
    ASSERT_EQ(owners.size(), 80u);
    std::vector<std::size_t> counts(4, 0);
    for (const RankId r : owners) {
        ASSERT_LT(r, 4u);
        ++counts[r];
    }
    for (const std::size_t c : counts) {
        EXPECT_GT(c, 10u);  // balanced multilevel repartition
    }
}

TEST(Repartition, MigrationSendsBytes) {
    Rng rng(2);
    const auto host = barabasi_albert(80, 2, rng);
    AnytimeEngine engine(host, config_with(4));
    engine.initialize();
    engine.run_to_quiescence();
    const auto messages_before = engine.cluster().stats().total_messages;

    const auto batch = make_batch(host, 30, 9);
    engine.repartition_add(batch);
    // Row migration produces messages even before RC resumes.
    EXPECT_GT(engine.cluster().stats().total_messages, messages_before);
}

TEST(Repartition, ReusesPartialResults) {
    // After a converged run, repartitioning must preserve already-exact
    // distances among old vertices (they are upper bounds that were tight).
    Rng rng(3);
    const auto host = barabasi_albert(50, 2, rng);
    AnytimeEngine engine(host, config_with(3));
    engine.initialize();
    engine.run_to_quiescence();
    const auto exact_host = exact_apsp(host);

    const auto batch = make_batch(host, 15, 11);
    engine.repartition_add(batch);
    // Immediately after the structural change (before RC convergence), old
    // pair distances are still at most their host-graph values.
    const auto matrix = engine.full_distance_matrix();
    for (VertexId u = 0; u < 50; ++u) {
        for (VertexId t = 0; t < 50; ++t) {
            if (exact_host[u][t] < kInfinity) {
                EXPECT_LE(matrix[u][t], exact_host[u][t] + 1e-9);
            }
        }
    }
}

TEST(Repartition, ConvergesFromPartialState) {
    Rng rng(4);
    const auto host = barabasi_albert(70, 2, rng);
    AnytimeEngine engine(host, config_with(4));
    engine.initialize();
    engine.run_rc_steps(1);  // deliberately unconverged

    const auto batch = make_batch(host, 25, 13);
    RepartitionS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();

    const auto grown = apply_batch(host, batch);
    const auto exact = exact_apsp(grown);
    const auto matrix = engine.full_distance_matrix();
    for (std::size_t v = 0; v < exact.size(); ++v) {
        for (std::size_t t = 0; t < exact.size(); ++t) {
            if (exact[v][t] < kInfinity) {
                ASSERT_NEAR(matrix[v][t], exact[v][t], 1e-9);
            }
        }
    }
}

TEST(Repartition, BackToBackRepartitions) {
    Rng rng(5);
    const auto host = barabasi_albert(50, 2, rng);
    AnytimeEngine engine(host, config_with(3));
    engine.initialize();
    engine.run_to_quiescence();

    DynamicGraph expected = host;
    RepartitionS strategy;
    for (int i = 0; i < 2; ++i) {
        const auto batch = make_batch(expected, 12, 50 + i);
        engine.apply_addition(batch, strategy);
        expected = apply_batch(expected, batch);
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

TEST(Repartition, CutEdgesNotWorseThanRoundRobinForBigBatches) {
    // Repartitioning the whole grown graph should yield a cut no worse than
    // bolting a large batch on via round-robin.
    Rng rng(6);
    const auto host = barabasi_albert(100, 2, rng);
    const auto batch = make_batch(host, 80, 15);

    AnytimeEngine rr_engine(host, config_with(4));
    rr_engine.initialize();
    rr_engine.run_to_quiescence();
    RoundRobinPS rr;
    rr_engine.apply_addition(batch, rr);

    AnytimeEngine rp_engine(host, config_with(4));
    rp_engine.initialize();
    rp_engine.run_to_quiescence();
    RepartitionS rp;
    rp_engine.apply_addition(batch, rp);

    EXPECT_LT(rp_engine.current_cut_edges(), rr_engine.current_cut_edges());
}

TEST(Repartition, RemarksOnlyWhatTheMoveInvalidates) {
    // A repartition without growth on a converged engine: every row is exact,
    // so what stays marked after the call is the move's own marks. A kept row
    // whose co-located neighbours are the same before and after owes nobody
    // anything — even when a neighbour moved between two other ranks, since
    // that neighbour's row carries every contribution the kept row sent.
    for (const RepartitionMode mode : {RepartitionMode::Scratch, RepartitionMode::Adaptive}) {
        Rng rng(7);
        const auto host = barabasi_albert(120, 2, rng);
        EngineConfig config = config_with(4);
        config.repartition_mode = mode;
        AnytimeEngine engine(host, config);
        engine.initialize();
        engine.run_to_quiescence();
        const std::vector<RankId> before = engine.owners();

        GrowthBatch no_growth;
        no_growth.base_id = static_cast<VertexId>(host.num_vertices());
        engine.repartition_add(no_growth);
        const std::vector<RankId> after = engine.owners();
        const std::vector<PendingMarks> marks = pending_marks(engine);

        std::size_t moved = 0;
        std::size_t witnesses = 0;  // kept rows the move left alone although
                                    // a neighbour moved and they are boundary
        for (VertexId x = 0; x < host.num_vertices(); ++x) {
            if (before[x] != after[x]) {
                ++moved;
                continue;
            }
            bool colocation_kept = true;
            bool neighbour_moved = false;
            bool boundary = false;
            for (const Neighbor& nb : host.neighbors(x)) {
                colocation_kept &= (before[nb.to] == before[x]) == (after[nb.to] == after[x]);
                neighbour_moved |= before[nb.to] != after[nb.to];
                boundary |= after[nb.to] != after[x];
            }
            if (!colocation_kept) {
                continue;
            }
            EXPECT_EQ(marks[x].prop, 0u) << "vertex " << x;
            EXPECT_EQ(marks[x].send, 0u) << "vertex " << x;
            witnesses += neighbour_moved && boundary ? 1 : 0;
        }
        if (mode == RepartitionMode::Scratch) {
            EXPECT_GT(moved, 0u);
            EXPECT_GT(witnesses, 0u);
        }
        engine.run_to_quiescence();
        expect_matches_fresh(engine, host, config);
    }
}

TEST(Repartition, CheckpointAfterMoveResumesExactly) {
    // The row move appends arrivals and swap-removes departures, so right
    // after Repartition-S the rank layouts are in no ascending order; the
    // checkpoint must carry that order and resume the saved schedule.
    Rng rng(12);
    const auto host = barabasi_albert(80, 2, rng);
    const EngineConfig config = config_with(4);
    AnytimeEngine engine(host, config);
    engine.initialize();
    engine.run_rc_steps(1);
    RepartitionS strategy;
    engine.apply_addition(make_batch(host, 10, 19), strategy);

    const std::vector<RankId> owners = engine.owners();
    bool descending_step = false;
    VertexId prev = kInvalidVertex;
    engine.visit_rows([&](VertexId v, std::span<const Weight>) {
        // visit_rows walks each rank's rows in local order, rank by rank.
        descending_step |= prev != kInvalidVertex && owners[prev] == owners[v] && v < prev;
        prev = v;
    });
    EXPECT_TRUE(descending_step) << "the move left every layout ascending";

    std::stringstream blob;
    engine.save_checkpoint(blob);
    AnytimeEngine restored = AnytimeEngine::load_checkpoint(blob, config);
    engine.run_to_quiescence();
    restored.run_to_quiescence();
    EXPECT_EQ(restored.rc_steps_completed(), engine.rc_steps_completed());
    EXPECT_EQ(bits(restored.sim_seconds()), bits(engine.sim_seconds()));
    const auto got = restored.full_distance_matrix();
    const auto want = engine.full_distance_matrix();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
        ASSERT_EQ(got[v], want[v]) << "row " << v;
    }
    EXPECT_EQ(restored.closeness().closeness, engine.closeness().closeness);
}

// Repartition-S in the middle of RC, with pending marks live, lands on the
// exact final-graph state over the whole P x backend x exchange x mode
// lattice.
using MidRcParam = std::tuple<std::uint32_t /*ranks*/, BackendKind, bool /*rc_async*/,
                              RepartitionMode>;

class RepartitionMidRc : public ::testing::TestWithParam<MidRcParam> {};

TEST_P(RepartitionMidRc, ConvergesLikeFromScratch) {
    const auto [ranks, backend, rc_async, mode] = GetParam();
    Rng rng(11);
    const auto host = barabasi_albert(72, 2, rng);
    EngineConfig config = config_with(ranks);
    config.backend = backend;
    config.rc_async = rc_async;
    config.repartition_mode = mode;
    AnytimeEngine engine(host, config);
    engine.initialize();
    engine.run_rc_steps(2);
    ASSERT_FALSE(engine.quiescent()) << "no marks left to carry through the move";

    const auto batch = make_batch(host, 12, 17);
    RepartitionS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    expect_matches_fresh(engine, apply_batch(host, batch), config);
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, RepartitionMidRc,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(BackendKind::Sequential, BackendKind::Threaded),
                       ::testing::Bool(),
                       ::testing::Values(RepartitionMode::Scratch,
                                         RepartitionMode::Adaptive)),
    [](const ::testing::TestParamInfo<MidRcParam>& p) {
        return "r" + std::to_string(std::get<0>(p.param)) +
               (std::get<1>(p.param) == BackendKind::Threaded ? "_thr" : "_seq") +
               (std::get<2>(p.param) ? "_async" : "_sync") +
               (std::get<3>(p.param) == RepartitionMode::Adaptive ? "_adaptive"
                                                                  : "_scratch");
    });

}  // namespace
}  // namespace aa
