// Checkpoint / restore: the anytime property turned into persistence.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "core/baseline.hpp"
#include "core/closeness.hpp"
#include "core/engine.hpp"
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

TEST(Checkpoint, RoundTripAtQuiescence) {
    Rng rng(1);
    const auto g = barabasi_albert(60, 2, rng);
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    engine.run_to_quiescence();
    const double saved_time = engine.sim_seconds();
    const auto saved_matrix = engine.full_distance_matrix();

    std::stringstream blob;
    engine.save_checkpoint(blob);
    auto restored = AnytimeEngine::load_checkpoint(blob, small_config(4));

    EXPECT_EQ(restored.num_vertices(), 60u);
    EXPECT_EQ(restored.rc_steps_completed(), engine.rc_steps_completed());
    EXPECT_GE(restored.sim_seconds(), saved_time);
    const auto matrix = restored.full_distance_matrix();
    for (std::size_t v = 0; v < 60; ++v) {
        for (std::size_t t = 0; t < 60; ++t) {
            EXPECT_EQ(matrix[v][t], saved_matrix[v][t]);
        }
    }
    // A restored quiescent state converges immediately (the conservative
    // consistency sweep finds nothing new).
    restored.run_to_quiescence();
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
    // Interrupt after one RC step, checkpoint, restore, finish: must reach
    // the exact answer.
    Rng rng(2);
    const auto g = erdos_renyi_gnm(50, 140, rng, WeightRange{1.0, 3.0});
    AnytimeEngine engine(g, small_config(3));
    engine.initialize();
    engine.run_rc_steps(1);

    std::stringstream blob;
    engine.save_checkpoint(blob);
    auto restored = AnytimeEngine::load_checkpoint(blob, small_config(3));
    restored.run_to_quiescence();

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

    std::stringstream blob;
    engine.save_checkpoint(blob);
    auto restored = AnytimeEngine::load_checkpoint(blob, small_config(4));

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

TEST(Checkpoint, RejectsGarbage) {
    std::stringstream blob;
    blob << "definitely not a checkpoint";
    EXPECT_DEATH((void)AnytimeEngine::load_checkpoint(blob, small_config(2)), "");
}

TEST(Checkpoint, RejectsRankMismatch) {
    Rng rng(5);
    const auto g = barabasi_albert(30, 2, rng);
    AnytimeEngine engine(g, small_config(4));
    engine.initialize();
    std::stringstream blob;
    engine.save_checkpoint(blob);
    EXPECT_DEATH((void)AnytimeEngine::load_checkpoint(blob, small_config(8)),
                 "rank count");
}

/// A saved checkpoint of a small quiescent engine plus the byte offsets of
/// the first shard-map entry and the first distance row, following the
/// layout save_checkpoint writes (header, edges, shard_of, shard_map,
/// counters, then one length-prefixed row per vertex).
struct SavedCheckpoint {
    std::string bytes;
    std::size_t shard_map_at{0};
    std::size_t rows_at{0};
};

SavedCheckpoint save_small(std::uint32_t ranks) {
    Rng rng(8);
    const auto g = barabasi_albert(30, 2, rng);
    AnytimeEngine engine(g, small_config(ranks));
    engine.initialize();
    engine.run_to_quiescence();
    std::stringstream blob;
    engine.save_checkpoint(blob);

    SavedCheckpoint saved;
    saved.bytes = blob.str();
    const std::size_t n = engine.num_vertices();
    const std::size_t shards = engine.shard_ownership().shard_map().size();
    saved.shard_map_at = 4 * sizeof(std::uint64_t) +
                         engine.graph().num_edges() *
                             (2 * sizeof(VertexId) + sizeof(Weight)) +
                         sizeof(std::uint64_t) + n * sizeof(ShardId) +
                         sizeof(std::uint64_t);
    saved.rows_at = saved.shard_map_at + shards * sizeof(RankId) +
                    sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
    return saved;
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

TEST(Checkpoint, RejectsShardMapRankOutOfRange) {
    // A shard-map entry names the rank whose state owns the shard's rows;
    // one past P used to be read out of bounds while distributing edges.
    SavedCheckpoint saved = save_small(4);
    ASSERT_LT(peek<RankId>(saved.bytes, saved.shard_map_at), 4u);
    poke<RankId>(saved.bytes, saved.shard_map_at, 1000);
    std::stringstream blob(saved.bytes);
    EXPECT_DEATH((void)AnytimeEngine::load_checkpoint(blob, small_config(4)),
                 "unknown rank");
}

TEST(Checkpoint, RejectsNegativeDistance) {
    // Relaxation never raises a value, so a negative distance would survive
    // every later RC step and skew closeness silently.
    SavedCheckpoint saved = save_small(4);
    const std::size_t entry = saved.rows_at + sizeof(std::uint64_t) + sizeof(Weight);
    ASSERT_GT(peek<Weight>(saved.bytes, entry), 0.0);  // row 0, column 1
    poke<Weight>(saved.bytes, entry, -5.0);
    std::stringstream blob(saved.bytes);
    EXPECT_DEATH((void)AnytimeEngine::load_checkpoint(blob, small_config(4)),
                 "negative or NaN distance");
}

TEST(Checkpoint, RejectsInfiniteEdgeWeight) {
    // An inf-weight edge used to load silently: edge_weight() reports
    // kInfinity for "no edge", so it could never be deleted, and it made
    // every bounds interval's upper end infinite.
    SavedCheckpoint saved = save_small(4);
    const std::size_t weight_at = 4 * sizeof(std::uint64_t) + 2 * sizeof(VertexId);
    ASSERT_GT(peek<Weight>(saved.bytes, weight_at), 0.0);  // first edge
    poke<Weight>(saved.bytes, weight_at, kInfinity);
    std::stringstream blob(saved.bytes);
    EXPECT_DEATH((void)AnytimeEngine::load_checkpoint(blob, small_config(4)),
                 "finite and positive");
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
