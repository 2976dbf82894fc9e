#include <gtest/gtest.h>

#include <set>

#include "runtime/alltoall.hpp"

namespace aa {
namespace {

TEST(AllToAllPairs, CoversEveryOrderedPairOnce) {
    for (std::uint32_t p : {2u, 3u, 5u, 16u}) {
        const auto pairs = all_to_all_pairs(p);
        EXPECT_EQ(pairs.size(), static_cast<std::size_t>(p) * (p - 1));
        std::set<std::pair<RankId, RankId>> seen(pairs.begin(), pairs.end());
        EXPECT_EQ(seen.size(), pairs.size());  // no duplicates
        for (const auto& [from, to] : pairs) {
            EXPECT_NE(from, to);
            EXPECT_LT(from, p);
            EXPECT_LT(to, p);
        }
    }
}

TEST(AllToAllPairs, DegenerateSizes) {
    EXPECT_TRUE(all_to_all_pairs(0).empty());
    EXPECT_TRUE(all_to_all_pairs(1).empty());
}

TEST(AllToAllPairs, RoundStructure) {
    // Within each round of P pairs, senders are distinct and receivers are
    // distinct (a permutation) — the personalized schedule property.
    const std::uint32_t p = 6;
    const auto pairs = all_to_all_pairs(p);
    for (std::size_t round = 0; round + 1 < p; ++round) {
        std::set<RankId> senders;
        std::set<RankId> receivers;
        for (std::size_t i = 0; i < p; ++i) {
            senders.insert(pairs[round * p + i].first);
            receivers.insert(pairs[round * p + i].second);
        }
        EXPECT_EQ(senders.size(), p);
        EXPECT_EQ(receivers.size(), p);
    }
}

class ExchangeDuration : public ::testing::Test {
protected:
    LogPParams params_{.latency = 10e-6,
                       .overhead = 1e-6,
                       .gap_per_byte = 1e-9,
                       .seconds_per_op = 1e-9,
                       .max_message_bytes = 1 << 20};

    std::vector<std::size_t> uniform_matrix(std::uint32_t p, std::size_t bytes) {
        std::vector<std::size_t> m(static_cast<std::size_t>(p) * p, bytes);
        for (std::uint32_t i = 0; i < p; ++i) {
            m[static_cast<std::size_t>(i) * p + i] = 0;
        }
        return m;
    }
};

TEST_F(ExchangeDuration, SerializedSumsAllMessages) {
    const auto m = uniform_matrix(4, 1000);
    const double t =
        exchange_duration(m, 4, params_, CommSchedule::SerializedAllToAll);
    EXPECT_NEAR(t, 12 * params_.message_time(1000), 1e-12);
}

TEST_F(ExchangeDuration, ParallelRoundsTakesMaxPerRound) {
    const auto m = uniform_matrix(4, 1000);
    const double t = exchange_duration(m, 4, params_, CommSchedule::ParallelRounds);
    EXPECT_NEAR(t, 3 * params_.message_time(1000), 1e-12);
}

TEST_F(ExchangeDuration, SerializedSlowerThanParallel) {
    const auto m = uniform_matrix(8, 4096);
    const double serial =
        exchange_duration(m, 8, params_, CommSchedule::SerializedAllToAll);
    const double parallel =
        exchange_duration(m, 8, params_, CommSchedule::ParallelRounds);
    EXPECT_GT(serial, parallel);
}

TEST_F(ExchangeDuration, FloodingPenalizesConcurrency) {
    const auto m = uniform_matrix(8, 4096);
    const double flood = exchange_duration(m, 8, params_, CommSchedule::Flooding);
    // 56 concurrent messages each stretched 56x the longest.
    EXPECT_NEAR(flood, 56 * params_.message_time(4096), 1e-9);
}

TEST_F(ExchangeDuration, EmptyMatrixIsFree) {
    std::vector<std::size_t> m(16, 0);
    EXPECT_EQ(exchange_duration(m, 4, params_, CommSchedule::SerializedAllToAll),
              0.0);
}

TEST_F(ExchangeDuration, SkipsEmptySlots) {
    std::vector<std::size_t> m(9, 0);
    m[0 * 3 + 1] = 500;  // only 0 -> 1 talks
    const double t =
        exchange_duration(m, 3, params_, CommSchedule::SerializedAllToAll);
    EXPECT_NEAR(t, params_.message_time(500), 1e-12);
}

TEST(PerPairBytes, BucketsBySenderReceiver) {
    Message a;
    a.from = 0;
    a.to = 1;
    a.payload = Message::share(std::vector<std::byte>(100));
    Message b;
    b.from = 0;
    b.to = 1;
    b.payload = Message::share(std::vector<std::byte>(50));
    Message c;
    c.from = 1;
    c.to = 0;
    c.payload = Message::share(std::vector<std::byte>(10));
    const auto matrix = per_pair_bytes(std::vector<Message>{a, b, c}, 2);
    EXPECT_EQ(matrix[0 * 2 + 1], 100u + 16 + 50 + 16);
    EXPECT_EQ(matrix[1 * 2 + 0], 10u + 16);
    EXPECT_EQ(matrix[0], 0u);
}

}  // namespace
}  // namespace aa
