#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "runtime/cluster.hpp"

namespace aa {
namespace {

std::vector<std::byte> bytes(std::size_t n) { return std::vector<std::byte>(n); }

TEST(Cluster, ComputeChargesOnlyThatRank) {
    Cluster cluster(3);
    cluster.charge_compute(1, 1e6);
    EXPECT_EQ(cluster.time(0), 0.0);
    EXPECT_GT(cluster.time(1), 0.0);
    EXPECT_EQ(cluster.time(2), 0.0);
    EXPECT_EQ(cluster.rank_stats(1).ops, 1e6);
}

TEST(Cluster, ThreadsSpeedUpCompute) {
    Cluster cluster(2);
    cluster.charge_compute(0, 1e6, 1);
    cluster.charge_compute(1, 1e6, 4);
    EXPECT_NEAR(cluster.time(0), 4 * cluster.time(1), 1e-12);
}

TEST(Cluster, ExchangeDeliversAndSynchronizes) {
    Cluster cluster(3);
    cluster.charge_compute(0, 5e6);  // rank 0 is ahead
    cluster.send(0, 1, MessageTag::Control, bytes(64));
    cluster.send(2, 1, MessageTag::Control, bytes(64));
    EXPECT_TRUE(cluster.has_pending_messages());
    const double duration = cluster.exchange();
    EXPECT_GT(duration, 0.0);
    EXPECT_FALSE(cluster.has_pending_messages());
    // Barrier semantics: all clocks equal afterwards.
    EXPECT_EQ(cluster.time(0), cluster.time(1));
    EXPECT_EQ(cluster.time(1), cluster.time(2));
    EXPECT_EQ(cluster.receive(1).size(), 2u);
    EXPECT_TRUE(cluster.receive(0).empty());
}

TEST(Cluster, EmptyExchangeCostsNothingButSyncs) {
    Cluster cluster(2);
    cluster.charge_compute(0, 1e6);
    const double t0 = cluster.time(0);
    EXPECT_EQ(cluster.exchange(), 0.0);
    EXPECT_EQ(cluster.time(1), t0);  // pulled up to the barrier
}

TEST(Cluster, BroadcastReachesEveryoneElse) {
    Cluster cluster(4);
    const double duration =
        cluster.broadcast(2, MessageTag::Control, bytes(128));
    EXPECT_GT(duration, 0.0);
    for (RankId r = 0; r < 4; ++r) {
        const auto inbox = cluster.receive(r);
        if (r == 2) {
            EXPECT_TRUE(inbox.empty());
        } else {
            ASSERT_EQ(inbox.size(), 1u);
            EXPECT_EQ(inbox[0].from, 2u);
            EXPECT_EQ(inbox[0].bytes().size(), 128u);
        }
    }
}

TEST(Cluster, BroadcastLeavesPostedMailForTheExchange) {
    // A broadcast delivers its own copies only: mail posted before it is
    // delivered — and priced — by the next exchange.
    Cluster cluster(4);
    cluster.send(1, 3, MessageTag::Control, bytes(4096));
    cluster.broadcast(0, MessageTag::Control, bytes(8));
    const auto inbox = cluster.receive(3);
    ASSERT_EQ(inbox.size(), 1u);
    EXPECT_EQ(inbox[0].from, 0u);
    EXPECT_TRUE(cluster.has_pending_messages());
    const double before = cluster.stats().comm_seconds;
    const double duration = cluster.exchange();
    EXPECT_GT(duration, 0.0);
    EXPECT_EQ(cluster.stats().comm_seconds, before + duration);
    const auto delivered = cluster.receive(3);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].from, 1u);
    EXPECT_EQ(delivered[0].bytes().size(), 4096u);
}

TEST(Cluster, BroadcastOnSingleRankIsFree) {
    Cluster cluster(1);
    EXPECT_EQ(cluster.broadcast(0, MessageTag::Control, bytes(1024)), 0.0);
}

TEST(Cluster, BroadcastCostLogarithmicInRanks) {
    LogPParams params;
    Cluster c4(4, params);
    Cluster c16(16, params);
    const double t4 = c4.broadcast(0, MessageTag::Control, bytes(1 << 16));
    const double t16 = c16.broadcast(0, MessageTag::Control, bytes(1 << 16));
    EXPECT_NEAR(t16 / t4, 2.0, 1e-9);  // log2(16)/log2(4)
}

TEST(Cluster, StatsAccumulate) {
    Cluster cluster(2);
    cluster.send(0, 1, MessageTag::Control, bytes(100));
    cluster.exchange();
    cluster.broadcast(1, MessageTag::Control, bytes(50));
    const auto& stats = cluster.stats();
    EXPECT_EQ(stats.exchanges, 1u);
    EXPECT_EQ(stats.broadcasts, 1u);
    EXPECT_EQ(stats.total_messages, 2u);
    EXPECT_GT(stats.comm_seconds, 0.0);
    EXPECT_EQ(cluster.rank_stats(0).messages_sent, 1u);
    EXPECT_EQ(cluster.rank_stats(1).messages_sent, 1u);
}

TEST(Cluster, SerializedScheduleCostsMoreThanParallel) {
    const auto run = [&](CommSchedule schedule) {
        Cluster cluster(8, LogPParams{}, schedule);
        for (RankId i = 0; i < 8; ++i) {
            for (RankId j = 0; j < 8; ++j) {
                if (i != j) {
                    cluster.send(i, j, MessageTag::Control, bytes(4096));
                }
            }
        }
        return cluster.exchange();
    };
    EXPECT_GT(run(CommSchedule::SerializedAllToAll),
              run(CommSchedule::ParallelRounds));
}

TEST(Cluster, ExchangePricesWireBytes) {
    // Every message, whatever its tag, pays its wire bytes (payload plus the
    // 16-byte header) on both exchanges, and the accounting records the
    // same bytes.
    const std::size_t wire = 16 + 40;
    Cluster collective(2);
    collective.send(0, 1, MessageTag::BoundaryDvUpdate, bytes(40));
    EXPECT_EQ(collective.exchange(), collective.params().message_time(wire));
    Cluster pipelined(2);
    pipelined.send(0, 1, MessageTag::BoundaryDvUpdate, bytes(40));
    const auto events = pipelined.pipelined_exchange();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].time, pipelined.params().message_time(wire));
    for (const Cluster* cluster : {&collective, &pipelined}) {
        EXPECT_EQ(cluster->rank_stats(0).bytes_sent, wire);
        EXPECT_EQ(cluster->rank_stats(1).bytes_received, wire);
        EXPECT_EQ(cluster->stats().total_bytes, wire);
    }
}

TEST(Cluster, ResetClearsEverything) {
    Cluster cluster(2);
    cluster.charge_compute(0, 1e6);
    cluster.send(0, 1, MessageTag::Control, bytes(10));
    cluster.reset();
    EXPECT_EQ(cluster.max_time(), 0.0);
    EXPECT_FALSE(cluster.has_pending_messages());
    EXPECT_EQ(cluster.stats().total_messages, 0u);
    EXPECT_EQ(cluster.rank_stats(0).ops, 0.0);
}

TEST(Cluster, InFlightMessageVisibleOnExactlyOneSide) {
    // RankStats contract: sent-side counters advance at send() time, the
    // received side only at delivery — an in-flight message never double
    // counts and never vanishes.
    Cluster cluster(3);
    cluster.send(0, 2, MessageTag::Control, bytes(100));
    EXPECT_EQ(cluster.rank_stats(0).messages_sent, 1u);
    EXPECT_GT(cluster.rank_stats(0).bytes_sent, 100u);  // payload + envelope
    EXPECT_EQ(cluster.rank_stats(2).messages_received, 0u);
    EXPECT_EQ(cluster.rank_stats(2).bytes_received, 0u);
    // The cluster totals count the sent side, so the in-flight message is
    // already included.
    EXPECT_EQ(cluster.stats().total_messages, 1u);
    EXPECT_EQ(cluster.stats().total_bytes, cluster.rank_stats(0).bytes_sent);

    cluster.exchange();
    EXPECT_EQ(cluster.rank_stats(2).messages_received, 1u);
    EXPECT_EQ(cluster.rank_stats(2).bytes_received,
              cluster.rank_stats(0).bytes_sent);
    EXPECT_EQ(cluster.stats().total_messages, 1u);  // delivery adds nothing
}

TEST(Cluster, SentAndReceivedTotalsBalanceAfterDelivery) {
    Cluster cluster(4);
    for (RankId i = 0; i < 4; ++i) {
        for (RankId j = 0; j < 4; ++j) {
            if (i != j) {
                cluster.send(i, j, MessageTag::Control, bytes(32 + i));
            }
        }
    }
    cluster.exchange();
    std::size_t sent = 0, received = 0, bytes_sent = 0, bytes_received = 0;
    for (RankId r = 0; r < 4; ++r) {
        sent += cluster.rank_stats(r).messages_sent;
        received += cluster.rank_stats(r).messages_received;
        bytes_sent += cluster.rank_stats(r).bytes_sent;
        bytes_received += cluster.rank_stats(r).bytes_received;
    }
    EXPECT_EQ(sent, 12u);
    EXPECT_EQ(received, sent);
    EXPECT_EQ(bytes_received, bytes_sent);
    EXPECT_EQ(cluster.stats().total_messages, sent);
    EXPECT_EQ(cluster.stats().total_bytes, bytes_sent);
}

TEST(Cluster, RestoreClocksKeepsPendingMessagesAndStats) {
    // restore_clocks is checkpoint restore: it sets each rank's clock
    // without touching the mailboxes or the accounting.
    Cluster cluster(2);
    cluster.send(0, 1, MessageTag::Control, bytes(10));
    const std::vector<double> times{123.0, 45.0};
    cluster.restore_clocks(times);
    EXPECT_EQ(cluster.time(0), 123.0);
    EXPECT_EQ(cluster.time(1), 45.0);
    EXPECT_TRUE(cluster.has_pending_messages());
    EXPECT_EQ(cluster.stats().total_messages, 1u);
    // The buffered message is still deliverable afterwards.
    cluster.exchange();
    EXPECT_EQ(cluster.receive(1).size(), 1u);
    // Restoring sets the clocks exactly, rewinding one that is ahead.
    const std::vector<double> earlier{1.0, 2.0};
    cluster.restore_clocks(earlier);
    EXPECT_EQ(cluster.time(0), 1.0);
    EXPECT_EQ(cluster.time(1), 2.0);
}

TEST(Cluster, ResetDropsPendingMessagesAndZeroesRankStats) {
    Cluster cluster(2);
    cluster.send(0, 1, MessageTag::Control, bytes(10));
    cluster.broadcast(0, MessageTag::Control, bytes(5));
    (void)cluster.receive(1);
    cluster.reset();
    EXPECT_FALSE(cluster.has_pending_messages());
    cluster.exchange();
    EXPECT_TRUE(cluster.receive(1).empty());  // the pending send is gone
    for (RankId r = 0; r < 2; ++r) {
        EXPECT_EQ(cluster.rank_stats(r).messages_sent, 0u);
        EXPECT_EQ(cluster.rank_stats(r).bytes_sent, 0u);
        EXPECT_EQ(cluster.rank_stats(r).messages_received, 0u);
        EXPECT_EQ(cluster.rank_stats(r).bytes_received, 0u);
        EXPECT_EQ(cluster.rank_stats(r).ops, 0.0);
        EXPECT_EQ(cluster.rank_stats(r).compute_seconds, 0.0);
    }
    EXPECT_EQ(cluster.stats().total_messages, 0u);
    EXPECT_EQ(cluster.stats().broadcasts, 0u);
}

TEST(Cluster, ResetLeavesAttachedMetricsUntouched) {
    // reset() rewinds the machine-scoped accounting; the attached registry is
    // experiment-scoped observability and intentionally survives (see the
    // reset() contract in cluster.hpp). A baseline restart keeps its full
    // pre-restart telemetry.
    MetricsRegistry metrics;
    metrics.enable();
    Cluster cluster(2);
    cluster.set_metrics(&metrics);
    cluster.send(0, 1, MessageTag::Control, bytes(64));
    cluster.exchange();
    const auto h = metrics.counter("exchange.count");
    ASSERT_EQ(metrics.value(h), 1.0);

    cluster.reset();
    EXPECT_EQ(metrics.value(h), 1.0);  // survived the reset

    // The registry stays attached: post-reset collectives keep feeding it.
    cluster.send(1, 0, MessageTag::Control, bytes(64));
    cluster.exchange();
    EXPECT_EQ(metrics.value(h), 2.0);
}

TEST(Cluster, BarrierPullsClocksTogether) {
    Cluster cluster(3);
    cluster.charge_compute(2, 1e7);
    cluster.barrier();
    EXPECT_EQ(cluster.time(0), cluster.time(2));
}

}  // namespace
}  // namespace aa
