#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "runtime/thread_pool.hpp"

namespace aa {
namespace {

TEST(ThreadPool, InlineExecutionWhenNoWorkers) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.num_threads(), 1u);
    std::vector<int> hits(10, 0);
    pool.parallel_for(0, 10, [&](std::size_t i) { hits[i] = 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
    ThreadPool pool(2);
    bool touched = false;
    pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
    pool.parallel_for(7, 3, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, NonZeroOffsetRange) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(20);
    pool.parallel_for(5, 15, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_EQ(hits[i].load(), (i >= 5 && i < 15) ? 1 : 0);
    }
}

TEST(ThreadPool, ReusableAcrossCalls) {
    ThreadPool pool(4);
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round) {
        pool.parallel_for(0, 100, [&](std::size_t) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 5000);
}

TEST(ThreadPool, MoreItemsThanThreads) {
    ThreadPool pool(2);
    std::atomic<long> sum{0};
    pool.parallel_for(0, 10000, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 10000L * 9999 / 2);
}

TEST(ThreadPool, FewerItemsThanThreads) {
    ThreadPool pool(8);
    std::atomic<int> count{0};
    pool.parallel_for(0, 3, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
}

// ThreadPool(n) is n executors: n - 1 workers plus the calling thread. Every
// chunk's first index waits until n distinct threads have checked in (a
// bounded wait, so a pool with fewer executors fails instead of hanging),
// which forces the n chunks onto n distinct threads; a pool that ran more
// than n-way would check in more.
TEST(ThreadPool, RunsExactlyNWay) {
    for (std::size_t n = 1; n <= 4; ++n) {
        ThreadPool pool(n);
        EXPECT_EQ(pool.num_threads(), n);
        std::mutex mutex;
        std::condition_variable checked_in;
        std::set<std::thread::id> ids;
        pool.parallel_for(0, 8 * n, [&](std::size_t) {
            std::unique_lock lock(mutex);
            ids.insert(std::this_thread::get_id());
            checked_in.notify_all();
            checked_in.wait_for(lock, std::chrono::seconds(5),
                                [&] { return ids.size() >= n; });
        });
        EXPECT_EQ(ids.size(), n) << "n=" << n;
    }
}

}  // namespace
}  // namespace aa
