#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace aa {

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads > 1) {
        workers_.reserve(threads - 1);
        for (std::size_t i = 1; i < threads; ++i) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        shutdown_ = true;
    }
    work_ready_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            work_ready_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
            if (shutdown_ && tasks_.empty()) {
                return;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
        {
            std::lock_guard lock(mutex_);
            AA_ASSERT(in_flight_ > 0);
            --in_flight_;
            if (in_flight_ == 0) {
                work_done_.notify_all();
            }
        }
    }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
    if (begin >= end) {
        return;
    }
    if (workers_.empty()) {
        for (std::size_t i = begin; i < end; ++i) {
            fn(i);
        }
        return;
    }

    // The calling thread takes a chunk too: it would otherwise block idle,
    // wasting a core (and on small hosts, contending context-switches).
    const std::size_t total = end - begin;
    const std::size_t chunks = std::min(total, workers_.size() + 1);
    const std::size_t chunk_size = (total + chunks - 1) / chunks;

    if (chunks > 1) {
        std::lock_guard lock(mutex_);
        in_flight_ += chunks - 1;
        for (std::size_t c = 1; c < chunks; ++c) {
            const std::size_t lo = begin + c * chunk_size;
            const std::size_t hi = std::min(end, lo + chunk_size);
            tasks_.push([lo, hi, &fn] {
                for (std::size_t i = lo; i < hi; ++i) {
                    fn(i);
                }
            });
        }
        work_ready_.notify_all();
    }

    // Chunk 0 runs inline while the workers drain the rest.
    for (std::size_t i = begin; i < std::min(end, begin + chunk_size); ++i) {
        fn(i);
    }

    if (chunks > 1) {
        std::unique_lock lock(mutex_);
        work_done_.wait(lock, [this] { return in_flight_ == 0; });
    }
}

}  // namespace aa
