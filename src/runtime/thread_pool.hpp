// Fixed-size thread pool with a blocking parallel_for (the paper uses OpenMP;
// std::thread keeps the build dependency-free). The engine runs every rank
// phase on one, its rank executors (see core/engine.hpp). The IA and RC
// kernels also accept a pool for fan-out within one rank; the engine hands
// them none (or a one-executor inline pool), since its ranks already occupy
// the cores, while kernel tests and benches size one larger. Pricing never
// depends on a pool: the LogP model's `threads` divisor prices IA at the
// configured EngineConfig::ia_threads whoever runs it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace aa {

class ThreadPool {
public:
    /// `threads` executors: threads - 1 workers plus the calling thread,
    /// which runs a chunk of every parallel_for itself. `threads == 0` or `1`
    /// runs tasks inline (no worker threads).
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Executors, counting the calling thread.
    std::size_t num_threads() const { return workers_.size() + 1; }

    /// Run fn(i) for i in [begin, end), statically chunked across the pool
    /// plus the calling thread (which executes the first chunk itself instead
    /// of blocking idle); returns when all iterations complete. fn must not
    /// throw. Only one parallel_for may be in flight per pool at a time, and
    /// fn must not re-enter parallel_for on the same pool.
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& fn);

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable work_done_;
    std::queue<std::function<void()>> tasks_;
    std::size_t in_flight_{0};
    bool shutdown_{false};
};

}  // namespace aa
