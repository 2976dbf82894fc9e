// ExecutionBackend: who runs the per-rank phase bodies.
//
// The paper's RC loop is embarrassingly rank-parallel — between collectives,
// each simulated processor only touches its own sub-graph, its own
// DistanceStore rows, its own clock and its own outbox. The engine therefore
// expresses every per-rank phase (IA Dijkstra, RC post/ingest/propagate,
// addition extend/propagate, repartition seeding and re-marking) as a closure
// over one rank's state and hands the *execution* of those closures to a
// pluggable backend:
//
//   * ThreadedBackend — the default. The closures run concurrently on a
//     private pool sized thread-per-core (min(P, hardware threads) executors,
//     the calling thread included), so real cores execute ranks in parallel
//     between the collectives, like the OpenMP/MPI deployment the paper
//     measures. Each executor is a separate glibc malloc arena, so the
//     default stops at the core count: a worker per rank on a smaller host
//     runs no faster and strands more freed memory.
//   * SequentialBackend — ascending rank order on the calling thread, the
//     reference execution. Results, telemetry span order and simulated-time
//     pricing are bit-identical to the threaded backend.
//
// Determinism contract: for a fixed seed and config, closeness output and
// sim_seconds() are bit-identical across backends and thread schedules. The
// engine earns that by construction —
//   * rank closures only mutate rank-confined state (see the concurrency
//     contracts on Cluster, MailboxSystem and DistanceStore), so no
//     interleaving can change any rank's values;
//   * floating-point accumulations across ranks (report ops, step stats) are
//     reduced from per-rank slots in ascending rank order after the barrier,
//     never in completion order;
//   * telemetry spans are buffered per rank inside the closure and merged in
//     rank order at the barrier (MetricsRegistry is single-writer);
//   * simulated-time pricing is per-rank clock arithmetic, unaffected by who
//     advances the clock or when.
// tests/test_backend.cpp enforces the contract property-style over graphs ×
// P × schedules × backends, including mid-RC addition batches.
//
// run_ranks() is a barrier: it returns only after every closure has finished,
// with all their writes visible to the caller (the driver thread). Collective
// operations (exchange, broadcast, barrier, stats reads) stay on the driver
// thread between run_ranks() calls. The event-driven RC exchange keeps the
// same shape: pipelined_exchange() and the EventQueue processing loop
// (including relax-on-arrival ingest) run entirely on the driver thread
// between rank phases, so the event order — and with it the async delivery
// trace — is identical across backends and across repeated threaded runs.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>

#include "common/types.hpp"
#include "runtime/thread_pool.hpp"

namespace aa {

/// Backend selector carried by EngineConfig and the tools' --backend flag.
enum class BackendKind {
    Sequential,  // "seq": rank loops on the driver thread
    Threaded,    // "threaded": thread-per-core executors between collectives (default)
};

/// Canonical flag spelling ("seq" / "threaded").
std::string_view backend_kind_name(BackendKind kind);

/// Parse a --backend flag value. Returns false (leaving `kind` untouched) for
/// anything but the canonical spellings.
bool parse_backend_kind(std::string_view name, BackendKind& kind);

class ExecutionBackend {
public:
    virtual ~ExecutionBackend() = default;

    /// Canonical name (matches backend_kind_name of the kind that made it).
    virtual std::string_view name() const = 0;

    /// True when run_ranks may execute closures concurrently. The engine then
    /// sizes its intra-rank ThreadPool inline, so each rank runs its kernels
    /// on its own executor (pricing is unaffected — see AnytimeEngine::pool_).
    virtual bool concurrent() const = 0;

    /// Execute fn(r) once for every rank r in [0, num_ranks) and return when
    /// all of them completed (barrier semantics: every write a closure made
    /// happens-before the return). fn must confine itself to rank-r state
    /// plus the rank-confined Cluster/MailboxSystem entry points
    /// (charge_compute / send / receive of its own rank) and must not throw.
    virtual void run_ranks(std::size_t num_ranks,
                           const std::function<void(RankId)>& fn) = 0;
};

/// Ascending rank order on the calling thread — the reference execution.
class SequentialBackend final : public ExecutionBackend {
public:
    std::string_view name() const override { return "seq"; }
    bool concurrent() const override { return false; }
    void run_ranks(std::size_t num_ranks,
                   const std::function<void(RankId)>& fn) override;
};

/// Concurrent execution on a private pool of `executors` threads, the
/// calling thread included (see ThreadPool). With fewer executors than
/// ranks, contiguous rank ranges share an executor — still concurrent across
/// ranges, still deterministic by contract. `executors <= 1` degenerates to
/// inline (sequential) execution — correct, just without parallelism, the
/// expected situation on a single-core host.
class ThreadedBackend final : public ExecutionBackend {
public:
    explicit ThreadedBackend(std::size_t executors);

    std::string_view name() const override { return "threaded"; }
    bool concurrent() const override { return true; }
    void run_ranks(std::size_t num_ranks,
                   const std::function<void(RankId)>& fn) override;

    /// Threads that execute rank closures, the calling thread included.
    std::size_t num_executors() const { return pool_.num_threads(); }

private:
    ThreadPool pool_;
};

/// Executors a threaded backend gets for `num_ranks` ranks when none are
/// configured: min(num_ranks, std::thread::hardware_concurrency()), at least 1.
std::size_t default_backend_executors(std::size_t num_ranks);

/// Factory keyed by EngineConfig: `executors` only applies to Threaded (0
/// picks default_backend_executors, i.e. thread-per-core).
std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind,
                                               std::size_t num_ranks,
                                               std::size_t executors = 0);

}  // namespace aa
