// Cluster: the simulated distributed-memory machine.
//
// P ranks with private state, BSP-style supersteps: ranks compute (charging
// their simulated clocks via the LogP model), post messages, then a collective
// exchange delivers everything under the configured communication schedule
// and synchronizes the clocks — the barrier between the paper's RC steps.
//
// The engine executes real work (actual Dijkstra runs, actual DV relaxations,
// actual serialized payloads); the cluster merely *prices* it, so simulated
// time faithfully tracks the executed operation and byte counts. Every
// message is priced by its wire bytes (Message::size_bytes), and mail leaves
// an outbox only through MailboxSystem::drain_outboxes and enters an inbox
// only through MailboxSystem::deliver_direct.
//
// Concurrency contract (what lets the engine's rank executors run ranks in
// parallel):
//   * rank-confined entry points — charge_compute(r, ...), send(from=r, ...)
//     and receive(r) touch only rank r's clock, stats slot, outbox or inbox.
//     They may be called concurrently from distinct ranks' threads; calling
//     any of them for the *same* rank from two threads is a data race. There
//     is no shared mutable state on the send path: the cluster-wide traffic
//     totals are derived from the per-rank sent counters when stats() is
//     read, not accumulated at post time.
//   * driver-only entry points — exchange(), broadcast(), barrier(),
//     restore_clocks(), mailboxes(), restore_message(), reset(),
//     has_pending_messages(), time()/max_time(),
//     rank_stats()/stats() and set_metrics() must run on the driver thread
//     while no rank closure is in flight (between rank phases).
// The rank phase's ThreadPool::parallel_for provides the happens-before
// edges at both ends.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/alltoall.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/logp.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"

namespace aa {

class MetricsRegistry;

/// Cumulative per-rank accounting, for reports and tests. Sent-side counters
/// advance at send() time; received-side counters advance at delivery
/// (exchange / broadcast), so an in-flight message is visible on exactly one
/// side.
struct RankStats {
    double ops{0};
    double compute_seconds{0};
    std::size_t messages_sent{0};
    std::size_t bytes_sent{0};
    std::size_t messages_received{0};
    std::size_t bytes_received{0};
};

/// Cluster-wide accounting. total_messages/total_bytes count the sent side
/// (they are the sums of the per-rank sent counters, materialized by
/// Cluster::stats()); the collective counters advance at exchange/broadcast.
struct ClusterStats {
    double comm_seconds{0};
    std::size_t exchanges{0};
    std::size_t broadcasts{0};
    std::size_t total_messages{0};
    std::size_t total_bytes{0};
};

class Cluster {
public:
    /// `PriceModel` has one value (wire bytes); the parameter stays for
    /// callers that pass EngineConfig::price_model through.
    explicit Cluster(std::uint32_t num_ranks, LogPParams params = {},
                     CommSchedule schedule = CommSchedule::SerializedAllToAll,
                     PriceModel price_model = PriceModel::PerByte);

    std::uint32_t num_ranks() const { return num_ranks_; }
    const LogPParams& params() const { return params_; }
    CommSchedule schedule() const { return schedule_; }

    /// Charge `ops` abstract operations to rank r's clock, spread over
    /// `threads` threads (the paper's multithreaded IA model). Rank-confined:
    /// safe from concurrent callers for distinct r.
    void charge_compute(RankId r, double ops, std::size_t threads = 1);

    /// Post a message; it is delivered (and priced) at the next exchange()
    /// or pipelined_exchange(). Rank-confined by `from`: safe from concurrent
    /// callers for distinct senders (per-sender outboxes, per-sender stats
    /// slots, no global accumulation).
    void send(RankId from, RankId to, MessageTag tag, std::vector<std::byte> payload);

    /// True if any message is waiting to be exchanged.
    bool has_pending_messages() const { return mailboxes_.has_pending(); }

    /// Collective exchange: drain all pending messages in canonical
    /// all-to-all order, price their wire bytes under the schedule, append
    /// each to its receiver's inbox in drain order, and synchronize every
    /// clock to (max clock + duration). Returns the exchange duration.
    double exchange();

    /// Event-driven exchange (driver-only): the same drain, then each
    /// message's deterministic arrival time with senders departing at their
    /// *own* clocks (no entry barrier — see schedule_arrivals). The returned
    /// events are in canonical order with monotone `seq`; messages are NOT
    /// placed in inboxes — the caller owns delivery, advancing each
    /// receiver's clock with advance_rank_to(to, event.time) before handing
    /// it the payload. comm_seconds accumulates the exchange makespan (last
    /// arrival minus earliest sender departure) and the exchange.* metrics
    /// record the same wire-byte totals as the collective path. Clocks are
    /// left untouched.
    std::vector<DeliveryEvent> pipelined_exchange();

    /// Advance rank r's clock to at least `t` (event delivery: the receiver
    /// cannot process a payload before it arrives). Rank-confined.
    void advance_rank_to(RankId r, double t);

    /// Tree broadcast from `from` to all other ranks (the paper's new-vertex
    /// DV row broadcast): delivers immediately, priced as ceil(log2 P)
    /// pipelined rounds, and synchronizes clocks (it is a collective). It
    /// delivers only its own messages: mail posted before it stays in the
    /// outboxes for the next exchange, which prices it.
    double broadcast(RankId from, MessageTag tag, std::vector<std::byte> payload);

    /// Drain rank r's inbox. Rank-confined: safe from concurrent callers for
    /// distinct r (delivery itself happens in the driver-side collectives).
    std::vector<Message> receive(RankId r) { return mailboxes_.take_inbox(r); }

    /// Synchronize all clocks to the maximum. Returns the barrier time.
    double barrier();

    /// Set every rank's clock to the saved value (checkpoint restore: the
    /// resumed analysis continues from the saved per-rank simulated times).
    /// Mailboxes and accounting are left untouched.
    void restore_clocks(std::span<const double> times);

    /// The outboxes (posted, not yet exchanged) and inboxes (delivered, not
    /// yet received) — what a checkpoint persists as in-flight traffic.
    const MailboxSystem& mailboxes() const { return mailboxes_; }

    /// Put a checkpointed in-flight message back into its outbox or (if
    /// `delivered`) its inbox, without touching the traffic accounting: the
    /// send was already counted by the engine that saved it.
    void restore_message(Message message, bool delivered) {
        mailboxes_.restore(std::move(message), delivered);
    }

    double time(RankId r) const;
    double max_time() const;

    const RankStats& rank_stats(RankId r) const;
    /// Cluster-wide accounting, materialized on read: the traffic totals are
    /// the sums of the per-rank sent counters (so the send path stays free of
    /// shared mutable state — see the concurrency contract above).
    ClusterStats stats() const;

    /// Attach a metrics registry (not owned; may be null). While the registry
    /// is enabled the cluster feeds per-collective histograms ("exchange.bytes",
    /// "exchange.seconds", "broadcast.bytes") and counters; a disabled or
    /// absent registry costs one branch per collective.
    void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

    /// Reset clocks and statistics, drop all undelivered messages. Used by
    /// the baseline-restart strategy (a restart forfeits in-flight work) and
    /// by tests.
    ///
    /// The attached MetricsRegistry is *intentionally left untouched*: the
    /// registry is experiment-scoped observability (its collective histograms
    /// and counters describe everything that happened, including work a
    /// restart forfeits), while reset() rewinds the machine-scoped accounting
    /// a restart legitimately starts over. A baseline-restart run therefore
    /// keeps its full pre-restart telemetry; callers that want a clean
    /// registry call MetricsRegistry::clear() themselves.
    /// (Pinned by Cluster.ResetLeavesAttachedMetricsUntouched.)
    void reset();

private:
    /// The drain both exchanges share: take every outbox's mail in canonical
    /// all-to-all order (pair order of all_to_all_pairs, post order within a
    /// pair) and advance the receivers' accounting — delivery is certain
    /// once priced (see RankStats). Adds the drained wire bytes to `bytes`.
    std::vector<Message> drain(std::size_t& bytes);

    /// Feed one exchange (either kind) into the attached registry's
    /// exchange.bytes / exchange.seconds histograms and exchange.count.
    void record_exchange_metrics(std::size_t bytes, double seconds);

    std::uint32_t num_ranks_;
    LogPParams params_;
    CommSchedule schedule_;
    MailboxSystem mailboxes_;
    std::vector<SimClock> clocks_;
    std::vector<RankStats> rank_stats_;
    ClusterStats stats_;
    /// Tie-breaker for DeliveryEvents, monotone across pipelined exchanges
    /// (unique per cluster lifetime; rewound by reset()).
    std::uint64_t event_seq_{0};
    MetricsRegistry* metrics_{nullptr};
};

}  // namespace aa
