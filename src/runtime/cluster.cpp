#include "runtime/cluster.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/metrics.hpp"

namespace aa {

Cluster::Cluster(std::uint32_t num_ranks, LogPParams params, CommSchedule schedule,
                 PriceModel /*price_model*/)
    : num_ranks_(num_ranks),
      params_(params),
      schedule_(schedule),
      mailboxes_(num_ranks),
      clocks_(num_ranks),
      rank_stats_(num_ranks) {
    AA_ASSERT_MSG(num_ranks >= 1, "cluster needs at least one rank");
}

void Cluster::charge_compute(RankId r, double ops, std::size_t threads) {
    AA_ASSERT(r < num_ranks_);
    clocks_[r].advance(params_.compute_time(ops, threads));
    rank_stats_[r].ops += ops;
    rank_stats_[r].compute_seconds += params_.compute_time(ops, threads);
}

void Cluster::send(RankId from, RankId to, MessageTag tag,
                   std::vector<std::byte> payload) {
    Message message;
    message.from = from;
    message.to = to;
    message.tag = tag;
    message.payload = Message::share(std::move(payload));
    // Only rank-confined writes (the sender's stats slot and outbox): the
    // cluster-wide totals are derived in stats() so concurrent senders never
    // share a cache line, let alone a counter.
    rank_stats_[from].messages_sent += 1;
    rank_stats_[from].bytes_sent += message.size_bytes();
    mailboxes_.post(std::move(message));
}

void Cluster::record_exchange_metrics(std::size_t bytes, double seconds) {
    if (metrics_ == nullptr || !metrics_->enabled()) {
        return;
    }
    static constexpr std::array<double, 8> kByteBounds{
        1 << 10, 16 << 10, 256 << 10, 1 << 20,
        16 << 20, 64 << 20, 256 << 20, 1 << 30};
    metrics_->observe(metrics_->histogram("exchange.bytes", kByteBounds),
                      static_cast<double>(bytes));
    static constexpr std::array<double, 8> kSecondBounds{
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
    metrics_->observe(metrics_->histogram("exchange.seconds", kSecondBounds),
                      seconds);
    metrics_->add(metrics_->counter("exchange.count"), 1);
}

std::vector<Message> Cluster::drain(std::size_t& bytes) {
    std::vector<Message> drained =
        mailboxes_.drain_outboxes(all_to_all_pairs(num_ranks_));
    // The all-to-all covers every (i, j) pair, so nothing should remain.
    AA_ASSERT(!mailboxes_.has_pending());
    for (const Message& m : drained) {
        rank_stats_[m.to].messages_received += 1;
        rank_stats_[m.to].bytes_received += m.size_bytes();
        bytes += m.size_bytes();
    }
    return drained;
}

double Cluster::exchange() {
    std::size_t exchanged_bytes = 0;
    std::vector<Message> drained = drain(exchanged_bytes);
    // An empty matrix prices to 0 under every schedule.
    const double duration = exchange_duration(per_pair_bytes(drained, num_ranks_),
                                              num_ranks_, params_, schedule_);
    // Drain order is each receiver's canonical arrival order.
    for (Message& m : drained) {
        mailboxes_.deliver_direct(std::move(m));
    }
    // Barrier semantics: everyone leaves the exchange at the same instant.
    const double start = max_time();
    for (auto& clock : clocks_) {
        clock.advance_to(start + duration);
    }
    stats_.comm_seconds += duration;
    stats_.exchanges += 1;
    record_exchange_metrics(exchanged_bytes, duration);
    return duration;
}

std::vector<DeliveryEvent> Cluster::pipelined_exchange() {
    std::size_t exchanged_bytes = 0;
    std::vector<Message> drained = drain(exchanged_bytes);

    std::vector<double> ready(num_ranks_);
    for (RankId r = 0; r < num_ranks_; ++r) {
        ready[r] = clocks_[r].now();
    }

    std::vector<InFlightMessage> inflight;
    inflight.reserve(drained.size());
    for (const Message& m : drained) {
        inflight.push_back(InFlightMessage{m.from, m.to, m.size_bytes(), 0});
    }
    schedule_arrivals(inflight, num_ranks_, ready, params_, schedule_);

    double makespan = 0;
    if (!inflight.empty()) {
        double first_ready = std::numeric_limits<double>::infinity();
        double last_arrive = 0;
        for (const InFlightMessage& m : inflight) {
            first_ready = std::min(first_ready, ready[m.from]);
            last_arrive = std::max(last_arrive, m.arrive);
        }
        makespan = last_arrive - first_ready;
    }
    stats_.comm_seconds += makespan;
    stats_.exchanges += 1;
    record_exchange_metrics(exchanged_bytes, makespan);

    // Canonical drain order, monotone seq: the (time, source, seq) total
    // order over these events is a pure function of the simulated state.
    std::vector<DeliveryEvent> events;
    events.reserve(drained.size());
    for (std::size_t i = 0; i < drained.size(); ++i) {
        DeliveryEvent event;
        event.time = inflight[i].arrive;
        event.source = drained[i].from;
        event.seq = event_seq_++;
        event.message = std::move(drained[i]);
        events.push_back(std::move(event));
    }
    return events;
}

void Cluster::advance_rank_to(RankId r, double t) {
    AA_ASSERT(r < num_ranks_);
    clocks_[r].advance_to(t);
}

double Cluster::broadcast(RankId from, MessageTag tag,
                          std::vector<std::byte> payload) {
    AA_ASSERT(from < num_ranks_);
    if (num_ranks_ == 1) {
        return 0;
    }
    const std::size_t bytes = payload.size() + 16;
    const double rounds = std::ceil(std::log2(static_cast<double>(num_ranks_)));
    const double duration = rounds * params_.message_time(bytes);

    const auto shared = Message::share(std::move(payload));
    for (RankId to = 0; to < num_ranks_; ++to) {
        if (to == from) {
            continue;
        }
        Message message;
        message.from = from;
        message.to = to;
        message.tag = tag;
        message.payload = shared;  // zero-copy fan-out of immutable bytes
        // Straight to the inbox: posted mail stays for the exchange that
        // prices it.
        mailboxes_.deliver_direct(std::move(message));
    }

    rank_stats_[from].messages_sent += num_ranks_ - 1;
    rank_stats_[from].bytes_sent += bytes * (num_ranks_ - 1);
    for (RankId to = 0; to < num_ranks_; ++to) {
        if (to == from) {
            continue;
        }
        rank_stats_[to].messages_received += 1;
        rank_stats_[to].bytes_received += bytes;
    }
    stats_.comm_seconds += duration;
    stats_.broadcasts += 1;
    if (metrics_ != nullptr && metrics_->enabled()) {
        static constexpr std::array<double, 6> kByteBounds{
            256, 4 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20};
        metrics_->observe(metrics_->histogram("broadcast.bytes", kByteBounds),
                          static_cast<double>(bytes));
        metrics_->add(metrics_->counter("broadcast.count"), 1);
    }

    const double start = max_time();
    for (auto& clock : clocks_) {
        clock.advance_to(start + duration);
    }
    return duration;
}

double Cluster::barrier() {
    const double t = max_time();
    for (auto& clock : clocks_) {
        clock.advance_to(t);
    }
    return t;
}

void Cluster::restore_clocks(std::span<const double> times) {
    AA_ASSERT(times.size() == num_ranks_);
    for (RankId r = 0; r < num_ranks_; ++r) {
        clocks_[r] = SimClock{};
        clocks_[r].advance_to(times[r]);
    }
}

double Cluster::time(RankId r) const {
    AA_ASSERT(r < num_ranks_);
    return clocks_[r].now();
}

double Cluster::max_time() const {
    double t = 0;
    for (const auto& clock : clocks_) {
        t = std::max(t, clock.now());
    }
    return t;
}

const RankStats& Cluster::rank_stats(RankId r) const {
    AA_ASSERT(r < num_ranks_);
    return rank_stats_[r];
}

ClusterStats Cluster::stats() const {
    ClusterStats s = stats_;
    for (const RankStats& r : rank_stats_) {
        s.total_messages += r.messages_sent;
        s.total_bytes += r.bytes_sent;
    }
    return s;
}

void Cluster::reset() {
    mailboxes_ = MailboxSystem(num_ranks_);
    clocks_.assign(num_ranks_, SimClock{});
    rank_stats_.assign(num_ranks_, RankStats{});
    stats_ = ClusterStats{};
    event_seq_ = 0;
}

}  // namespace aa
