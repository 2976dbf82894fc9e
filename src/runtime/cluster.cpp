#include "runtime/cluster.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/metrics.hpp"

namespace aa {

Cluster::Cluster(std::uint32_t num_ranks, LogPParams params, CommSchedule schedule,
                 PriceModel price_model)
    : num_ranks_(num_ranks),
      params_(params),
      schedule_(schedule),
      price_model_(price_model),
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

std::size_t Cluster::priced_bytes(const Message& message) const {
    if (price_model_ == PriceModel::PerEntry && message.entries > 0) {
        // Decoded footprint: the 16-byte message header plus one DvEntry
        // (u32 column + f64 distance, padded to 16 bytes) per decoded entry —
        // what the receiver materializes regardless of wire encoding.
        return 16 + message.entries * 16;
    }
    return message.size_bytes();
}

void Cluster::send(RankId from, RankId to, MessageTag tag,
                   std::vector<std::byte> payload, std::size_t entries) {
    Message message;
    message.from = from;
    message.to = to;
    message.tag = tag;
    message.entries = entries;
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

double Cluster::exchange() {
    // Price the pending traffic. `matrix` holds wire bytes (the accounting
    // truth); under a non-default price model a second matrix feeds the
    // duration computation so pricing never leaks into the byte bookkeeping.
    std::vector<std::size_t> matrix(
        static_cast<std::size_t>(num_ranks_) * num_ranks_, 0);
    const bool reprice = price_model_ != PriceModel::PerByte;
    std::vector<std::size_t> priced;
    if (reprice) {
        priced.assign(matrix.size(), 0);
    }
    bool any = false;
    for (RankId r = 0; r < num_ranks_; ++r) {
        for (const Message& m : mailboxes_.peek_outbox(r)) {
            const std::size_t slot =
                static_cast<std::size_t>(m.from) * num_ranks_ + m.to;
            matrix[slot] += m.size_bytes();
            if (reprice) {
                priced[slot] += priced_bytes(m);
            }
            // Delivery is certain once priced, so the receiver's accounting
            // advances here (see RankStats).
            rank_stats_[m.to].messages_received += 1;
            rank_stats_[m.to].bytes_received += m.size_bytes();
            any = true;
        }
    }
    double duration = 0;
    std::size_t exchanged_bytes = 0;
    if (any) {
        for (const RankTraffic& t : per_rank_traffic(matrix, num_ranks_)) {
            exchanged_bytes += t.bytes_out;
        }
        duration = exchange_duration(reprice ? priced : matrix, num_ranks_,
                                     params_, schedule_);
        mailboxes_.deliver(all_to_all_pairs(num_ranks_));
        // Safety: the all-to-all covers every (i, j) pair, so nothing should
        // remain buffered.
        AA_ASSERT(!mailboxes_.has_pending());
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
    std::vector<Message> drained =
        mailboxes_.drain_outboxes(all_to_all_pairs(num_ranks_));
    // The all-to-all covers every (i, j) pair, so nothing should remain.
    AA_ASSERT(!mailboxes_.has_pending());

    std::vector<double> ready(num_ranks_);
    for (RankId r = 0; r < num_ranks_; ++r) {
        ready[r] = clocks_[r].now();
    }

    std::vector<InFlightMessage> inflight;
    inflight.reserve(drained.size());
    std::size_t exchanged_bytes = 0;
    for (const Message& m : drained) {
        // Delivery is certain once scheduled, so the receiver's accounting
        // advances here — wire bytes, like the collective path: the price
        // model changes simulated time, never the byte bookkeeping.
        rank_stats_[m.to].messages_received += 1;
        rank_stats_[m.to].bytes_received += m.size_bytes();
        exchanged_bytes += m.size_bytes();
        inflight.push_back(InFlightMessage{m.from, m.to, priced_bytes(m), 0});
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
