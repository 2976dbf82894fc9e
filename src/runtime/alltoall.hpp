// Communication schedules.
//
// The paper uses a personalized all-to-all schedule in which "only one
// message traverses the network at any given time in order to prevent network
// flooding and obtain predictable performance" — O(P^2) sequential message
// slots per RC step. We reproduce that schedule, plus alternatives for the
// ablation benchmark (ideal parallel exchange, contention-penalized
// flooding).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "runtime/logp.hpp"
#include "runtime/message.hpp"

namespace aa {

enum class CommSchedule {
    /// The paper's schedule: rounds r = 1..P-1, within a round sender i
    /// transmits to (i + r) mod P; transmissions are fully serialized.
    SerializedAllToAll,
    /// Idealized: all messages of a round proceed in parallel (lower bound).
    ParallelRounds,
    /// Naive flooding: every rank sends simultaneously; the shared network
    /// stretches every transfer by the number of concurrent messages.
    Flooding,
    /// LogGP pipelined injection: each sender pushes its personalized
    /// messages back-to-back (in destination round order — the sender-side
    /// gap serialization of LogGP), while distinct senders' transfers
    /// proceed concurrently. Receivers are not modeled as a bottleneck
    /// beyond the per-message overhead already inside message_time. This is
    /// the schedule that drops the paper's one-message-at-a-time policy and
    /// makes the network makespan max-per-sender instead of sum-over-pairs.
    Pipelined,
};

/// The ordered (sender, receiver) pairs of the personalized all-to-all for P
/// ranks. Size P*(P-1).
std::vector<std::pair<RankId, RankId>> all_to_all_pairs(std::uint32_t num_ranks);

/// Simulated duration of delivering `messages` (given per-message payload
/// sizes) under a schedule. `per_pair_bytes[i*P + j]` = bytes from i to j.
double exchange_duration(const std::vector<std::size_t>& per_pair_bytes,
                         std::uint32_t num_ranks, const LogPParams& params,
                         CommSchedule schedule);

/// Bucket messages' wire bytes into a per-pair byte matrix (P*P, row =
/// sender): what exchange_duration prices.
std::vector<std::size_t> per_pair_bytes(std::span<const Message> messages,
                                        std::uint32_t num_ranks);

/// One message of an event-driven exchange, before and after scheduling.
/// `bytes` is its wire size; `arrive` is filled in by schedule_arrivals.
struct InFlightMessage {
    RankId from{0};
    RankId to{0};
    std::size_t bytes{0};
    double arrive{0};
};

/// Compute deterministic arrival times for an exchange whose senders depart
/// at their own clocks instead of a collective barrier. `messages` must be
/// in canonical all-to-all order (pair order of all_to_all_pairs, post order
/// within a pair — what MailboxSystem::drain_outboxes produces); `ready[i]`
/// is sender i's simulated clock when the exchange starts. Arrival rules per
/// schedule (all reduce to the matching exchange_duration makespan when
/// every ready time is equal):
///   * SerializedAllToAll — a single shared wire: each message starts at
///     max(wire free, sender ready) in canonical order and occupies the wire
///     for its full message_time.
///   * ParallelRounds — round barriers: round r starts when the previous
///     round ended and every sender with traffic in round r is ready; its
///     messages arrive start + message_time each.
///   * Flooding — everything departs when the last sender is ready; every
///     transfer is stretched by the number of concurrent non-empty messages.
///   * Pipelined — per-sender serialization: sender i's k-th message starts
///     when its (k-1)-th finished (first at ready[i]); distinct senders
///     overlap freely.
/// Deterministic: a pure function of (messages, ready, params, schedule).
void schedule_arrivals(std::vector<InFlightMessage>& messages,
                       std::uint32_t num_ranks, const std::vector<double>& ready,
                       const LogPParams& params, CommSchedule schedule);

}  // namespace aa
