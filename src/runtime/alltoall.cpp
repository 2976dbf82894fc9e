#include "runtime/alltoall.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace aa {

std::vector<std::pair<RankId, RankId>> all_to_all_pairs(std::uint32_t num_ranks) {
    std::vector<std::pair<RankId, RankId>> pairs;
    if (num_ranks < 2) {
        return pairs;
    }
    pairs.reserve(static_cast<std::size_t>(num_ranks) * (num_ranks - 1));
    for (std::uint32_t round = 1; round < num_ranks; ++round) {
        for (RankId sender = 0; sender < num_ranks; ++sender) {
            pairs.emplace_back(sender, (sender + round) % num_ranks);
        }
    }
    return pairs;
}

double exchange_duration(const std::vector<std::size_t>& bytes_matrix,
                         std::uint32_t num_ranks, const LogPParams& params,
                         CommSchedule schedule) {
    AA_ASSERT(bytes_matrix.size() ==
              static_cast<std::size_t>(num_ranks) * num_ranks);
    const auto bytes_at = [&](RankId i, RankId j) {
        return bytes_matrix[static_cast<std::size_t>(i) * num_ranks + j];
    };

    switch (schedule) {
        case CommSchedule::SerializedAllToAll: {
            // One message in flight at a time: total = sum of message times.
            double total = 0;
            for (const auto& [from, to] : all_to_all_pairs(num_ranks)) {
                const std::size_t bytes = bytes_at(from, to);
                if (bytes > 0) {
                    total += params.message_time(bytes);
                }
            }
            return total;
        }
        case CommSchedule::ParallelRounds: {
            // Each round costs the maximum message in that round.
            double total = 0;
            for (std::uint32_t round = 1; round < num_ranks; ++round) {
                double round_max = 0;
                for (RankId sender = 0; sender < num_ranks; ++sender) {
                    const std::size_t bytes =
                        bytes_at(sender, (sender + round) % num_ranks);
                    if (bytes > 0) {
                        round_max = std::max(round_max, params.message_time(bytes));
                    }
                }
                total += round_max;
            }
            return total;
        }
        case CommSchedule::Flooding: {
            // All messages at once; the shared medium stretches each transfer
            // by the number of concurrent non-empty messages.
            std::size_t concurrent = 0;
            double longest = 0;
            for (RankId i = 0; i < num_ranks; ++i) {
                for (RankId j = 0; j < num_ranks; ++j) {
                    const std::size_t bytes = bytes_at(i, j);
                    if (i != j && bytes > 0) {
                        ++concurrent;
                        longest = std::max(longest, params.message_time(bytes));
                    }
                }
            }
            return longest * static_cast<double>(std::max<std::size_t>(concurrent, 1));
        }
        case CommSchedule::Pipelined: {
            // Sender-side serialization only: each sender pushes its messages
            // back to back, distinct senders overlap. The makespan is the
            // busiest sender's injection time.
            double makespan = 0;
            for (RankId i = 0; i < num_ranks; ++i) {
                double sender = 0;
                for (std::uint32_t round = 1; round < num_ranks; ++round) {
                    const std::size_t bytes = bytes_at(i, (i + round) % num_ranks);
                    if (bytes > 0) {
                        sender += params.message_time(bytes);
                    }
                }
                makespan = std::max(makespan, sender);
            }
            return makespan;
        }
    }
    return 0;
}

std::vector<std::size_t> per_pair_bytes(std::span<const Message> messages,
                                        std::uint32_t num_ranks) {
    std::vector<std::size_t> matrix(static_cast<std::size_t>(num_ranks) * num_ranks,
                                    0);
    for (const Message& message : messages) {
        matrix[static_cast<std::size_t>(message.from) * num_ranks + message.to] +=
            message.size_bytes();
    }
    return matrix;
}

void schedule_arrivals(std::vector<InFlightMessage>& messages,
                       std::uint32_t num_ranks, const std::vector<double>& ready,
                       const LogPParams& params, CommSchedule schedule) {
    AA_ASSERT(ready.size() == num_ranks);
    for (const InFlightMessage& m : messages) {
        AA_ASSERT(m.from < num_ranks && m.to < num_ranks && m.from != m.to);
    }
    switch (schedule) {
        case CommSchedule::SerializedAllToAll: {
            // One shared wire, canonical order, but a message may depart as
            // soon as the wire is free AND its sender has finished posting —
            // a fast rank's traffic no longer waits for the slowest poster.
            double wire_free = 0;
            for (InFlightMessage& m : messages) {
                const double start = std::max(wire_free, ready[m.from]);
                m.arrive = start + params.message_time(m.bytes);
                wire_free = m.arrive;
            }
            return;
        }
        case CommSchedule::ParallelRounds: {
            // Canonical order is round-major, so consecutive messages of one
            // round form a run: the round starts when the previous round is
            // over and all of its senders are ready.
            const auto round_of = [num_ranks](const InFlightMessage& m) {
                return (m.to + num_ranks - m.from) % num_ranks;
            };
            double prev_round_end = 0;
            std::size_t i = 0;
            while (i < messages.size()) {
                const std::uint32_t round = round_of(messages[i]);
                std::size_t j = i;
                double start = prev_round_end;
                while (j < messages.size() && round_of(messages[j]) == round) {
                    start = std::max(start, ready[messages[j].from]);
                    ++j;
                }
                double round_end = start;
                for (std::size_t k = i; k < j; ++k) {
                    messages[k].arrive = start + params.message_time(messages[k].bytes);
                    round_end = std::max(round_end, messages[k].arrive);
                }
                prev_round_end = round_end;
                i = j;
            }
            return;
        }
        case CommSchedule::Flooding: {
            double start = 0;
            for (const InFlightMessage& m : messages) {
                start = std::max(start, ready[m.from]);
            }
            const auto concurrent =
                static_cast<double>(std::max<std::size_t>(messages.size(), 1));
            for (InFlightMessage& m : messages) {
                m.arrive = start + params.message_time(m.bytes) * concurrent;
            }
            return;
        }
        case CommSchedule::Pipelined: {
            std::vector<double> sender_free(ready);
            for (InFlightMessage& m : messages) {
                m.arrive = sender_free[m.from] + params.message_time(m.bytes);
                sender_free[m.from] = m.arrive;
            }
            return;
        }
    }
}

}  // namespace aa
