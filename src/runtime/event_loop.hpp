// Event-queue scheduler for the event-driven exchange.
//
// The step-synchronous RC loop delivers every message at one collective
// barrier. The event-driven mode instead turns each in-flight message into a
// timestamped DeliveryEvent, so a rank may begin ingesting its first arrival
// while later payloads are still on the (simulated) wire.
//
// Ordering contract. Events are totally ordered by
//     (time, source rank, sequence number)
// compared lexicographically. The timestamp alone is not enough: two
// messages can legitimately arrive at the same instant (equal payloads under
// ParallelRounds, zero-byte control traffic), and a heap tie broken by
// allocation order would make the processing order — and therefore the span
// stream and the delivery trace — depend on the host. Source rank then
// sequence number break every tie deterministically; sequence numbers are
// assigned by the driver in canonical drain order, so the full pop sequence
// is a pure function of the simulated state. This is what makes async runs
// reproducible across executor counts and across repeated threaded runs.
//
// Timestamps are contract-checked at push: a NaN or negative time would
// silently corrupt the heap order (NaN compares false with everything), so
// hostile timestamps die on AA_ASSERT instead of reordering the simulation.
//
// The queue is driver-only: the engine pops it between rank phases to build
// the delivery trace; the rank closures ingest each receiver's messages in
// canonical (seq) order (see the rank executors in core/engine.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/message.hpp"

namespace aa {

/// One scheduled delivery: `message` becomes visible to its receiver at
/// simulated time `time`. `source` duplicates message.from for ordering;
/// `seq` is the driver-assigned tie-breaker (unique per queue lifetime).
struct DeliveryEvent {
    double time{0};
    RankId source{0};
    std::uint64_t seq{0};
    Message message;
};

/// Strict-weak ordering: a < b when a is delivered *later* (max-heap
/// adapter convention is hidden inside EventQueue; this comparator answers
/// "does a come after b in delivery order").
struct DeliveryAfter {
    bool operator()(const DeliveryEvent& a, const DeliveryEvent& b) const {
        if (a.time != b.time) {
            return a.time > b.time;
        }
        if (a.source != b.source) {
            return a.source > b.source;
        }
        return a.seq > b.seq;
    }
};

/// Min-heap of DeliveryEvents under the (time, source, seq) order.
class EventQueue {
public:
    /// Enqueue one delivery. Dies on a non-finite or negative timestamp (see
    /// the header comment). Sequence uniqueness is the driver's job — use
    /// next_seq() — and is not re-checked here.
    void push(DeliveryEvent event);

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /// The earliest event under the total order. Dies when empty.
    const DeliveryEvent& top() const;

    /// Remove and return the earliest event. Dies when empty.
    DeliveryEvent pop();

    /// Monotone sequence numbers for tie-breaking, starting at 0.
    std::uint64_t next_seq() { return seq_counter_++; }

private:
    std::vector<DeliveryEvent> heap_;
    std::uint64_t seq_counter_{0};
};

}  // namespace aa
