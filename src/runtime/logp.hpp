// LogP/LogGP cost model for the simulated cluster.
//
// The paper analyses its algorithm under LogP (latency L, per-message overhead
// o, gap g, processors P) and evaluates on a 32-node 1 Gb/s Ethernet cluster.
// We execute all ranks in one process and *price* their real, counted work
// with this model: computation is counted in abstract operations, and
// communication in messages and bytes under the paper's serialized
// personalized all-to-all schedule. The simulated time this produces plays
// the role of the paper's measured wall time (see DESIGN.md §2).
#pragma once

#include <cstddef>
#include <cstdint>

namespace aa {

/// What the bandwidth term of the cost model charges a message for: the
/// bytes the serializer put on the wire, payload plus the 16-byte header
/// (Message::size_bytes), for every message kind. One value; the enum and
/// EngineConfig::price_model stay because callers name them.
enum class PriceModel : std::uint8_t {
    PerByte = 1,
};

struct LogPParams {
    /// Wire latency per message (seconds). L in LogP.
    double latency{50e-6};
    /// CPU overhead to send or receive one message (seconds). o in LogP.
    double overhead{5e-6};
    /// Per-byte gap, i.e. inverse bandwidth (seconds/byte). G in LogGP.
    /// Default: 1 Gb/s Ethernet = 125 MB/s => 8 ns/byte.
    double gap_per_byte{8e-9};
    /// Seconds per abstract computation operation (one distance comparison /
    /// relaxation step). Default 2 ns ~ a few cycles on the paper's Xeons.
    double seconds_per_op{2e-9};
    /// Maximum size of one message on the wire; larger payloads are chunked.
    /// The paper bounds message size by processor memory and chooses it "such
    /// that the network remains lightly loaded".
    std::size_t max_message_bytes{1 << 20};

    /// Time to push one payload of `bytes` through the network, including
    /// chunking and the sender+receiver overheads per chunk.
    double message_time(std::size_t bytes) const;

    /// Time for `ops` operations spread over `threads` threads (the paper's
    /// O(ops / T) multithreaded IA model).
    double compute_time(double ops, std::size_t threads = 1) const;
};

/// A monotonically advancing simulated clock, one per rank.
class SimClock {
public:
    double now() const { return now_; }

    void advance(double seconds);

    /// Jump forward to `t` if it is later than now (barrier semantics).
    void advance_to(double t);

private:
    double now_{0};
};

}  // namespace aa
