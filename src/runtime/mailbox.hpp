// Per-rank outbox/inbox pairs. Messages posted during a superstep are
// buffered in the sender's outbox and only become visible in receivers'
// inboxes after the cluster runs its exchange — mirroring a BSP-style
// communication phase.
//
// Concurrency contract: post(message) touches only outboxes_[message.from]
// and take_inbox(r) only inboxes_[r], so distinct ranks may post/drain
// concurrently (the ThreadedBackend compute phase). Everything that crosses
// boxes — deliver / deliver_all / deliver_direct / has_pending / peek_* /
// restore — is driver-only and must not overlap any rank-side call.
#pragma once

#include <vector>

#include "runtime/message.hpp"

namespace aa {

class MailboxSystem {
public:
    explicit MailboxSystem(std::uint32_t num_ranks);

    std::uint32_t num_ranks() const { return static_cast<std::uint32_t>(inboxes_.size()); }

    /// Buffer a message in `from`'s outbox.
    void post(Message message);

    /// True if any rank has a buffered outgoing message.
    bool has_pending() const;

    /// True if any rank's inbox holds a delivered message it has not taken.
    bool has_unreceived() const;

    /// Move all outbox messages into receiver inboxes, ordered by the given
    /// (from, to) schedule; pairs without a pending message are skipped.
    /// Messages not covered by the schedule remain buffered. Returns the
    /// delivered messages' total payload bytes.
    std::size_t deliver(const std::vector<std::pair<RankId, RankId>>& schedule);

    /// Deliver everything (arbitrary but deterministic order).
    std::size_t deliver_all();

    /// Drain every outbox *without* delivering: the messages are returned in
    /// the canonical all-to-all order — pair (from, to) order of the given
    /// schedule, post order within a pair — which is exactly the inbox order
    /// deliver() would have produced per receiver. The event-driven exchange
    /// uses this to take custody of the in-flight messages and hand each to
    /// its receiver at its own simulated arrival time instead of at a
    /// collective barrier. Messages not covered by the schedule remain
    /// buffered. Driver-only, like deliver().
    std::vector<Message> drain_outboxes(
        const std::vector<std::pair<RankId, RankId>>& schedule);

    /// Drain and return rank r's inbox.
    std::vector<Message> take_inbox(RankId r);

    const std::vector<Message>& peek_outbox(RankId r) const;
    const std::vector<Message>& peek_inbox(RankId r) const;

    /// Append a message straight to its receiver's inbox, past the outboxes:
    /// a collective that prices its own delivery (Cluster::broadcast), so
    /// mail posted earlier stays buffered for the exchange that prices it.
    /// Driver-only.
    void deliver_direct(Message message);

    /// Put a checkpointed message back where it was: appended to its
    /// sender's outbox, or (`delivered`) to its receiver's inbox. Driver-only.
    void restore(Message message, bool delivered);

private:
    std::vector<std::vector<Message>> outboxes_;
    std::vector<std::vector<Message>> inboxes_;
};

}  // namespace aa
