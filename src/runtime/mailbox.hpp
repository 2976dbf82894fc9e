// Per-rank outbox/inbox pairs. Messages posted during a superstep are
// buffered in the sender's outbox and only become visible in receivers'
// inboxes after the cluster runs its exchange — mirroring a BSP-style
// communication phase. Mail leaves the outboxes through one routine
// (drain_outboxes) and enters the inboxes through one (deliver_direct); the
// cluster prices everything in between.
//
// Concurrency contract: post(message) touches only outboxes_[message.from]
// and take_inbox(r) only inboxes_[r], so distinct ranks may post/drain
// concurrently (a rank phase on the engine's executors). Everything that
// crosses boxes — drain_outboxes / deliver_direct / has_pending / peek_* /
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

    /// Take the outboxes' mail in the order of the given (from, to) schedule
    /// — pair order, post order within a pair; pairs without pending mail are
    /// skipped and messages the schedule does not cover remain buffered. The
    /// collective exchange appends the result to the inboxes in this order;
    /// the event-driven one hands each message to its receiver at its own
    /// simulated arrival time. Driver-only.
    std::vector<Message> drain_outboxes(
        const std::vector<std::pair<RankId, RankId>>& schedule);

    /// Drain and return rank r's inbox.
    std::vector<Message> take_inbox(RankId r);

    const std::vector<Message>& peek_outbox(RankId r) const;
    const std::vector<Message>& peek_inbox(RankId r) const;

    /// Append a message to its receiver's inbox: how an exchange delivers
    /// drained mail, and how a collective that prices its own delivery
    /// (Cluster::broadcast) bypasses the outboxes, so mail posted earlier
    /// stays buffered for the exchange that prices it. Driver-only.
    void deliver_direct(Message message);

    /// Put a checkpointed message back where it was: appended to its
    /// sender's outbox, or (`delivered`) to its receiver's inbox. Driver-only.
    void restore(Message message, bool delivered);

private:
    std::vector<std::vector<Message>> outboxes_;
    std::vector<std::vector<Message>> inboxes_;
};

}  // namespace aa
