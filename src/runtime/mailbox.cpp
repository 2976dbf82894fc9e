#include "runtime/mailbox.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace aa {

MailboxSystem::MailboxSystem(std::uint32_t num_ranks)
    : outboxes_(num_ranks), inboxes_(num_ranks) {}

void MailboxSystem::post(Message message) {
    AA_ASSERT(message.from < num_ranks() && message.to < num_ranks());
    AA_ASSERT_MSG(message.from != message.to, "self-sends are a logic error");
    outboxes_[message.from].push_back(std::move(message));
}

bool MailboxSystem::has_pending() const {
    return std::any_of(outboxes_.begin(), outboxes_.end(),
                       [](const auto& box) { return !box.empty(); });
}

bool MailboxSystem::has_unreceived() const {
    return std::any_of(inboxes_.begin(), inboxes_.end(),
                       [](const auto& box) { return !box.empty(); });
}

std::vector<Message> MailboxSystem::drain_outboxes(
    const std::vector<std::pair<RankId, RankId>>& schedule) {
    std::vector<Message> drained;
    for (const auto& [from, to] : schedule) {
        AA_ASSERT(from < num_ranks() && to < num_ranks());
        auto& outbox = outboxes_[from];
        for (auto it = outbox.begin(); it != outbox.end();) {
            if (it->to == to) {
                drained.push_back(std::move(*it));
                it = outbox.erase(it);
            } else {
                ++it;
            }
        }
    }
    return drained;
}

std::vector<Message> MailboxSystem::take_inbox(RankId r) {
    AA_ASSERT(r < num_ranks());
    std::vector<Message> out = std::move(inboxes_[r]);
    inboxes_[r].clear();
    return out;
}

const std::vector<Message>& MailboxSystem::peek_outbox(RankId r) const {
    AA_ASSERT(r < num_ranks());
    return outboxes_[r];
}

const std::vector<Message>& MailboxSystem::peek_inbox(RankId r) const {
    AA_ASSERT(r < num_ranks());
    return inboxes_[r];
}

void MailboxSystem::deliver_direct(Message message) {
    AA_ASSERT(message.from < num_ranks() && message.to < num_ranks());
    AA_ASSERT_MSG(message.from != message.to, "self-sends are a logic error");
    inboxes_[message.to].push_back(std::move(message));
}

void MailboxSystem::restore(Message message, bool delivered) {
    if (delivered) {
        deliver_direct(std::move(message));
    } else {
        post(std::move(message));
    }
}

}  // namespace aa
