#include <gtest/gtest.h>

#include "runtime/alltoall.hpp"
#include "runtime/mailbox.hpp"

namespace aa {
namespace {

Message make(RankId from, RankId to, std::size_t bytes = 8) {
    Message m;
    m.from = from;
    m.to = to;
    m.tag = MessageTag::Control;
    m.payload = Message::share(std::vector<std::byte>(bytes));
    return m;
}

/// What an exchange does with the mailboxes: drain the outboxes in the
/// schedule's order and append each message to its receiver's inbox.
std::vector<Message> exchange_mail(
    MailboxSystem& mail, const std::vector<std::pair<RankId, RankId>>& schedule) {
    std::vector<Message> drained = mail.drain_outboxes(schedule);
    for (const Message& m : drained) {
        mail.deliver_direct(m);
    }
    return drained;
}

TEST(Mailbox, PostAndDeliverAll) {
    MailboxSystem mail(3);
    EXPECT_FALSE(mail.has_pending());
    mail.post(make(0, 1));
    mail.post(make(0, 2));
    mail.post(make(2, 1));
    EXPECT_TRUE(mail.has_pending());
    EXPECT_FALSE(mail.has_unreceived());
    EXPECT_EQ(exchange_mail(mail, all_to_all_pairs(3)).size(), 3u);
    EXPECT_FALSE(mail.has_pending());
    EXPECT_TRUE(mail.has_unreceived());
    EXPECT_EQ(mail.take_inbox(1).size(), 2u);
    EXPECT_EQ(mail.take_inbox(2).size(), 1u);
    EXPECT_TRUE(mail.take_inbox(0).empty());
}

TEST(Mailbox, TakeInboxDrains) {
    MailboxSystem mail(2);
    mail.post(make(0, 1));
    exchange_mail(mail, all_to_all_pairs(2));
    EXPECT_EQ(mail.take_inbox(1).size(), 1u);
    EXPECT_TRUE(mail.take_inbox(1).empty());
}

TEST(Mailbox, ScheduledDeliveryCoversAllPairs) {
    MailboxSystem mail(4);
    for (RankId i = 0; i < 4; ++i) {
        for (RankId j = 0; j < 4; ++j) {
            if (i != j) {
                mail.post(make(i, j));
            }
        }
    }
    const auto pairs = all_to_all_pairs(4);
    const std::vector<Message> drained = exchange_mail(mail, pairs);
    EXPECT_FALSE(mail.has_pending());
    // The drain follows the schedule: one message per pair, in pair order.
    ASSERT_EQ(drained.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(drained[i].from, pairs[i].first);
        EXPECT_EQ(drained[i].to, pairs[i].second);
    }
    for (RankId r = 0; r < 4; ++r) {
        EXPECT_EQ(mail.take_inbox(r).size(), 3u);
    }
}

TEST(Mailbox, PartialScheduleLeavesRest) {
    MailboxSystem mail(3);
    mail.post(make(0, 1));
    mail.post(make(0, 2));
    exchange_mail(mail, {{0, 1}});
    EXPECT_TRUE(mail.has_pending());  // 0 -> 2 still buffered
    EXPECT_EQ(mail.take_inbox(1).size(), 1u);
    EXPECT_TRUE(mail.take_inbox(2).empty());
}

TEST(Mailbox, PreservesPostOrderPerPair) {
    MailboxSystem mail(2);
    for (int i = 0; i < 5; ++i) {
        Message m = make(0, 1, 8);
        std::vector<std::byte> data{static_cast<std::byte>(i)};
        m.payload = Message::share(std::move(data));
        mail.post(std::move(m));
    }
    exchange_mail(mail, all_to_all_pairs(2));
    const auto inbox = mail.take_inbox(1);
    ASSERT_EQ(inbox.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(inbox[i].bytes()[0], static_cast<std::byte>(i));
    }
}

TEST(Mailbox, DeliverReportsBytes) {
    // Drained mail keeps its wire size (payload + 16-byte header) — what the
    // exchange prices and counts.
    MailboxSystem mail(2);
    mail.post(make(0, 1, 100));
    const auto drained = mail.drain_outboxes(all_to_all_pairs(2));
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].size_bytes(), 116u);
}

}  // namespace
}  // namespace aa
