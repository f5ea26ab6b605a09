#include <gtest/gtest.h>

#include <thread>

#include "transit.hpp"

namespace modbench {
namespace {

TEST(TransitMatcher, MatchesPerLinkInFifoOrder) {
  TransitMatcher m(3, 8);
  m.sent(0, 1, 100);
  m.sent(0, 2, 110);
  m.sent(0, 1, 120);
  m.sent(2, 1, 130);
  EXPECT_EQ(m.received(2, 1), 130);  // links are independent
  EXPECT_EQ(m.received(0, 1), 100);
  EXPECT_EQ(m.received(0, 1), 120);
  EXPECT_EQ(m.received(0, 2), 110);
  EXPECT_EQ(m.unmatched(), 0u);
}

TEST(TransitMatcher, ReceptionWithoutSendIsUnmatched) {
  TransitMatcher m(2, 8);
  EXPECT_FALSE(m.received(1, 0).has_value());
  EXPECT_EQ(m.unmatched(), 1u);
}

TEST(TransitMatcher, LappedRecordsAreUnmatchedNotMispaired) {
  TransitMatcher m(2, 4);
  for (int i = 0; i < 6; ++i) m.sent(0, 1, 1000 + i);
  // Records 0 and 1 were overwritten by 4 and 5; record 2 sits in a full
  // ring, where the sender could be overwriting it, so it is not trusted.
  EXPECT_FALSE(m.received(0, 1).has_value());
  EXPECT_FALSE(m.received(0, 1).has_value());
  EXPECT_FALSE(m.received(0, 1).has_value());
  EXPECT_EQ(m.received(0, 1), 1003);
  EXPECT_EQ(m.unmatched(), 3u);
}

TEST(TransitMatcher, SenderAndReceiverOnDifferentThreads) {
  constexpr int kMessages = 20000;
  constexpr int kCapacity = 64;
  TransitMatcher m(2, kCapacity);
  // The "network": a message becomes receivable after its send is recorded;
  // the sender stays less than a ring ahead, as a real link's does.
  std::atomic<int> sent{0};
  std::atomic<int> received{0};
  std::thread sender([&] {
    for (int i = 0; i < kMessages; ++i) {
      while (i - received.load(std::memory_order_acquire) >= kCapacity - 1) {
      }
      m.sent(0, 1, i);
      sent.store(i + 1, std::memory_order_release);
    }
  });
  int in_order = 0;
  for (int i = 0; i < kMessages; ++i) {
    while (sent.load(std::memory_order_acquire) <= i) {
    }
    const auto t = m.received(0, 1);
    if (t && *t == i) ++in_order;
    received.store(i + 1, std::memory_order_release);
  }
  sender.join();
  EXPECT_EQ(in_order, kMessages);
  EXPECT_EQ(m.unmatched(), 0u);
}

}  // namespace
}  // namespace modbench
