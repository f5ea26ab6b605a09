// Unit tests: deterministic event queue (sim/event_queue).
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace modcast::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    util::TimePoint when;
    q.pop(&when)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop(nullptr)();
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeAndReportedTime) {
  EventQueue q;
  q.schedule(42, [] {});
  EXPECT_EQ(q.next_time(), 42);
  util::TimePoint when = 0;
  q.pop(&when);
  EXPECT_EQ(when, 42);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule(10, [&] { ran = true; });
  q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelUnknownIsNoOp) {
  EventQueue q;
  q.schedule(1, [] {});
  q.cancel(9999);  // never scheduled
  q.cancel(0);     // invalid id
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelTwiceCountsOnce) {
  EventQueue q;
  EventId id = q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelHeadAdvancesNextTime) {
  EventQueue q;
  EventId first = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(first);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, StaleIdAfterSlotReuseIsNoOp) {
  // The pooled implementation recycles slots; an EventId from a popped event
  // must never cancel a later event that happens to reuse the same slot.
  EventQueue q;
  bool first_ran = false;
  EventId stale = q.schedule(1, [&] { first_ran = true; });
  q.pop(nullptr)();
  EXPECT_TRUE(first_ran);

  bool second_ran = false;
  q.schedule(2, [&] { second_ran = true; });  // reuses the freed slot
  q.cancel(stale);                            // generation mismatch: no-op
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_TRUE(second_ran);
}

TEST(EventQueue, CancelledSlotReuseKeepsOrdering) {
  // Heavy schedule/cancel churn forces slot recycling while live entries
  // remain in the heap; execution order must stay (time, insertion).
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int round = 0; round < 100; ++round) {
    q.schedule(1000 + round, [&order, round] { order.push_back(round); });
    for (int j = 0; j < 3; ++j) {
      doomed.push_back(q.schedule(500 + round, [&order] {
        order.push_back(-1);  // must never run
      }));
    }
    for (EventId id : doomed) q.cancel(id);
    doomed.clear();
  }
  EXPECT_EQ(q.size(), 100u);
  while (!q.empty()) q.pop(nullptr)();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RescheduleAfterCancelGetsFreshId) {
  EventQueue q;
  EventId a = q.schedule(10, [] {});
  q.cancel(a);
  EventId b = q.schedule(10, [] {});
  EXPECT_NE(a, b);  // same slot, different generation
  q.cancel(a);      // stale: still a no-op
  EXPECT_EQ(q.size(), 1u);
  bool ran = false;
  q.schedule(20, [&] { ran = true; });
  q.cancel(b);
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, LargeCallablesFallBackToHeap) {
  // Callables above the inline capacity must still work (heap fallback).
  EventQueue q;
  std::array<std::uint64_t, 32> big{};  // 256 bytes, above inline storage
  big[0] = 7;
  big[31] = 9;
  std::uint64_t got = 0;
  q.schedule(1, [big, &got] { got = big[0] + big[31]; });
  q.pop(nullptr)();
  EXPECT_EQ(got, 16u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  // Schedule with descending times; expect ascending execution.
  std::vector<util::TimePoint> fired;
  for (int i = 999; i >= 0; --i) {
    q.schedule(i, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop(nullptr)();
  ASSERT_EQ(fired.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, CancelChurnStaysBounded) {
  // Per-message timer arm/cancel churn (the reliable-channel pattern) must
  // not accumulate state. Cancelled timeouts linger in the heap until they
  // surface at the head, so the heap holds about one timeout horizon of
  // stale entries; slots recycle on cancel, so the pool stays tiny.
  EventQueue q;
  util::TimePoint now = 0;
  std::vector<int> fired;
  for (int i = 0; i < 20000; ++i) {
    // Arm a timeout far out, schedule the "message", cancel the timeout.
    const EventId timer = q.schedule(now + 1000, [] {});
    q.schedule(now + 1, [&fired, i] { fired.push_back(i); });
    q.cancel(timer);
    util::TimePoint when = 0;
    q.pop(&when)();
    now = when;
  }
  EXPECT_EQ(fired.size(), 20000u);
  EXPECT_TRUE(q.empty());
  // Slots recycle: the pool never needed more than the handful live at once.
  EXPECT_LT(q.high_water(), 16u);
  EXPECT_LT(q.state_bytes(), std::size_t{1} << 16);
}

}  // namespace
}  // namespace modcast::sim
