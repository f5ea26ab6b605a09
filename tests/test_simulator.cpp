// Unit tests: scheduler and CPU model (sim/simulator, sim/cpu).
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/cpu.hpp"

namespace modcast::sim {
namespace {

using util::microseconds;
using util::milliseconds;

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<util::TimePoint> seen;
  sim.at(100, [&] { seen.push_back(sim.now()); });
  sim.at(50, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<util::TimePoint>{50, 100}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  util::TimePoint fired = -1;
  sim.at(10, [&] {
    sim.after(5, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 15);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  util::TimePoint fired = -1;
  sim.at(10, [&] {
    sim.at(3, [&] { fired = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.at(i * 10, [&] { ++count; });
  }
  sim.run_until(55);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 55);
  sim.run_until(100);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockPastEmptyQueue) {
  Simulator sim;
  sim.run_until(1234);
  EXPECT_EQ(sim.now(), 1234);
}

TEST(Simulator, StopInterruptsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.at(i, [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  sim.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Simulator, MaxEventsBudget) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) sim.at(i, [&] { ++count; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(count, 4);
}

TEST(Simulator, CancelTimer) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.at(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Cpu, SequentialExecutionQueues) {
  Simulator sim;
  Cpu cpu(sim);
  std::vector<util::TimePoint> done;
  sim.at(0, [&] {
    cpu.execute(microseconds(10), [&] { done.push_back(sim.now()); });
    cpu.execute(microseconds(10), [&] { done.push_back(sim.now()); });
    cpu.execute(microseconds(5), [&] { done.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], microseconds(10));
  EXPECT_EQ(done[1], microseconds(20));  // waited for the first
  EXPECT_EQ(done[2], microseconds(25));
  EXPECT_EQ(cpu.busy_time(), microseconds(25));
}

TEST(Cpu, IdleGapsDontAccumulateBusyTime) {
  Simulator sim;
  Cpu cpu(sim);
  sim.at(0, [&] { cpu.execute(microseconds(10), [] {}); });
  sim.at(milliseconds(1), [&] { cpu.execute(microseconds(10), [] {}); });
  sim.run();
  EXPECT_EQ(cpu.busy_time(), microseconds(20));
  EXPECT_EQ(cpu.free_at(), milliseconds(1) + microseconds(10));
}

TEST(Cpu, ChargeExtendsBusyWindow) {
  Simulator sim;
  Cpu cpu(sim);
  std::vector<util::TimePoint> done;
  sim.at(0, [&] {
    cpu.execute(microseconds(10), [&] {
      // Handler performs extra accounted work (e.g. framework crossing).
      cpu.charge(microseconds(7));
      done.push_back(sim.now());
    });
    cpu.execute(microseconds(1), [&] { done.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], microseconds(10));
  // Second handler started only after the charged extension.
  EXPECT_EQ(done[1], microseconds(18));
  EXPECT_EQ(cpu.busy_time(), microseconds(18));
}

TEST(Cpu, HaltDropsQueuedWork) {
  Simulator sim;
  Cpu cpu(sim);
  int ran = 0;
  sim.at(0, [&] {
    cpu.execute(microseconds(10), [&] { ++ran; });
    cpu.execute(microseconds(10), [&] { ++ran; });
    cpu.halt();
  });
  sim.run();
  EXPECT_EQ(ran, 0);
  cpu.execute(microseconds(1), [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 0);
}

TEST(Cpu, QueueKeepsFifoOrderAcrossWrapAroundAndGrowth) {
  // Work queued while the CPU is busy sits in a ring: queue a few items,
  // let some complete so the ring's front moves, then queue far more than
  // it has held, so new items wrap past its end and it grows while
  // wrapped. Completion order and busy time must not notice.
  Simulator sim;
  Cpu cpu(sim);
  std::vector<int> order;
  std::vector<util::TimePoint> done;
  int next = 0;
  auto queue = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const int id = next++;
      cpu.execute(microseconds(1 + id % 3), [&, id] {
        order.push_back(id);
        done.push_back(sim.now());
      });
    }
  };
  sim.at(0, [&] { queue(5); });
  sim.at(microseconds(4), [&] { queue(20); });  // two done: the front moved
  sim.at(microseconds(9), [&] { queue(40); });
  sim.run();
  ASSERT_EQ(order.size(), 65u);
  util::Duration busy = 0;
  for (int id = 0; id < 65; ++id) {
    busy += microseconds(1 + id % 3);
    EXPECT_EQ(order[static_cast<std::size_t>(id)], id);
    // Back to back from t=0: each item completes when the CPU has been
    // busy for the cost of every item up to it.
    EXPECT_EQ(done[static_cast<std::size_t>(id)], busy);
  }
  EXPECT_EQ(cpu.busy_time(), busy);
  EXPECT_EQ(cpu.queue_depth(), 0u);
  // The drained ring is reused from wherever its front stopped.
  order.clear();
  done.clear();
  sim.at(sim.now() + microseconds(100), [&] { queue(12); });
  sim.run();
  ASSERT_EQ(order.size(), 12u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], 65 + static_cast<int>(i));
  }
}

TEST(Cpu, WindowUtilization) {
  Simulator sim;
  Cpu cpu(sim);
  sim.at(0, [&] { cpu.execute(milliseconds(2), [] {}); });
  sim.at(milliseconds(2), [&] { cpu.mark_window(); });
  sim.at(milliseconds(2), [&] { cpu.execute(milliseconds(1), [] {}); });
  sim.run_until(milliseconds(4));
  // Busy 1ms of the 2ms window.
  EXPECT_NEAR(cpu.window_utilization(), 0.5, 1e-9);
}

}  // namespace
}  // namespace modcast::sim
