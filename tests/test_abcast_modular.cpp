// Integration + fault-injection tests: modular atomic broadcast stack.
#include "abcast/modular_abcast.hpp"

#include <gtest/gtest.h>

#include <set>

#include "analysis/analytical_model.hpp"
#include "core/sim_group.hpp"
#include "stack_harness.hpp"

namespace modcast::abcast {
namespace {

using util::milliseconds;
using util::seconds;

core::SimGroupConfig modular_config(std::size_t n, std::uint64_t seed = 1) {
  core::SimGroupConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.stack.kind = core::StackKind::kModular;
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(100);
  cfg.stack.liveness_timeout = milliseconds(150);
  return cfg;
}

/// Schedules `count` abcasts from process p, spaced `gap` apart.
void feed(core::SimGroup& g, util::ProcessId p, int count,
          util::Duration start, util::Duration gap,
          std::size_t size = 32) {
  for (int i = 0; i < count; ++i) {
    g.world().simulator().at(start + i * gap, [&g, p, size] {
      if (!g.crashed(p)) g.process(p).abcast(util::Bytes(size, 0xcd));
    });
  }
}

class ModularGroupSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModularGroupSizes, TotalOrderAndAgreementUnderLoad) {
  const std::size_t n = GetParam();
  core::SimGroup group(modular_config(n));
  group.start();
  for (util::ProcessId p = 0; p < n; ++p) {
    feed(group, p, 30, milliseconds(1 + p), milliseconds(7));
  }
  group.run_until(seconds(5));
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
  // Validity: every admitted message is delivered (run long enough).
  EXPECT_EQ(group.deliveries(0).size(), 30u * n);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, ModularGroupSizes,
                         ::testing::Values(2, 3, 4, 5, 7));

TEST(ModularAbcastFlow, WindowLimitsInFlight) {
  core::SimGroupConfig cfg = modular_config(3);
  cfg.stack.window = 2;
  core::SimGroup group(cfg);
  group.start();
  // Burst 10 messages at once: only 2 admitted immediately.
  group.world().simulator().at(milliseconds(1), [&] {
    for (int i = 0; i < 10; ++i) group.process(0).abcast(util::Bytes(16, 1));
    EXPECT_EQ(group.process(0).in_flight(), 2u);
    EXPECT_EQ(group.process(0).queued(), 8u);
  });
  group.run_until(seconds(3));
  EXPECT_EQ(group.process(0).queued(), 0u);
  EXPECT_EQ(group.deliveries(1).size(), 10u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(ModularAbcastFlow, AdmitHandlerFiresExactlyOncePerMessage) {
  core::SimGroup group(modular_config(3));
  std::vector<std::uint64_t> admitted;
  group.process(0).set_admit_handler(
      [&](std::uint64_t seq) { admitted.push_back(seq); });
  group.start();
  group.world().simulator().at(milliseconds(1), [&] {
    for (int i = 0; i < 5; ++i) group.process(0).abcast(util::Bytes(8, 2));
  });
  group.run_until(seconds(2));
  EXPECT_EQ(admitted, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(ModularAbcastFlow, AbcastReturnsPredictedSeq) {
  core::SimGroupConfig cfg = modular_config(3);
  cfg.stack.window = 1;
  core::SimGroup group(cfg);
  group.start();
  group.world().simulator().at(milliseconds(1), [&] {
    EXPECT_EQ(group.process(0).abcast(util::Bytes(8, 0)), 0u);  // admitted
    EXPECT_EQ(group.process(0).abcast(util::Bytes(8, 0)), 1u);  // queued
    EXPECT_EQ(group.process(0).abcast(util::Bytes(8, 0)), 2u);  // queued
  });
  group.run_until(seconds(2));
  EXPECT_EQ(group.deliveries(2).size(), 3u);
}

TEST(ModularAbcastFlow, BatchCapRespected) {
  core::SimGroupConfig cfg = modular_config(3);
  cfg.stack.window = 8;
  cfg.stack.max_batch = 4;
  core::SimGroup group(cfg);
  group.start();
  group.world().simulator().at(milliseconds(1), [&] {
    for (int i = 0; i < 24; ++i) group.process(0).abcast(util::Bytes(16, 3));
  });
  group.run_until(seconds(3));
  const auto stats = group.process(0).stats();
  EXPECT_EQ(stats.delivered, 24u);
  // No decision may contain more than max_batch messages.
  EXPECT_GE(stats.instances_completed, 24u / 4);
  EXPECT_LE(stats.avg_batch(), 4.0);
}

TEST(ModularAbcastMessages, SteadyStateCountMatchesFormula) {
  // Saturate with max_batch = 4 pinned: the §5.2.1 modular count
  // (n−1)(M+2+⌊(n+1)/2⌋) must emerge from the real stack.
  const std::size_t n = 3;
  core::SimGroupConfig cfg = modular_config(n);
  cfg.stack.max_batch = 4;
  cfg.stack.window = 4;  // backlog 12 ≥ batch: stays saturated
  core::SimGroup group(cfg);
  group.start();
  for (util::ProcessId p = 0; p < n; ++p) {
    feed(group, p, 400, milliseconds(1), milliseconds(1), 64);
  }
  // Warmup, snapshot, measure.
  struct Snap {
    std::uint64_t msgs = 0;
    std::uint64_t instances = 0;
  } base;
  auto totals = [&] {
    Snap s;
    for (util::ProcessId p = 0; p < n; ++p) {
      auto& st = group.process(p).stack();
      s.msgs += st.wire_counters(framework::kModAbcast).messages_sent +
                st.wire_counters(framework::kModConsensus).messages_sent +
                st.wire_counters(framework::kModRbcast).messages_sent;
      s.instances += group.process(p).stats().instances_completed;
    }
    s.instances /= n;
    return s;
  };
  group.world().simulator().at(milliseconds(400), [&] { base = totals(); });
  group.run_until(milliseconds(1200));
  const Snap end = totals();
  const double per_instance =
      static_cast<double>(end.msgs - base.msgs) /
      static_cast<double>(end.instances - base.instances);
  const double expected = static_cast<double>(
      analysis::modular_messages_per_consensus(n, 4));
  EXPECT_NEAR(per_instance, expected, expected * 0.08)
      << "expected ~" << expected << " msgs/consensus";
}

TEST(ModularAbcastCrash, SenderCrashMidDiffusionStillDeliversEverywhere) {
  // §3.3: p0 crashes while diffusing m so that only p1 receives it. The
  // liveness machinery (silence timer + consensus value carrying payloads)
  // must deliver m at p1 and p2 or at neither — and since p1 is correct and
  // holds m, it must deliver everywhere.
  core::SimGroup group(modular_config(3));
  group.world().network().set_link_blocked(0, 2, true);
  group.start();
  group.world().simulator().at(milliseconds(1), [&] {
    group.process(0).abcast(util::Bytes(64, 0xee));
  });
  group.crash_at(0, milliseconds(2));
  group.run_until(seconds(3));
  ASSERT_EQ(group.deliveries(1).size(), 1u);
  ASSERT_EQ(group.deliveries(2).size(), 1u);
  EXPECT_EQ(group.deliveries(1)[0].origin, 0u);
  auto check = core::check_total_order(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(ModularAbcastCrash, NonCoordinatorCrashDoesNotBlockOthers) {
  core::SimGroup group(modular_config(3));
  group.start();
  feed(group, 0, 20, milliseconds(1), milliseconds(5));
  feed(group, 1, 20, milliseconds(2), milliseconds(5));
  group.crash_at(2, milliseconds(30));
  group.run_until(seconds(3));
  EXPECT_EQ(group.deliveries(0).size(), 40u);
  EXPECT_EQ(group.deliveries(1).size(), 40u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(ModularAbcastCrash, CoordinatorCrashRecoversViaRounds) {
  core::SimGroup group(modular_config(3));
  group.start();
  feed(group, 1, 10, milliseconds(1), milliseconds(5));
  feed(group, 2, 10, milliseconds(3), milliseconds(5));
  group.crash_at(0, milliseconds(12));  // p0 coordinates every instance
  group.run_until(seconds(5));
  EXPECT_EQ(group.deliveries(1).size(), 20u);
  EXPECT_EQ(group.deliveries(2).size(), 20u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(ModularAbcastFaults, FalseSuspicionsUnderLoadAreSafe) {
  core::SimGroup group(modular_config(3, 7));
  group.start();
  for (util::ProcessId p = 0; p < 3; ++p) {
    feed(group, p, 25, milliseconds(1 + p), milliseconds(8));
  }
  // Periodic wrong suspicions of the coordinator at both followers.
  for (int i = 0; i < 5; ++i) {
    group.world().simulator().at(milliseconds(20 + i * 40), [&group, i] {
      group.process(1 + (i % 2)).failure_detector().force_suspect(0);
    });
  }
  group.run_until(seconds(5));
  EXPECT_EQ(group.deliveries(0).size(), 75u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(ModularAbcastFaults, MessageLossRecoveredByLivenessTimer) {
  // Drop a burst of diffusion traffic; the periodic re-diffusion and
  // re-proposal must still deliver everything.
  core::SimGroup group(modular_config(3));
  int drops = 6;
  group.world().network().set_drop(
      [&drops](util::ProcessId, util::ProcessId) {
        return drops > 0 && drops-- > 0;
      });
  group.start();
  feed(group, 0, 10, milliseconds(1), milliseconds(3));
  group.run_until(seconds(5));
  EXPECT_EQ(group.deliveries(1).size(), 10u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(ModularAbcastDeterminism, SameSeedSameRun) {
  auto run = [](std::uint64_t seed) {
    core::SimGroup group(modular_config(3, seed));
    group.start();
    for (util::ProcessId p = 0; p < 3; ++p) {
      feed(group, p, 15, milliseconds(1 + p), milliseconds(6));
    }
    group.run_until(seconds(3));
    std::vector<core::DeliveryRecord> log = group.deliveries(0);
    return log;
  };
  auto a = run(42);
  auto b = run(42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]);
    EXPECT_EQ(a[i].at, b[i].at);  // identical timestamps, not just order
  }
}

// Zero-copy value path: a non-coordinator decides on a view of the proposal
// frame it received, the coordinator sent one frame to every peer, and the
// coordinator keeps its proposal as a view of that frame, so every
// process's decided value shares one buffer.
TEST(ModularZeroCopy, AllProcessesShareOneDecidedBuffer) {
  core::SimGroup group(modular_config(3));
  group.start();
  feed(group, 1, 1, milliseconds(1), milliseconds(1), 1024);
  group.run_until(seconds(1));
  ASSERT_EQ(group.deliveries(2).size(), 1u);
  auto decided = [&group](util::ProcessId p) {
    return group.process(p).consensus_module()->decision(0);
  };
  ASSERT_NE(decided(1), nullptr);
  ASSERT_NE(decided(2), nullptr);
  ASSERT_NE(decided(0), nullptr);
  EXPECT_TRUE(decided(1)->shares_buffer(*decided(2)));
  EXPECT_TRUE(decided(0)->shares_buffer(*decided(1)));
  EXPECT_EQ(*decided(1), *decided(0));
}

// Zero-copy pool: a diffused message is pooled as a view of the frame it
// arrived in, not as a copy of its payload.
TEST(ModularZeroCopy, PooledDiffusionSharesItsFrame) {
  core::SimGroup group(modular_config(3));
  test::FrameTap tap(group.process(1).protocol());
  group.world().attach(1, &tap);
  group.start();
  feed(group, 2, 1, milliseconds(1), milliseconds(1), 1024);
  // Step until p1 holds p2's message, which it does from the diffusion's
  // arrival until the decision that orders it.
  bool pooled = false;
  for (util::TimePoint t = milliseconds(1); !pooled && t < milliseconds(50);
       t += util::microseconds(50)) {
    group.run_until(t);
    group.process(1).ordering().pool().for_each_live(
        [&](const AppMessage& m) {
          pooled = true;
          EXPECT_EQ(m.id, (MsgId{2, 0}));
          EXPECT_EQ(m.payload.size(), 1024u);
          const util::Payload* frame = tap.source_of(m.payload);
          ASSERT_NE(frame, nullptr) << "pooled payload is a copy";
          EXPECT_EQ((*frame)[0], framework::kModAbcast);
          EXPECT_EQ((*frame)[1], 1);  // kDiffuse
        });
  }
  EXPECT_TRUE(pooled);
  group.run_until(seconds(1));
  EXPECT_EQ(group.deliveries(1).size(), 1u);
  EXPECT_TRUE(group.process(1).ordering().pool().empty());
}

// Regression: a size-triggered proposal that drains the batcher must cancel
// the pending δ-timer instead of leaving it to fire as a no-op. Periodic
// timers (FD heartbeats, liveness tick) keep exactly one arm outstanding, so
// the pending count right before the burst is the steady-state baseline.
TEST(ModularTimerHygiene, CapProposalDisarmsBatchTimer) {
  core::SimGroupConfig cfg = modular_config(3);
  cfg.stack.batch_delay = milliseconds(50);
  cfg.stack.max_batch = 4;
  cfg.stack.window = 8;
  core::SimGroup group(cfg);
  group.start();
  std::size_t base = 0;
  group.world().simulator().at(milliseconds(1), [&] {
    base = group.world().pending_timers(0);
    for (int i = 0; i < 4; ++i) group.process(0).abcast(util::Bytes(16, 1));
  });
  // Well after the burst quiesces but before t=51ms, when a leaked δ-timer
  // would still be pending.
  group.world().simulator().at(milliseconds(40), [&] {
    EXPECT_EQ(group.world().pending_timers(0), base)
        << "batch timer left armed after a cap-triggered proposal";
  });
  group.run_until(seconds(1));
  EXPECT_EQ(group.deliveries(0).size(), 4u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

// Negative control: while a sub-cap batch waits out batch_delay the δ-timer
// MUST stay armed (cancel-at-drain is not allowed to over-cancel), and once
// it fires and the batch decides the count returns to baseline.
TEST(ModularTimerHygiene, DeltaTimerStaysArmedWhileBatchWaits) {
  core::SimGroupConfig cfg = modular_config(3);
  cfg.stack.batch_delay = milliseconds(50);
  cfg.stack.max_batch = 4;
  cfg.stack.window = 8;
  core::SimGroup group(cfg);
  group.start();
  std::size_t base = 0;
  group.world().simulator().at(milliseconds(1), [&] {
    base = group.world().pending_timers(0);
    group.process(0).abcast(util::Bytes(16, 2));
  });
  group.world().simulator().at(milliseconds(40), [&] {
    EXPECT_EQ(group.world().pending_timers(0), base + 1)
        << "δ-timer should be pending while the batch ages";
    EXPECT_EQ(group.deliveries(0).size(), 0u);
  });
  group.world().simulator().at(milliseconds(120), [&] {
    EXPECT_EQ(group.world().pending_timers(0), base)
        << "δ-timer should be gone after firing and deciding";
    EXPECT_EQ(group.deliveries(0).size(), 1u);
  });
  group.run_until(seconds(1));
  EXPECT_EQ(group.deliveries(0).size(), 1u);
}

}  // namespace
}  // namespace modcast::abcast
