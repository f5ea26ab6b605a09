// Edge-case tests across modules: validator hook at the consensus level,
// decision retention, partition healing, low-load aggregation behaviour.
#include <gtest/gtest.h>

#include "core/sim_group.hpp"
#include "stack_harness.hpp"

namespace modcast {
namespace {

using test::bytes_of;
using test::concat;
using test::NodeHarness;
using test::string_of;
using util::milliseconds;
using util::seconds;

fd::FdConfig fast_fd() {
  fd::FdConfig c;
  c.heartbeat_interval = milliseconds(20);
  c.timeout = milliseconds(100);
  return c;
}

// --- Consensus validator hook (extended specification) --------------------

TEST(ConsensusValidator, DeferredAckBlocksDecisionUntilRevalidate) {
  NodeHarness h(3, 1, fast_fd());
  // p1 and p2 refuse to validate until released.
  bool released = false;
  int validator_calls = 0;
  for (util::ProcessId p = 1; p < 3; ++p) {
    h.node(p).cons.set_proposal_validator(
        [&released, &validator_calls](std::uint64_t, const util::Payload&) {
          ++validator_calls;
          return released;
        });
  }
  h.start();
  for (util::ProcessId p = 0; p < 3; ++p) {
    h.propose_at(milliseconds(5), p, 0, "gated");
  }
  h.run_until(milliseconds(150));
  // No acks -> no decision anywhere.
  EXPECT_FALSE(h.node(0).cons.has_decided(0));
  EXPECT_GE(validator_calls, 2);

  // Release and revalidate (the upper layer's responsibility).
  h.world().simulator().at(milliseconds(160), [&] {
    released = true;
    for (util::ProcessId p = 1; p < 3; ++p) {
      h.node(p).stack.raise(framework::Event::local(
          framework::kEvRevalidate, framework::ProposeRequestBody{0}));
    }
  });
  h.run_until(milliseconds(400));
  for (util::ProcessId p = 0; p < 3; ++p) {
    ASSERT_TRUE(h.node(p).cons.has_decided(0)) << "process " << p;
    EXPECT_EQ(string_of(h.node(p).cons.decision(0)->to_bytes()), "gated");
  }
}

TEST(ConsensusValidator, PassingValidatorIsTransparent) {
  NodeHarness h(3, 1, fast_fd());
  for (util::ProcessId p = 0; p < 3; ++p) {
    h.node(p).cons.set_proposal_validator(
        [](std::uint64_t, const util::Payload&) { return true; });
  }
  h.start();
  for (util::ProcessId p = 0; p < 3; ++p) h.propose_at(milliseconds(5), p, 0, "v");
  h.run_until(seconds(1));
  EXPECT_TRUE(h.node(2).cons.has_decided(0));
}

// --- Decision retention / pull behaviour ----------------------------------

TEST(ConsensusRetention, OldDecisionsArePruned) {
  consensus::ConsensusConfig cc;
  cc.decision_retention = 8;
  NodeHarness h(3, 1, fast_fd(), cc);
  h.start();
  constexpr std::uint64_t kInstances = 30;
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    for (util::ProcessId p = 0; p < 3; ++p) {
      h.propose_at(milliseconds(5 + 5 * static_cast<std::int64_t>(k)), p, k,
                   concat("v", std::to_string(k)));
    }
  }
  h.run_until(seconds(2));
  // Recent instances answerable, oldest pruned.
  EXPECT_TRUE(h.node(0).cons.has_decided(kInstances - 1));
  EXPECT_EQ(h.node(0).cons.decision(0), nullptr);
  EXPECT_EQ(h.node(0).decided.size(), kInstances);  // deliveries unaffected
}

// A value dropped by retention must not let its instance decide again. p2
// is cut off while p0 and p1 decide 30 instances, and it proposes "late"
// for instance 0. After the heal, p2's round-1 nudge reaches p0, which no
// longer holds instance 0's value: it must not re-open the instance and
// propose "late".
TEST(ConsensusRetention, DroppedDecisionIsNotDecidedAgain) {
  consensus::ConsensusConfig cc;
  cc.decision_retention = 8;
  NodeHarness h(3, 1, {}, cc);
  std::map<std::uint64_t, std::vector<std::string>> decides[3];
  for (util::ProcessId p = 0; p < 3; ++p) {
    h.node(p).stack.bind(framework::kEvDecide,
                         [&decides, p](const framework::Event& ev) {
                           auto& body = ev.as<framework::ConsensusValueBody>();
                           decides[p][body.instance].push_back(
                               string_of(body.value.to_bytes()));
                         });
  }
  auto cut_off_p2 = [&h](bool blocked) {
    for (util::ProcessId p = 0; p < 2; ++p) {
      h.world().network().set_link_blocked(p, 2, blocked);
      h.world().network().set_link_blocked(2, p, blocked);
    }
  };
  cut_off_p2(true);
  h.world().simulator().at(milliseconds(180), [&] { cut_off_p2(false); });
  h.start();
  constexpr std::uint64_t kInstances = 30;
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    for (util::ProcessId p = 0; p < 2; ++p) {
      h.propose_at(milliseconds(5 + 5 * static_cast<std::int64_t>(k)), p, k,
                   concat("v", std::to_string(k)));
    }
  }
  h.propose_at(milliseconds(5), 2, 0, "late");
  h.run_until(seconds(2));

  ASSERT_EQ(decides[0].size(), kInstances);
  // Retention dropped instance 0's value, not its decidedness.
  EXPECT_TRUE(h.node(0).cons.has_decided(0));
  EXPECT_EQ(h.node(0).cons.decision(0), nullptr);
  for (util::ProcessId p = 0; p < 3; ++p) {
    for (const auto& [k, values] : decides[p]) {
      EXPECT_EQ(values.size(), 1u) << "process " << p << " instance " << k;
      EXPECT_EQ(values.front(), concat("v", std::to_string(k)))
          << "process " << p << " instance " << k;
    }
  }
}

// --- Network partition heal ------------------------------------------------

// A partition drops messages between correct processes — outside the
// quasi-reliable channel model the protocols assume (§2.1). The paper's
// testbed got channel reliability from TCP; here the ReliableChannel layer
// provides it, buffering and retransmitting across the partition so the
// minority side catches up after the heal.
TEST(PartitionHeal, MinoritySideCatchesUpAfterHeal) {
  core::SimGroupConfig cfg;
  cfg.n = 3;
  cfg.stack.kind = core::StackKind::kModular;
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(100);
  cfg.stack.liveness_timeout = milliseconds(150);
  cfg.reliable_channels = true;
  core::SimGroup group(cfg);

  // Isolate p2 in both directions for 400ms; the {p0, p1} majority keeps
  // ordering, p2 must catch up after the heal.
  auto set_partition = [&group](bool blocked) {
    for (util::ProcessId p = 0; p < 2; ++p) {
      group.world().network().set_link_blocked(p, 2, blocked);
      group.world().network().set_link_blocked(2, p, blocked);
    }
  };
  group.world().simulator().at(milliseconds(50), [&] { set_partition(true); });
  group.world().simulator().at(milliseconds(450), [&] { set_partition(false); });

  group.start();
  for (util::ProcessId p = 0; p < 2; ++p) {
    for (int i = 0; i < 30; ++i) {
      group.world().simulator().at(milliseconds(10 + p) + i * milliseconds(10),
                                   [&group, p] {
                                     group.process(p).abcast(
                                         util::Bytes(32, 0x9));
                                   });
    }
  }
  group.run_until(seconds(5));
  EXPECT_EQ(group.deliveries(0).size(), 60u);
  EXPECT_EQ(group.deliveries(2).size(), 60u) << "p2 did not catch up";
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(PartitionHeal, MonolithicCoordinatorIsolatedThenHealed) {
  core::SimGroupConfig cfg;
  cfg.n = 3;
  cfg.stack.kind = core::StackKind::kMonolithic;
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(100);
  cfg.stack.liveness_timeout = milliseconds(150);
  cfg.reliable_channels = true;
  core::SimGroup group(cfg);

  // Isolate the initial coordinator p0 for a while: recovery rounds take
  // over; after the heal p0 must reconcile (pulls) and new instances must
  // still decide.
  auto set_partition = [&group](bool blocked) {
    for (util::ProcessId p = 1; p < 3; ++p) {
      group.world().network().set_link_blocked(p, 0, blocked);
      group.world().network().set_link_blocked(0, p, blocked);
    }
  };
  group.world().simulator().at(milliseconds(50), [&] { set_partition(true); });
  group.world().simulator().at(milliseconds(500), [&] { set_partition(false); });

  group.start();
  for (util::ProcessId p = 1; p < 3; ++p) {
    for (int i = 0; i < 20; ++i) {
      group.world().simulator().at(milliseconds(10 + p) + i * milliseconds(15),
                                   [&group, p] {
                                     group.process(p).abcast(
                                         util::Bytes(32, 0x6));
                                   });
    }
  }
  group.run_until(seconds(6));
  EXPECT_EQ(group.deliveries(1).size(), 40u);
  EXPECT_EQ(group.deliveries(0).size(), 40u) << "p0 did not reconcile";
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

// --- Monolithic low-load aggregation ---------------------------------------

TEST(MonolithicLowLoad, BurstAggregatesIntoOneForward) {
  core::SimGroupConfig cfg;
  cfg.n = 3;
  cfg.stack.kind = core::StackKind::kMonolithic;
  cfg.stack.window = 8;
  core::SimGroup group(cfg);
  group.start();
  // p1 bursts 4 messages within the flush window: they should travel to
  // the coordinator in a single FORWARD.
  group.world().simulator().at(milliseconds(5), [&] {
    for (int i = 0; i < 4; ++i) group.process(1).abcast(util::Bytes(16, 1));
  });
  group.run_until(seconds(1));
  EXPECT_EQ(group.deliveries(0).size(), 4u);
  const auto& s1 = group.process(1).monolithic()->stats();
  EXPECT_EQ(s1.forwards_sent, 1u);
}

// --- Monolithic decision pull ----------------------------------------------

TEST(MonolithicPull, MissedProposalResolvedByPull) {
  // p2 loses the COMBINED carrying proposal k; the next COMBINED's decision
  // tag references a proposal p2 never saw, forcing the PULL path.
  core::SimGroupConfig cfg;
  cfg.n = 3;
  cfg.stack.kind = core::StackKind::kMonolithic;
  cfg.stack.fd.heartbeat_interval = milliseconds(20);
  cfg.stack.fd.timeout = milliseconds(200);
  cfg.stack.liveness_timeout = milliseconds(250);
  core::SimGroup group(cfg);
  int drops = 1;
  // Drop exactly one large (proposal-bearing) message from p0 to p2.
  group.world().network().set_drop(
      [&drops, &group](util::ProcessId from, util::ProcessId to) {
        if (from == 0 && to == 2 && drops > 0) {
          --drops;
          return true;
        }
        (void)group;
        return false;
      });
  group.start();
  for (int i = 0; i < 12; ++i) {
    group.world().simulator().at(milliseconds(1) + i * milliseconds(10),
                                 [&group] {
                                   group.process(1).abcast(
                                       util::Bytes(64, 0xEE));
                                 });
  }
  group.run_until(seconds(5));
  EXPECT_EQ(group.deliveries(2).size(), 12u);
  auto check = core::check_agreement_among_correct(group);
  EXPECT_TRUE(check.ok) << check.detail;
}

// --- Workload metrics under indirect stack ---------------------------------

TEST(IndirectWorkload, HarnessMetricsWork) {
  core::SimGroupConfig cfg;
  cfg.n = 3;
  cfg.stack.kind = core::StackKind::kModular;
  cfg.stack.indirect_consensus = true;
  core::SimGroup group(cfg);
  group.start();
  for (int i = 0; i < 10; ++i) {
    group.world().simulator().at(milliseconds(1) + i * milliseconds(5), [&] {
      group.process(0).abcast(util::Bytes(1024, 2));
    });
  }
  group.run_until(seconds(2));
  EXPECT_EQ(group.deliveries(1).size(), 10u);
  EXPECT_EQ(group.process(0).stats().delivered, 10u);
}

}  // namespace
}  // namespace modcast
