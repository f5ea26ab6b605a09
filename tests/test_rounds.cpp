// Round engine tests: drive rounds::RoundEngine with no runtime and compare
// its records and outputs by value.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "rounds/round_engine.hpp"

namespace modcast::rounds {
namespace {

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

TEST(RoundEngine, RotationNacksEachSuspectedCoordinatorAndStopsAtSelf) {
  // p3 of n=5, coordinators p1 and p2 suspected: round 2 (p1) and round 3
  // (p2) are nacked and skipped, round 4 is ours.
  const std::set<util::ProcessId> suspected = {1, 2};
  RoundEngine<> engine(16);
  engine.init(5, 3, &suspected);
  Instance& inst = *engine.open(0);

  const std::vector<Step> steps = engine.rotate(inst);
  EXPECT_EQ(steps,
            (std::vector<Step>{{2, 1, true}, {3, 2, true}, {4, 3, false}}));
  EXPECT_EQ(inst.round, 4u);
  ASSERT_NE(inst.find(2), nullptr);
  EXPECT_TRUE(inst.find(2)->nacked);
  EXPECT_TRUE(inst.find(3)->nacked);
  EXPECT_EQ(inst.find(4), nullptr);  // our own round: nothing recorded yet
}

TEST(RoundEngine, RotationStopsAtFirstUnsuspectedCoordinator) {
  const std::set<util::ProcessId> suspected = {0};
  RoundEngine<> engine(16);
  engine.init(3, 2, &suspected);
  Instance& inst = *engine.open(7);
  EXPECT_EQ(engine.rotate(inst), (std::vector<Step>{{2, 1, false}}));

  // Coming round again, p0 is skipped with a nack and p1 is waited for.
  EXPECT_EQ(engine.rotate(inst), (std::vector<Step>{{3, 2, false}}));
  EXPECT_EQ(engine.rotate(inst),
            (std::vector<Step>{{4, 0, true}, {5, 1, false}}));
}

TEST(RoundEngine, QuorumIsExactlyMajorityCountingOwnAck) {
  for (std::size_t n = 3; n <= 8; ++n) {
    RoundEngine<> engine(16);
    engine.init(n, 0, nullptr);
    ASSERT_EQ(engine.majority(), n / 2 + 1);
    Instance& inst = *engine.open(0);
    engine.propose(inst, 1, bytes_of("v"));
    // The coordinator's own ack counts: majority - 1 senders reach quorum.
    const std::size_t needed = n / 2;
    for (util::ProcessId p = 1; p < needed; ++p) {
      EXPECT_FALSE(engine.ack(inst, 1, p)) << "n=" << n << " acks=" << p;
      EXPECT_FALSE(engine.ack(inst, 1, p)) << "a repeated ack counts once";
    }
    EXPECT_TRUE(engine.ack(inst, 1, static_cast<util::ProcessId>(needed)))
        << "n=" << n;
    EXPECT_EQ(inst.find(1)->ack_senders.size(), needed);
  }
}

TEST(RoundEngine, AckIgnoredForRoundsWeDidNotPropose) {
  RoundEngine<> engine(16);
  engine.init(3, 0, nullptr);
  Instance& inst = *engine.open(0);
  EXPECT_FALSE(engine.ack(inst, 1, 1));  // nothing proposed
  EXPECT_FALSE(engine.ack(inst, 2, 1));  // round 2 is p1's
  EXPECT_EQ(inst, (Instance{0, 1, false, 0, {}, {}}));
}

TEST(RoundEngine, StaleProposalIsNackedOnce) {
  const std::set<util::ProcessId> suspected = {0};
  RoundEngine<> engine(16);
  engine.init(3, 2, &suspected);
  Instance& inst = *engine.open(0);
  engine.rotate(inst);  // round 1's coordinator is suspected: now round 2
  ASSERT_EQ(inst.round, 2u);

  inst.at(1).proposal = bytes_of("late");
  EXPECT_EQ(engine.admit(inst, 1), Admission::kStale);
  EXPECT_EQ(engine.admit(inst, 1), Admission::kAnswered);
  EXPECT_TRUE(inst.find(1)->nacked);
  EXPECT_FALSE(inst.find(1)->acked);
}

TEST(RoundEngine, AdmissionAdoptsThenReportsRetransmissions) {
  RoundEngine<> engine(16);
  engine.init(3, 1, nullptr);
  Instance& inst = *engine.open(4);
  inst.at(1).proposal = bytes_of("v");
  ASSERT_EQ(engine.admit(inst, 1), Admission::kAdopt);
  engine.adopt(inst, 1);
  EXPECT_EQ(inst.estimate, bytes_of("v"));
  EXPECT_EQ(inst.estimate_ts, 1u);
  EXPECT_TRUE(inst.has_estimate);
  EXPECT_EQ(engine.admit(inst, 1), Admission::kAcked);
}

TEST(RoundEngine, ProposalOfSuspectedCoordinatorIsNacked) {
  const std::set<util::ProcessId> suspected = {0};
  RoundEngine<> engine(16);
  engine.init(3, 1, &suspected);
  Instance& inst = *engine.open(0);
  inst.at(1).proposal = bytes_of("v");
  EXPECT_EQ(engine.admit(inst, 1), Admission::kSuspected);
  EXPECT_TRUE(inst.find(1)->nacked);
  EXPECT_EQ(engine.admit(inst, 1), Admission::kAnswered);
}

TEST(RoundEngine, RefreshedEstimateReplacesSendersEarlierOne) {
  Round r;
  r.number = 2;
  r.record(1, 0, bytes_of("a"));
  r.record(2, 0, bytes_of("b"));
  r.record(1, 1, bytes_of("a2"));
  EXPECT_EQ(r.estimates, (std::vector<Estimate>{{1, 1, bytes_of("a2")},
                                                {2, 0, bytes_of("b")}}));
}

TEST(RoundEngine, OwnEstimateIsRecordedOncePerRound) {
  RoundEngine<> engine(16);
  engine.init(3, 1, nullptr);
  Instance& inst = *engine.open(0);
  EXPECT_FALSE(engine.record_own(inst, 2));  // no estimate yet
  inst.has_estimate = true;
  inst.estimate = bytes_of("mine");
  EXPECT_TRUE(engine.record_own(inst, 2));
  EXPECT_FALSE(engine.record_own(inst, 2));
  EXPECT_EQ(inst.find(2)->estimates,
            (std::vector<Estimate>{{1, 0, bytes_of("mine")}}));
  EXPECT_TRUE(engine.claim_estimate(inst, 3));
  EXPECT_FALSE(engine.claim_estimate(inst, 3));
}

TEST(RoundEngine, DecidingInstanceLeavesOpenTable) {
  struct Timers {
    int pull = 0;
  };
  RoundEngine<Timers> engine(16);
  engine.init(3, 0, nullptr);
  engine.open(0)->extra.pull = 7;
  ASSERT_NE(engine.open(1), nullptr);

  engine.decide(1, 3, bytes_of("one"));
  EXPECT_EQ(engine.find(1), nullptr);
  EXPECT_EQ(engine.find(0)->extra.pull, 7);
  ASSERT_NE(engine.decision(1), nullptr);
  EXPECT_EQ(*engine.decision(1), (Decided{bytes_of("one"), 3}));
  EXPECT_TRUE(engine.decided(1));
  EXPECT_FALSE(engine.decided(0));
  EXPECT_EQ(engine.watermark(), 0u);  // instance 0 is still open

  engine.decide(0, 1, bytes_of("zero"));
  EXPECT_EQ(engine.find(0), nullptr);
  EXPECT_EQ(engine.watermark(), 2u);
}

TEST(RoundEngine, NoInstanceOpensBelowWatermark) {
  RoundEngine<> engine(2);
  engine.init(3, 0, nullptr);
  for (std::uint64_t k = 0; k < 5; ++k) {
    std::string value = "v";
    value += std::to_string(k);  // not `"v" + ...`: GCC 12 -Wrestrict
    engine.decide(k, 1, bytes_of(value));
  }
  EXPECT_EQ(engine.watermark(), 5u);
  // Retention kept the last two values; the rest are decided, valueless.
  EXPECT_EQ(engine.decision(0), nullptr);
  EXPECT_NE(engine.decision(4), nullptr);
  for (std::uint64_t k = 0; k < 5; ++k) {
    EXPECT_TRUE(engine.decided(k)) << k;
    EXPECT_EQ(engine.open(k), nullptr) << k;
    EXPECT_EQ(engine.find(k), nullptr) << k;
  }
  EXPECT_NE(engine.open(5), nullptr);
}

TEST(RoundEngine, RetentionKeepsValuesAboveWatermark) {
  RoundEngine<> engine(1);
  engine.init(3, 0, nullptr);
  // Instance 0 stays open, so 1..3 sit above the watermark: all kept.
  engine.open(0);
  for (std::uint64_t k = 1; k <= 3; ++k) engine.decide(k, 1, bytes_of("v"));
  EXPECT_EQ(engine.watermark(), 0u);
  for (std::uint64_t k = 1; k <= 3; ++k) EXPECT_NE(engine.decision(k), nullptr);
  // Deciding 0 lifts the watermark past 3; the next decision trims the
  // store to one value.
  engine.decide(0, 1, bytes_of("v"));
  EXPECT_EQ(engine.watermark(), 4u);
  engine.decide(4, 1, bytes_of("v"));
  for (std::uint64_t k = 0; k <= 3; ++k) {
    EXPECT_EQ(engine.decision(k), nullptr) << k;
    EXPECT_TRUE(engine.decided(k)) << k;
  }
  EXPECT_NE(engine.decision(4), nullptr);
}

TEST(RoundEngine, SuspicionSweepRechecksEachInstance) {
  const std::set<util::ProcessId> suspected = {0};
  RoundEngine<> engine(16);
  engine.init(3, 2, &suspected);
  engine.open(0);
  engine.open(1)->round = 2;  // coordinated by p1
  engine.open(2);
  EXPECT_EQ(engine.coordinated_by(0), (std::vector<std::uint64_t>{0, 2}));
  EXPECT_TRUE(engine.coordinated_by(2).empty());  // never suspect self

  Instance* first = engine.abandon(0, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->find(1)->nacked);
  engine.open(2)->round = 2;  // moved on meanwhile
  EXPECT_EQ(engine.abandon(2, 0), nullptr);
  EXPECT_EQ(engine.abandon(9, 0), nullptr);
}

}  // namespace
}  // namespace modcast::rounds
