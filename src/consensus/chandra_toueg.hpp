// Chandra–Toueg ◇S consensus with the paper's optimizations (§3.2).
//
// The algorithm proceeds in asynchronous rounds; the coordinator of round r
// is p_{(r−1) mod n}, so round 1 of every instance is coordinated by p0
// (fixed — this is what makes the monolithic §4.1 optimization possible and
// keeps the comparison fair). Each round has estimate / propose / ack /
// decide phases, with three good-run optimizations:
//
//  1. Round 1 has no estimate phase: the coordinator proposes its own
//     initial value directly (Fig. 3).
//  2. A new round starts only when the current coordinator is suspected —
//     not eagerly when a round ends.
//  3. Decisions are reliably broadcast as a small DECISION *tag* naming
//     (instance, round); receivers resolve the value from the proposal they
//     already hold. A receiver that never saw the proposal pulls the full
//     decision from its peers (the "additional communication steps" the
//     paper concedes for bad runs). Recovery rounds (r ≥ 2) broadcast the
//     full value, prioritizing correctness over bytes in already-bad runs.
//
// Because round 1 is coordinator-push only, a correct-but-valueless
// coordinator would never start the instance. A nudge timer covers this
// corner: a participant holding an initial value re-introduces the estimate
// phase by sending its estimate to the coordinator, which adopts it if it
// has no value of its own (used by the §3.3 ABcast liveness path; never
// fires under steady load).
//
// Module I/O: consume kEvPropose, raise kEvDecide; decisions travel through
// the reliable broadcast module (kEvRbcast / kEvRdeliver); suspicions come
// from the failure detector (kEvSuspect). The value is an opaque byte blob —
// the consensus module never interprets it (black-box modularity).
//
// Round machinery: rounds::RoundEngine, shared with the monolithic stack,
// keys every instance's rounds, estimates, acks and decision by instance
// number, so a pipelined caller may run any number of instances at once.
// This file keeps the wire encoding, send sites, timers, value-choice and
// solicit rules and the validator gate.
#pragma once

#include <cstdint>
#include <optional>

#include "fd/heartbeat_fd.hpp"
#include "framework/stack.hpp"
#include "rounds/round_engine.hpp"

namespace modcast::consensus {

struct ConsensusConfig {
  /// How long a participant with an initial value waits for the round-1
  /// proposal before nudging the coordinator with an estimate.
  util::Duration proposal_nudge_timeout = util::milliseconds(200);
  /// Retry period for pulling a decision value after a DECISION tag whose
  /// proposal we never saw.
  util::Duration pull_retry = util::milliseconds(100);
  /// How many decided instances are kept for answering pulls.
  std::uint64_t decision_retention = 512;
};

/// Statistics a test or bench can assert on.
struct ConsensusStats {
  std::uint64_t decided = 0;
  std::uint32_t max_round = 0;   ///< highest round that decided any instance
  std::uint64_t late_decisions = 0;  ///< instances decided in a round >= 2
                                     ///< (crash/suspicion recovery work)
  std::uint64_t pulls_sent = 0;
  std::uint64_t nudges_sent = 0;
  std::uint64_t nacks_sent = 0;
};

class ChandraTouegConsensus final : public framework::Module {
 public:
  /// Extended consensus specification ([12], Ekwall & Schiper DSN'06): an
  /// optional upcall asking the layer above whether a proposed value is
  /// locally actionable (for indirect consensus: "do I hold the payloads
  /// these ids name?"). When it returns false, the module defers the
  /// ack/proposal; the upper layer raises kEvRevalidate once the situation
  /// may have changed. With no validator installed, behaviour is the
  /// classic black-box consensus.
  using Validator =
      std::function<bool(std::uint64_t instance, const util::Payload& value)>;

  explicit ChandraTouegConsensus(ConsensusConfig config = {},
                                 const fd::HeartbeatFd* fd = nullptr)
      : config_(config), fd_(fd), rounds_(config.decision_retention) {}

  std::string_view name() const override { return "ct-consensus"; }
  void init(framework::Stack& stack) override;

  void set_proposal_validator(Validator v) { validator_ = std::move(v); }

  /// Proposes `value` for instance k. The first value bound to an instance
  /// at this process becomes its initial estimate; later calls for the same
  /// instance are ignored.
  void propose(std::uint64_t k, util::Payload value);

  bool has_decided(std::uint64_t k) const { return rounds_.decided(k); }
  /// Decision value, or nullptr if undecided or dropped by retention.
  const util::Payload* decision(std::uint64_t k) const {
    const rounds::Decided* d = rounds_.decision(k);
    return d == nullptr ? nullptr : &d->value;
  }

  const ConsensusStats& stats() const { return stats_; }

  /// The round engine: coordinators, quorum, decided watermark.
  const auto& rounds() const { return rounds_; }

 private:
  /// This module's per-instance fields beside the engine's round record.
  struct Pending {
    std::optional<std::uint32_t> tag_round;  ///< decided round, value unseen
    /// Proposal round awaiting validation before we may ack it.
    std::optional<std::uint32_t> ack_round;
    /// Chosen (round, value) awaiting validation before we may propose it.
    std::optional<std::pair<std::uint32_t, util::Payload>> propose;
    runtime::TimerId nudge_timer = runtime::kInvalidTimer;
    runtime::TimerId pull_timer = runtime::kInvalidTimer;
  };
  using Instance = rounds::RoundEngine<Pending>::Open;

  bool value_ok(std::uint64_t k, const util::Payload& value) const;
  void adopt_and_ack(Instance& inst, std::uint32_t round);
  void on_revalidate(std::uint64_t k);

  void do_propose(Instance& inst, std::uint32_t round, util::Payload value);
  void rotate(Instance& inst);
  void send_estimate(Instance& inst, std::uint32_t round,
                     util::ProcessId coord);
  void send_nack(util::ProcessId to, std::uint64_t k, std::uint32_t round);
  void check_estimates(Instance& inst, std::uint32_t round);
  /// Sends kFull(k) to `to` when k's value is retained; false otherwise.
  bool send_decision(util::ProcessId to, std::uint64_t k);
  void decide_local(std::uint64_t k, util::Payload value);
  void broadcast_decision(Instance& inst, std::uint32_t round);
  void start_pull(Instance& inst);
  void arm_nudge(Instance& inst);

  void on_wire(util::ProcessId from, util::Payload msg);
  void on_rdeliver(util::ProcessId origin, const util::Payload& payload);
  void on_suspect(util::ProcessId q);

  void on_estimate(util::ProcessId from, std::uint64_t k, std::uint32_t round,
                   std::uint32_t ts, util::Payload value);
  void on_proposal(util::ProcessId from, std::uint64_t k, std::uint32_t round,
                   util::Payload value);
  void on_ack(util::ProcessId from, std::uint64_t k, std::uint32_t round);
  void on_nack(util::ProcessId from, std::uint64_t k, std::uint32_t round);
  void on_solicit(util::ProcessId from, std::uint64_t k, std::uint32_t round);

  ConsensusConfig config_;
  const fd::HeartbeatFd* fd_;
  Validator validator_;
  framework::Stack* stack_ = nullptr;
  rounds::RoundEngine<Pending> rounds_;
  ConsensusStats stats_;
};

}  // namespace modcast::consensus
