// Monolithic atomic broadcast (§4): reliable broadcast + Chandra–Toueg
// consensus + atomic broadcast merged into ONE module, enabling the three
// cross-module optimizations the paper describes. External semantics are
// identical to the modular stack; only good-run message patterns differ.
//
//  §4.1 opt_combine — the decision of consensus instance k and the proposal
//       of instance k+1 ride in a single COMBINED message (the round-1
//       coordinator of every instance is the same process, p0).
//  §4.2 opt_piggyback — application messages are not diffused to everyone;
//       a sender forwards them to the coordinator only, piggybacked on the
//       ack it is about to send (or as a small standalone FORWARD when the
//       system is idle). On coordinator change, messages are re-piggybacked
//       on the estimate sent to the new coordinator.
//  §4.3 opt_cheap_decision — decisions are simply sent to all (n−1
//       messages): the messages of instance k+1 implicitly acknowledge the
//       decision of k, so the (n−1)·⌊(n+1)/2⌋-message reliable broadcast is
//       unnecessary in good runs.
//
// Each optimization has a correctness fallback for bad runs: missed
// decisions are pulled from peers; on suspicion of the coordinator the
// round machinery shared with the modular stack (rounds::RoundEngine, rounds
// ≥ 2) takes over with full-value decisions relayed on first receipt.
//
// All three toggles exist so the ablation bench can attribute the paper's
// measured gap to the individual optimizations.
//
// Steady-state traffic per instance (all opts on): 1 COMBINED to n−1
// processes + n−1 ACKs = 2(n−1) messages — the paper's §5.2.1 count.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "adb/ordering.hpp"
#include "adb/types.hpp"
#include "fd/heartbeat_fd.hpp"
#include "framework/stack.hpp"
#include "rounds/round_engine.hpp"
#include "util/seq_tracker.hpp"

namespace modcast::monolithic {

struct MonolithicConfig {
  /// Aggregation delay before an idle process sends a standalone FORWARD to
  /// the coordinator (lets a burst of abcasts share one message).
  util::Duration forward_flush_delay = util::microseconds(200);
  /// Retry period for decision pulls.
  util::Duration pull_retry = util::milliseconds(100);
  /// Decided instances retained for answering pulls.
  std::uint64_t decision_retention = 512;

  // Ablation toggles (paper sections 4.1, 4.2, 4.3). All on = the paper's
  // monolithic stack; all off ≈ the modular algorithm in one module.
  bool opt_combine = true;
  bool opt_piggyback = true;
  bool opt_cheap_decision = true;
};

struct MonolithicStats {
  std::uint64_t combined_sent = 0;       ///< proposals that carried a decision
  std::uint64_t standalone_tags = 0;     ///< decisions that went out alone
  std::uint64_t forwards_sent = 0;       ///< standalone forwards to the coord
  std::uint64_t piggybacked_messages = 0;///< app messages that rode on acks
  std::uint64_t retransmissions = 0;
  std::uint32_t max_round = 0;
  std::uint64_t late_decisions = 0;  ///< instances decided in a round >= 2
  std::uint64_t pulls_sent = 0;
};

class MonolithicAbcast final : public framework::Module {
 public:
  explicit MonolithicAbcast(adb::OrderingConfig ordering = {},
                            MonolithicConfig config = {},
                            const fd::HeartbeatFd* fd = nullptr)
      : config_(config),
        fd_(fd),
        ordering_(ordering),
        rounds_(config.decision_retention) {}

  std::string_view name() const override { return "monolithic-abcast"; }
  void init(framework::Stack& stack) override;
  void start() override;

  /// A-broadcasts payload (queues above the flow-control window). Returns
  /// the assigned sequence number.
  std::uint64_t abcast(util::Bytes payload);

  /// Flow control, delivery handlers and the shared counters.
  adb::Ordering& ordering() { return ordering_; }
  const MonolithicStats& stats() const { return stats_; }
  /// The round engine: coordinators, quorum, decided store.
  const auto& rounds() const { return rounds_; }

 private:
  /// This module's per-instance fields beside the engine's round record.
  struct Pending {
    std::optional<std::uint32_t> tag_round;  ///< decided round, value unseen
    runtime::TimerId pull_timer = runtime::kInvalidTimer;
    runtime::TimerId retransmit_timer = runtime::kInvalidTimer;
  };
  using Instance = rounds::RoundEngine<Pending>::Open;

  // --- identity helpers ---
  bool i_am_initial_coordinator() const;

  // --- application side ---
  void admit_queued();
  void route_message(adb::AppMessage m);
  void flush_outbox_standalone();
  void arm_flush_timer();
  void pool_add(adb::AppMessage m);
  util::Bytes build_estimate_value();

  // --- coordinator good path ---
  bool try_start_instance();
  void start_instances();
  void arm_batch_timer(util::TimePoint now);
  void cancel_batch_timer();
  void coordinator_decided(Instance& inst, std::uint32_t round);
  /// The single standalone decision-tag send site: every (n−1)-message
  /// drain tag counted by analysis::monolithic_messages_per_run's
  /// `standalone_tags` term goes through here (costcheck budgets it as the
  /// monolithic stack's batch-drain phase).
  void send_standalone_tag(std::uint64_t k, std::uint32_t round);
  void arm_retransmit(Instance& inst, std::uint32_t round);

  // --- round machinery (recovery) ---
  void rotate(Instance& inst);
  void send_estimate(Instance& inst, std::uint32_t round,
                     util::ProcessId coord);
  void send_nack(util::ProcessId to, std::uint64_t k, std::uint32_t round);
  void check_estimates(Instance& inst, std::uint32_t round);
  void handle_proposal(util::ProcessId from, std::uint64_t k,
                       std::uint32_t round, util::Payload batch);
  void send_ack(Instance& inst, std::uint32_t round, util::ProcessId coord);

  // --- decisions ---
  void resolve_decision_tag(std::uint64_t k, std::uint32_t round);
  /// Replies kFullReply(k) to `to` when instance k is decided and retained.
  /// Answers pulls, and any recovery-round message (estimate/nack) arriving
  /// for an instance we already decided: the sender is lagging — e.g. it
  /// just healed from a partition — and hands it the value directly, so a
  /// laggard catches up at one instance per round trip instead of one per
  /// liveness timeout.
  bool reply_decision_if_known(util::ProcessId to, std::uint64_t k);
  void decide(std::uint64_t k, std::uint32_t round, util::Payload batch);
  void apply_ready_decisions();
  void start_pull(Instance& inst);
  void broadcast_decision_fallback(std::uint64_t k, std::uint32_t round,
                                   const util::Payload& batch,
                                   bool relay_seen);
  bool is_designated_resender(util::ProcessId origin,
                              util::ProcessId relay) const;
  static bool batch_is_empty(const util::Payload& value);
  void recheck_active_estimates();

  // --- wire ---
  void on_wire(util::ProcessId from, util::Payload msg);
  void on_suspect(util::ProcessId q);
  void ensure_instance_progress();
  void arm_liveness_timer();

  MonolithicConfig config_;
  const fd::HeartbeatFd* fd_;
  framework::Stack* stack_ = nullptr;

  // Application side. The front end's pool holds what this process orders:
  // as coordinator, the messages forwarded to it; with opt_piggyback off,
  // every diffused message, like the modular stack.
  adb::Ordering ordering_;
  /// Admitted, undelivered own messages (views of the admitted payloads).
  std::map<adb::MsgId, util::Payload> own_pending_;
  std::vector<adb::AppMessage> outbox_;  ///< not yet sent to coordinator
  runtime::TimerId flush_timer_ = runtime::kInvalidTimer;
  runtime::TimerId batch_timer_ = runtime::kInvalidTimer;  ///< δ-time trigger

  // Instance bookkeeping: the round engine shared with the modular stack.
  rounds::RoundEngine<Pending> rounds_;
  /// §4.1 combine, pipelined: decisions reached but not yet shipped in a
  /// COMBINED proposal. Each new proposal pops the front as its ride-along
  /// tag; leftovers are flushed as standalone tags.
  std::deque<std::uint64_t> untagged_decisions_;
  util::SeqTracker relayed_decisions_;  ///< dedup for fallback relaying

  util::TimePoint last_activity_ = 0;
  MonolithicStats stats_;
};

}  // namespace modcast::monolithic
