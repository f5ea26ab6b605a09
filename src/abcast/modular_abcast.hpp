// Modular atomic broadcast by reduction to consensus (§3.3).
//
// Architecture (Fig. 1 left): this module sits on top of a black-box
// consensus module. Every abcast message is (a) diffused to all processes
// over plain quasi-reliable channels — the paper's optimization over using
// reliable broadcast for diffusion — and (b) ordered by a sequence of
// consensus instances whose proposals are batches of still-unordered
// messages. When instance k decides, the batch is adelivered in a
// deterministic order (sorted by message id) at every process.
//
// Correctness fix for the diffusion optimization (§3.3): if the sender of m
// crashes mid-diffusion, only some processes hold m. Any process that holds
// unordered messages and observes silence for `liveness_timeout` starts a
// consensus (proposing its set, re-diffusing it as well); since proposals
// carry full payloads, the decision spreads m to everyone.
//
// Flow control (§5.1), the reorder buffer and in-order delivery are the
// adb::Ordering front end both stacks share. Batches are capped at
// `max_batch`, so at saturation consensus orders M = max_batch messages per
// instance (the paper tunes M = 4). Throughput extensions (off by default,
// preserving the paper's behavior) live there too: count / payload-byte /
// δ-time batch triggers and k-deep instance pipelining.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>

#include "adb/ordering.hpp"
#include "adb/types.hpp"
#include "framework/stack.hpp"

namespace modcast::abcast {

// The ADB service types are this module's vocabulary; import them so the
// protocol logic reads in terms of the service it implements.
using adb::AppMessage;
using adb::BatchView;
using adb::decode_batch;
using adb::decode_id_batch;
using adb::decode_message;
using adb::encode_batch;
using adb::encode_id_batch;
using adb::encode_message;
using adb::MessageView;
using adb::MsgId;

struct AbcastConfig {
  /// Indirect consensus ([12], Ekwall & Schiper DSN'06 — the paper's
  /// related work): consensus agrees on message *ids*; payloads travel only
  /// via diffusion, halving the modular stack's data volume. Requires the
  /// consensus module's extended-specification validator (wired by
  /// core::AbcastProcess).
  bool indirect_consensus = false;
};

struct AbcastStats {
  std::uint64_t liveness_kicks = 0;      ///< §3.3 timer firings that acted
  std::uint64_t payload_pulls = 0;       ///< indirect: pull requests sent
  std::uint64_t validation_deferrals = 0;  ///< indirect: validator said "not yet"
};

class ModularAbcast final : public framework::Module {
 public:
  explicit ModularAbcast(adb::OrderingConfig ordering = {},
                         AbcastConfig config = {})
      : config_(config), ordering_(ordering) {}

  std::string_view name() const override { return "modular-abcast"; }
  void init(framework::Stack& stack) override;
  void start() override;

  /// A-broadcasts payload. Never blocks: messages above the flow-control
  /// window queue locally and are admitted later (the admit handler fires
  /// then). Returns the sequence number assigned to this message.
  std::uint64_t abcast(util::Bytes payload);

  /// Flow control, delivery handlers and the shared counters.
  adb::Ordering& ordering() { return ordering_; }
  const AbcastStats& stats() const { return stats_; }

  /// Indirect-consensus validator ([12]): true iff every id in `value` is
  /// locally actionable (payload held or already delivered); otherwise
  /// starts payload pulls and returns false. Install on the consensus
  /// module via set_proposal_validator (core::AbcastProcess does this).
  bool validate_value(std::uint64_t k, const util::Payload& value);

 private:
  void on_wire(util::ProcessId from, util::Payload msg);
  void on_decide(std::uint64_t k, const util::Payload& value);
  void on_propose_request(std::uint64_t k);
  void admit_queued();
  void add_pending(AppMessage m);
  void maybe_propose();
  void arm_batch_timer(util::TimePoint now);
  void cancel_batch_timer();
  void apply_ready_decisions();
  bool decode_decision(const util::Payload& value,
                       std::vector<MessageView>& batch);
  void diffuse(const AppMessage& m);
  void arm_liveness_timer();

  // --- indirect-consensus support ---
  util::Bytes encode_value(BatchView batch) const;
  bool payload_available(const MsgId& id) const;
  void store_payload(const AppMessage& m);
  void request_payloads(const std::vector<MsgId>& missing);
  void on_new_payloads();
  void arm_payload_timer();
  void cancel_payload_timer();
  void retain_delivered(const MsgId& id);

  AbcastConfig config_;
  framework::Stack* stack_ = nullptr;
  adb::Ordering ordering_;

  util::TimePoint last_activity_ = 0;
  runtime::TimerId batch_timer_ = runtime::kInvalidTimer;  ///< δ-time trigger
  AbcastStats stats_;

  // Indirect-consensus state (unused when indirect_consensus is off).
  std::map<MsgId, util::Payload> payload_store_;  ///< views of their frames
  std::deque<MsgId> retained_order_;  ///< delivered payloads, eviction FIFO
  std::set<std::uint64_t> waiting_validation_;  ///< instances deferred
  runtime::TimerId payload_timer_ = runtime::kInvalidTimer;
};

}  // namespace modcast::abcast
