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
// Flow control (§5.1): each process may have at most `window` of its own
// messages admitted-but-not-yet-adelivered; excess abcast calls queue
// locally and are admitted when slots free up. Batches are capped at
// `max_batch`, so at saturation consensus orders M = max_batch messages per
// instance (the paper tunes M = 4).
//
// Throughput extensions (off by default, preserving the paper's behavior):
//   * adb::Batcher batching — proposals close under a count / payload-byte /
//     δ-time trigger instead of eagerly, amortizing the per-instance cost
//     over many messages;
//   * k-deep instance pipelining — up to `pipeline_depth` instances may be
//     undecided at once; decisions arriving out of instance order buffer in
//     the reorder window (ready_decisions_) and deliveries are still
//     released strictly in instance order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>

#include "adb/batcher.hpp"
#include "adb/types.hpp"
#include "framework/stack.hpp"
#include "util/seq_tracker.hpp"

namespace modcast::abcast {

// The ADB service types are this module's vocabulary; import them so the
// protocol logic reads in terms of the service it implements.
using adb::AppMessage;
using adb::decode_batch;
using adb::decode_id_batch;
using adb::decode_message;
using adb::encode_batch;
using adb::encode_id_batch;
using adb::encode_message;
using adb::encoded_size;
using adb::MsgId;

struct AbcastConfig {
  /// Per-process flow-control window W (own messages in flight).
  std::size_t window = 2;
  /// Maximum messages per consensus proposal (the paper's M).
  std::size_t max_batch = 4;
  /// Payload-byte cap/trigger for a proposal batch; 0 disables.
  std::size_t batch_bytes = 0;
  /// δ-time aggregation window: a non-full batch waits this long for more
  /// messages before being proposed. 0 = propose eagerly (the paper's
  /// behavior).
  util::Duration batch_delay = 0;
  /// Consensus instances that may be undecided at once (k-deep
  /// pipelining). 1 = strictly sequential instances (the paper's behavior).
  std::size_t pipeline_depth = 1;
  /// §3.3 "t": silence period after which a process holding unordered
  /// messages starts a consensus on its own.
  util::Duration liveness_timeout = util::milliseconds(500);
  /// Fixed CPU cost charged once per completed consensus instance at every
  /// process: instance setup/teardown, flow-control bookkeeping, timer
  /// churn, scheduler wakeups. Calibrated against the paper's testbed,
  /// whose small-message throughput plateau (~900 msgs/s at n=3 regardless
  /// of size, Fig. 11) implies a multi-millisecond fixed cost per instance.
  util::Duration instance_overhead = util::microseconds(2500);

  /// Indirect consensus ([12], Ekwall & Schiper DSN'06 — the paper's
  /// related work): consensus agrees on message *ids*; payloads travel only
  /// via diffusion, halving the modular stack's data volume. Requires the
  /// consensus module's extended-specification validator (wired by
  /// core::AbcastProcess).
  bool indirect_consensus = false;
  /// Retry period for pulling payloads named by ids we do not hold.
  util::Duration payload_pull_retry = util::milliseconds(100);
  /// Delivered payloads retained for serving late pulls (indirect mode).
  std::size_t payload_retention = 2048;
};

struct AbcastStats {
  std::uint64_t delivered = 0;           ///< adeliver events at this process
  std::uint64_t instances_completed = 0; ///< decisions applied
  std::uint64_t messages_in_decisions = 0;  ///< sum of batch sizes (for avg M)
  std::uint64_t admitted = 0;            ///< own messages admitted
  std::uint64_t liveness_kicks = 0;      ///< §3.3 timer firings that acted
  std::uint64_t payload_pulls = 0;       ///< indirect: pull requests sent
  std::uint64_t validation_deferrals = 0;  ///< indirect: validator said "not yet"
  std::uint64_t max_inflight_instances = 0;  ///< pipelining high-water mark
};

class ModularAbcast final : public framework::Module {
 public:
  /// origin, seq, payload — adeliver callback (same order at every process).
  using DeliverFn = std::function<void(util::ProcessId, std::uint64_t,
                                       const util::Bytes&)>;
  /// seq — own message admitted by flow control (the paper's t0 for early
  /// latency: the instant abcast(m) completes).
  using AdmitFn = std::function<void(std::uint64_t)>;

  explicit ModularAbcast(AbcastConfig config = {})
      : config_(config),
        batcher_(adb::BatchPolicy{config.max_batch, config.batch_bytes,
                                  config.batch_delay}) {
    if (config_.pipeline_depth == 0) config_.pipeline_depth = 1;
  }

  std::string_view name() const override { return "modular-abcast"; }
  void init(framework::Stack& stack) override;
  void start() override;

  /// A-broadcasts payload. Never blocks: messages above the flow-control
  /// window queue locally and are admitted later (AdmitFn fires then).
  /// Returns the sequence number assigned to this message.
  std::uint64_t abcast(util::Bytes payload);

  void set_deliver_handler(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_admit_handler(AdmitFn fn) { admit_ = std::move(fn); }

  const AbcastStats& stats() const { return stats_; }
  std::size_t queued() const { return app_queue_.size(); }
  std::size_t in_flight() const { return in_flight_; }
  std::size_t unordered() const { return batcher_.live(); }
  std::uint64_t next_instance() const { return next_instance_; }

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
  void diffuse(const AppMessage& m);
  void arm_liveness_timer();

  // --- indirect-consensus support ---
  util::Bytes encode_value(const std::vector<AppMessage>& batch) const;
  bool payload_available(const MsgId& id) const;
  void store_payload(const AppMessage& m);
  void request_payloads(const std::vector<MsgId>& missing);
  void on_new_payloads();
  void arm_payload_timer();
  void cancel_payload_timer();
  void retain_delivered(const MsgId& id);

  AbcastConfig config_;
  framework::Stack* stack_ = nullptr;
  DeliverFn deliver_;
  AdmitFn admit_;

  std::uint64_t next_seq_ = 0;         ///< per-origin seq for own messages
  std::size_t in_flight_ = 0;          ///< own admitted, not yet adelivered
  std::deque<util::Bytes> app_queue_;  ///< own messages awaiting admission

  adb::Batcher batcher_;  ///< unordered pool + batch trigger + in-flight marks
  util::SeqTracker delivered_;
  util::SeqTracker seen_;  ///< every id ever admitted/received (dedup)

  std::uint64_t next_instance_ = 0;  ///< next instance to propose
  std::uint64_t next_decide_ = 0;    ///< next instance to apply
  /// Decided values awaiting application: views shared with consensus.
  std::map<std::uint64_t, util::Payload> ready_decisions_;

  util::TimePoint last_activity_ = 0;
  runtime::TimerId batch_timer_ = runtime::kInvalidTimer;  ///< δ-time trigger
  AbcastStats stats_;

  // Indirect-consensus state (unused when indirect_consensus is off).
  std::map<MsgId, util::Bytes> payload_store_;
  std::deque<MsgId> retained_order_;  ///< delivered payloads, eviction FIFO
  std::set<std::uint64_t> waiting_validation_;  ///< instances deferred
  runtime::TimerId payload_timer_ = runtime::kInvalidTimer;
};

}  // namespace modcast::abcast
