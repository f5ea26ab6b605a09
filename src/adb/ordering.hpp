// ADB ordering front end: the atomic-broadcast shell both stacks run above
// their agreement engine. A reduction of atomic broadcast to agreement keeps
// this part fixed whatever engine orders the batches, and §5.1 gives both
// stacks the same flow control, so it lives once, here:
//
//   * abcast side — the app queue, per-origin sequence numbers and the
//     flow-control window W (own messages admitted but not yet adelivered;
//     excess abcast calls queue and are admitted as slots free up);
//   * the unordered pool (Batcher) behind a delivered-id filter, and the
//     pipelining gate: at most pipeline_depth instances undecided at once;
//   * decide side — decided values buffer until every earlier instance has
//     been applied, then each batch is delivered in id order, each message
//     once, releasing own window slots.
//
// Sans-I/O: it sends nothing, arms no timer and charges no CPU. The stack
// that drives it says what an admitted message does (diffuse it, or route
// it to the coordinator), how a decided value decodes (indirect consensus
// resolves ids and may have to wait for payloads), and what else it tracks
// per delivered message.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "adb/batcher.hpp"
#include "adb/types.hpp"
#include "util/bytes.hpp"
#include "util/ring.hpp"
#include "util/seq_tracker.hpp"
#include "util/time.hpp"

namespace modcast::adb {

/// The ordering options both stacks read (core::StackOptions derives from
/// this struct and hands it to the stack whole).
struct OrderingConfig {
  /// Per-process flow-control window W (own messages in flight).
  std::size_t window = 2;
  /// Maximum messages per consensus proposal (the paper's M). With this
  /// effectively uncapped default, M is governed by the global backlog
  /// n·W — the paper's "each process is allowed a certain backlog" flow
  /// control. Benches that reproduce the §5.2 tables pin M = 4.
  std::size_t max_batch = 64;
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
  /// messages acts on its own.
  util::Duration liveness_timeout = util::milliseconds(500);
  /// Fixed CPU cost charged once per applied consensus instance at every
  /// process: instance setup/teardown, flow-control bookkeeping, timer
  /// churn, scheduler wakeups. Calibrated against the paper's testbed,
  /// whose small-message throughput plateau (~900 msgs/s at n=3 regardless
  /// of size, Fig. 11) implies a multi-millisecond fixed cost per instance.
  util::Duration instance_overhead = util::microseconds(2500);
};

struct OrderingStats {
  std::uint64_t delivered = 0;              ///< adeliver events
  std::uint64_t instances_completed = 0;    ///< decisions applied
  std::uint64_t admitted = 0;               ///< own messages admitted
  std::uint64_t max_inflight_instances = 0; ///< pipelining high-water mark
};

class Ordering {
 public:
  /// origin, seq, payload — adeliver callback (same order at every process).
  /// The payload is a view into the decided value, valid during the call.
  using DeliverFn = std::function<void(util::ProcessId, std::uint64_t,
                                       std::span<const std::uint8_t>)>;
  /// seq — own message admitted by flow control (the paper's t0 for early
  /// latency: the instant abcast(m) completes).
  using AdmitFn = std::function<void(std::uint64_t)>;

  explicit Ordering(OrderingConfig config)
      : config_(config),
        pool_(BatchPolicy{config.max_batch, config.batch_bytes,
                          config.batch_delay}) {
    if (config_.pipeline_depth == 0) config_.pipeline_depth = 1;
  }

  /// This process's id: the origin of its own messages.
  void init(util::ProcessId self) { self_ = self; }

  const OrderingConfig& config() const { return config_; }
  const OrderingStats& stats() const { return stats_; }
  void set_deliver_handler(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_admit_handler(AdmitFn fn) { admit_ = std::move(fn); }

  // --- abcast side ---------------------------------------------------------

  /// Queues an own message. Returns its sequence number: admission is
  /// strictly FIFO, so the queue position fixes it before admission.
  std::uint64_t enqueue(util::Bytes payload) {
    queue_.push_back(std::move(payload));
    return next_seq_ + queue_.size() - 1;
  }

  /// Admits queued messages while the window has room. Each gets its id,
  /// fires the admit handler, then goes to `on_admitted(AppMessage)`.
  template <typename Fn>
  void admit(Fn&& on_admitted) {
    while (in_flight_ < config_.window && !queue_.empty()) {
      AppMessage m;
      m.id = MsgId{self_, next_seq_++};
      m.payload = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      ++stats_.admitted;
      if (admit_) admit_(m.id.seq);
      on_admitted(std::move(m));
    }
  }

  std::size_t queued() const { return queue_.size(); }
  std::size_t in_flight() const { return in_flight_; }

  // --- unordered pool and pipelining gate ----------------------------------

  /// Pools a message for ordering. False when it is already pooled or
  /// delivered.
  bool pool_add(AppMessage m, util::TimePoint now) {
    return !delivered(m.id) && pool_.add(std::move(m), now);
  }
  bool delivered(const MsgId& id) const {
    return delivered_.seen(id.origin, id.seq);
  }
  /// The pool's batch trigger and contents (added to only via pool_add).
  const Batcher& pool() const { return pool_; }

  /// Instance the next proposal orders.
  std::uint64_t next_instance() const { return next_instance_; }
  /// Pipelining gate: fewer than pipeline_depth instances are proposed and
  /// still unapplied.
  bool can_propose() const {
    return next_instance_ - next_decide_ < config_.pipeline_depth;
  }
  /// Cuts the proposal batch of next_instance() from the pool and moves on
  /// to the next instance. Empty (and no move) when nothing was eligible.
  /// The batch references pooled entries (see Batcher::cut).
  BatchView cut() {
    const BatchView batch = pool_.cut(next_instance_);
    if (batch.empty()) return batch;
    ++next_instance_;
    stats_.max_inflight_instances = std::max<std::uint64_t>(
        stats_.max_inflight_instances, next_instance_ - next_decide_);
    return batch;
  }
  /// A proposal for instance k went out from outside the gate (a recovery
  /// round asked for it): later proposals start after k.
  void proposed(std::uint64_t k) {
    next_instance_ = std::max(next_instance_, k + 1);
  }

  // --- decide side ---------------------------------------------------------

  /// Next instance to apply: every earlier decision has been applied.
  std::uint64_t next_decide() const { return next_decide_; }
  /// Buffers the decided value of instance k. False (ignored) when k has
  /// already been applied or is being applied.
  bool add_decision(std::uint64_t k, util::Payload value) {
    if (k < next_decide_ || (applying_ && k == next_decide_)) return false;
    const std::uint64_t i = k - next_decide_;
    while (ready_.size() <= i) ready_.push_back(std::nullopt);
    if (!ready_[i]) ++buffered_;
    ready_[i] = std::move(value);
    return true;
  }
  /// Decided instances buffered, not yet applied.
  std::size_t buffered() const { return buffered_; }
  /// The next instance to apply is buffered but its decode refused.
  bool blocked() const { return !ready_.empty() && ready_.front(); }

  /// Applies buffered decisions strictly in instance order.
  /// `decode(value, batch)` fills `batch` with the instance's messages as
  /// views into `value` (or into payloads the stack holds) and returns
  /// true, or returns false to leave the instance buffered (payloads still
  /// missing). The value stays in the reorder buffer while its batch is
  /// applied, so the views stay valid and applying takes no reference
  /// count. Each batch is delivered in id order, each message once;
  /// `on_deliver(m)` runs for each newly delivered message before the
  /// deliver handler. Returns the CPU cost of the instances applied
  /// (instance_overhead each) for the stack to charge. A call from inside a
  /// deliver handler returns 0 at once: the running call applies whatever
  /// the handler made ready.
  template <typename Decode, typename OnDeliver>
  util::Duration apply_ready(Decode&& decode, OnDeliver&& on_deliver) {
    if (applying_) return 0;
    struct Applying {
      bool& flag;
      explicit Applying(bool& f) : flag(f) { flag = true; }
      ~Applying() { flag = false; }
    } applying(applying_);
    util::Duration cost = 0;
    while (!ready_.empty() && ready_.front()) {
      if (!decode(*ready_.front(), batch_)) break;
      std::sort(batch_.begin(), batch_.end(),
                [](const MessageView& a, const MessageView& b) {
                  return a.id < b.id;
                });
      for (const MessageView& m : batch_) {
        if (!delivered_.mark(m.id.origin, m.id.seq)) continue;  // dup across k
        pool_.mark_ordered(m.id);
        if (m.id.origin == self_ && in_flight_ > 0) --in_flight_;
        on_deliver(m);
        ++stats_.delivered;
        if (deliver_) deliver_(m.id.origin, m.id.seq, m.payload);
      }
      ++stats_.instances_completed;
      // Clear the in-flight marks only now that the decision is APPLIED: a
      // decision buffered out of instance order must keep its messages
      // marked, or they would be re-proposed and the exact §5.2 accounting
      // breaks.
      pool_.on_decided(next_decide_);
      batch_.clear();  // its views die with the value
      ready_.pop_front();
      --buffered_;
      ++next_decide_;
      next_instance_ = std::max(next_instance_, next_decide_);
      cost += config_.instance_overhead;
    }
    return cost;
  }

 private:
  OrderingConfig config_;
  util::ProcessId self_ = util::kInvalidProcess;
  DeliverFn deliver_;
  AdmitFn admit_;
  OrderingStats stats_;

  std::uint64_t next_seq_ = 0;     ///< per-origin seq for own messages
  std::size_t in_flight_ = 0;      ///< own admitted, not yet adelivered
  std::deque<util::Bytes> queue_;  ///< own messages awaiting admission

  Batcher pool_;  ///< unordered messages + batch trigger + in-flight marks
  util::SeqTracker delivered_;

  std::uint64_t next_instance_ = 0;  ///< next instance to propose
  std::uint64_t next_decide_ = 0;    ///< next instance to apply
  /// Reorder buffer: ready_[i] is the decided value of instance
  /// next_decide_ + i, if it arrived (a view shared with the engine).
  util::Ring<std::optional<util::Payload>> ready_;
  std::size_t buffered_ = 0;  ///< engaged slots of ready_
  bool applying_ = false;     ///< apply_ready is running
  std::vector<MessageView> batch_;  ///< the batch being applied (reused)
};

}  // namespace modcast::adb
