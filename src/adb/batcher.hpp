// ADB proposal batcher: the pending-message pool both atomic broadcast
// stacks draw consensus proposals from, plus the trigger policy deciding
// WHEN a batch is worth proposing.
//
// Batching for throughput adds two triggers to the paper's count cap — a
// payload-byte threshold and a δ-time aggregation window — and instance
// pipelining adds bookkeeping for messages already proposed in a
// still-undecided instance (they must not be re-proposed in a later
// instance, or the exact per-run accounting of §5.2 breaks). That
// bookkeeping is protocol-agnostic data management, so it lives in the adb
// service layer, shared by both stacks — exactly like the batch wire format.
//
// Pool semantics:
//   * entries keep their arrival order and stay in the pool until marked
//     ordered (delivery), even while riding an in-flight proposal;
//   * a cut takes eligible entries in arrival order, skipping those in
//     flight; when an instance is decided, those of its entries it did not
//     order become eligible again at their arrival position;
//   * iteration (for re-diffusion / recovery estimates) walks live entries
//     in arrival order.
//
// The pool is flat: entries sit in one ring in arrival order, each with a
// state (live, in flight under k, ordered), and are found by id through
// per-origin dense offsets. Ordered entries leave from the front, so once
// the ring has reached its high-water mark, adding, cutting, ordering and
// deciding allocate nothing, and a cut hands out references, not copies.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "adb/types.hpp"
#include "util/ring.hpp"
#include "util/seq_index.hpp"
#include "util/time.hpp"

namespace modcast::adb {

/// When is a pending pool "ready" to be cut into a proposal, and how large
/// may the cut get. A batch closes as soon as ANY trigger fires.
struct BatchPolicy {
  /// Count cap/trigger (the paper's M).
  std::size_t max_count = 4;
  /// Payload-byte cap/trigger; 0 disables the byte dimension.
  std::size_t max_bytes = 0;
  /// δ-time aggregation window: a non-full batch waits until its oldest
  /// eligible message is this old. 0 = cut eagerly (the paper's behavior).
  util::Duration max_delay = 0;
};

class Batcher {
 public:
  Batcher() = default;
  explicit Batcher(BatchPolicy policy) : policy_(policy) {}

  const BatchPolicy& policy() const { return policy_; }

  /// Adds a message to the pool. Returns false on duplicate (id already
  /// pooled). `now` timestamps the entry for the δ-time trigger. An id once
  /// marked ordered is never added again (the ordering front end's
  /// delivered filter refuses it).
  bool add(AppMessage m, util::TimePoint now);

  /// Marks a message ordered (delivered): it stops being live and its
  /// payload view is released. No-op for an id the pool does not hold.
  void mark_ordered(const MsgId& id);

  bool contains(const MsgId& id) const;
  /// Live entries, including those riding an in-flight proposal.
  std::size_t live() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Live entries NOT in any in-flight proposal — what the next cut() can
  /// draw from.
  std::size_t eligible() const { return eligible_; }

  /// True when the eligible pool should be proposed now: it is non-empty
  /// AND (max_delay is 0, or the count/byte cap is reached, or the oldest
  /// eligible message has waited max_delay).
  bool ready(util::TimePoint now) const;
  /// Instant the δ-time trigger fires for the current oldest eligible
  /// entry. Meaningful only when eligible() > 0 and !ready().
  util::TimePoint deadline() const;

  /// Cuts a batch for instance k: up to the policy caps of eligible
  /// messages in arrival order, marked in flight under k so later cuts skip
  /// them. The batch references pooled entries; it is valid until the pool
  /// next changes.
  BatchView cut(std::uint64_t k);

  /// Instance k reached a decision that was applied: its in-flight marks
  /// drop, so any of its messages the decision did NOT order become
  /// eligible again.
  void on_decided(std::uint64_t k);

  /// Instances with an in-flight (cut, undecided) proposal.
  std::size_t instances_in_flight() const { return in_flight_.size(); }

  /// Live entries in arrival order (re-diffusion, recovery estimates).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (std::size_t i = 0; i < fifo_.size(); ++i) {
      if (fifo_[i].state != State::kOrdered) fn(fifo_[i].msg);
    }
  }

  /// Up to `cap` live entries in arrival order, in-flight ones included —
  /// recovery proposals must cover everything we hold (duplicates across
  /// instances are filtered at delivery). Marks nothing; like cut(), the
  /// batch is valid until the pool next changes.
  BatchView peek(std::size_t cap) const;

 private:
  enum class State : std::uint8_t { kLive, kInFlight, kOrdered };

  struct Entry {
    AppMessage msg;
    util::TimePoint added_at = 0;
    std::uint64_t instance = 0;  ///< meaningful in state kInFlight
    State state = State::kLive;
  };

  /// The entry pooled under id, or nullptr.
  Entry* find(const MsgId& id);
  const Entry* find(const MsgId& id) const;

  BatchPolicy policy_;
  /// Arrival order; ordered entries leave from the front.
  util::Ring<Entry> fifo_;
  /// Entries that have left, so fifo_[0]'s arrival number.
  std::uint64_t popped_ = 0;
  util::SeqIndex at_;         ///< id -> arrival number
  std::size_t live_ = 0;      ///< entries not ordered
  std::size_t eligible_ = 0;  ///< entries neither ordered nor in flight
  std::vector<std::uint64_t> in_flight_;  ///< instances holding marks
  /// The batch cut() and peek() hand out (reused: no allocation per cut).
  mutable std::vector<std::reference_wrapper<const AppMessage>> batch_;
};

}  // namespace modcast::adb
