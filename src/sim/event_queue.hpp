// Deterministic discrete-event queue.
//
// Events are ordered by (time, insertion sequence): two events scheduled for
// the same instant fire in the order they were scheduled. This makes every
// simulation a pure function of its inputs and seed, which the property
// tests rely on for replayability.
//
// Implementation: callbacks live in a slab-pooled slot store (InlineFn keeps
// small captures allocation-free; SlabPool keeps the slots pointer-stable,
// so growth never relocates a live callback). The heap itself is a flat
// 4-ary heap of 24-byte entries referencing slots by index. Cancellation is
// O(1): each slot carries a generation counter, and an EventId embeds the
// generation it was issued under, so cancel just bumps the generation and
// the stale heap entry is skipped when it surfaces.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/arena.hpp"
#include "util/inline_fn.hpp"
#include "util/time.hpp"

namespace modcast::sim {

/// Handle for cancelling a scheduled event. Encodes (generation << 32) |
/// (slot + 1); never 0, so 0 is usable as "no event".
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Callables up to 64 capture bytes are stored inline in the slot pool.
  using Callback = util::InlineFn<64>;

  /// Schedules `fn` at absolute time `when`. Returns a handle usable with
  /// cancel().
  EventId schedule(util::TimePoint when, Callback fn);

  /// Cancels a pending event. Cancelling an already-fired or unknown event is
  /// a no-op (timers race with their own firing; that must be benign).
  void cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest pending event. Precondition: !empty().
  util::TimePoint next_time() const;

  /// Removes and returns the earliest event's action. Precondition: !empty().
  Callback pop(util::TimePoint* when);

  /// Peak simultaneously-pending events over the queue's lifetime.
  std::size_t high_water() const { return slots_.high_water(); }

  /// Bytes of heap state the queue holds (slot slabs + heap vector). Exact
  /// and deterministic; the scalability bench reports it.
  std::size_t state_bytes() const;

 private:
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
  };
  struct HeapEntry {
    util::TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void release_slot(std::uint32_t slot);

  // Heap maintenance is const so next_time() can purge stale (cancelled)
  // tops; only the mutable heap vector changes, never the slot pool.
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  void heap_pop_top() const;
  void drop_stale() const;

  mutable std::vector<HeapEntry> heap_;
  SlabPool<Slot> slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace modcast::sim
