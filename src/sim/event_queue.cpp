#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace modcast::sim {

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.generation;  // invalidates any outstanding EventId / heap entry
  slots_.release(slot);
}

EventId EventQueue::schedule(util::TimePoint when, Callback fn) {
  const std::uint32_t slot = slots_.acquire();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const EventId id = (static_cast<EventId>(s.generation) << 32) |
                     static_cast<EventId>(slot + 1);
  heap_.push_back(HeapEntry{when, next_seq_++, slot, s.generation});
  sift_up(heap_.size() - 1);
  ++live_;
  return id;
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t lo = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (lo == 0) return;
  const std::uint32_t slot = lo - 1;
  if (slot >= slots_.high_water()) return;
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slots_[slot].generation != gen) return;  // already fired or cancelled
  release_slot(slot);
  --live_;
  // The heap entry stays; drop_stale()/pop() skip it via the generation
  // mismatch when it surfaces at the head.
}

void EventQueue::drop_stale() const {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].generation != heap_.front().gen) {
    heap_pop_top();
  }
}

util::TimePoint EventQueue::next_time() const {
  assert(live_ > 0);
  drop_stale();
  assert(!heap_.empty());
  return heap_.front().when;
}

EventQueue::Callback EventQueue::pop(util::TimePoint* when) {
  assert(live_ > 0);
  drop_stale();
  assert(!heap_.empty());
  const HeapEntry top = heap_.front();
  if (when != nullptr) *when = top.when;
  Callback fn = std::move(slots_[top.slot].fn);
  release_slot(top.slot);
  heap_pop_top();
  --live_;
  return fn;
}

std::size_t EventQueue::state_bytes() const {
  return slots_.state_bytes() + heap_.capacity() * sizeof(HeapEntry);
}

void EventQueue::sift_up(std::size_t i) const {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (earlier(e, heap_[parent])) {
      heap_[i] = heap_[parent];
      i = parent;
    } else {
      break;
    }
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) const {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::heap_pop_top() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

}  // namespace modcast::sim
