// The simulation scheduler: a virtual clock driving an event queue.
#pragma once

#include <algorithm>

#include "sim/event_queue.hpp"
#include "util/time.hpp"

namespace modcast::sim {

/// Owns the virtual clock and the event queue; runs events in deterministic
/// order until a deadline, quiescence, or an explicit stop.
class Simulator {
 public:

  util::TimePoint now() const { return now_; }

  /// Schedules at an absolute virtual time (clamped to now).
  EventId at(util::TimePoint when, EventQueue::Callback fn) {
    return queue_.schedule(std::max(when, now_), std::move(fn));
  }

  /// Schedules `delay` after now (negative delays are clamped to 0).
  EventId after(util::Duration delay, EventQueue::Callback fn) {
    return queue_.schedule(now_ + std::max<util::Duration>(delay, 0),
                           std::move(fn));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs events until the queue is empty or `max_events` fire.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with time <= deadline; the clock ends at exactly `deadline`
  /// even if the queue empties earlier. Returns events executed.
  std::size_t run_until(util::TimePoint deadline);

  /// Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  std::size_t pending_events() const { return queue_.size(); }
  /// Peak simultaneously-pending events (memory-scaling reports).
  std::size_t peak_pending_events() const { return queue_.high_water(); }
  /// Exact bytes of event-queue state held (memory-scaling reports).
  std::size_t queue_state_bytes() const { return queue_.state_bytes(); }

 private:
  EventQueue queue_;
  util::TimePoint now_ = 0;
  bool stopped_ = false;
};

}  // namespace modcast::sim
