#include "sim/cpu.hpp"

#include <algorithm>

namespace modcast::sim {

void Cpu::execute(util::Duration cost, WorkFn fn) {
  if (halted_) return;
  queue_.push_back(Work{std::max<util::Duration>(cost, 0), std::move(fn)});
  if (!running_) start_next();
}

void Cpu::start_next() {
  if (halted_ || queue_.empty()) {
    running_ = false;
    return;
  }
  running_ = true;

  const util::TimePoint start = std::max(free_at_, sim_->now());
  free_at_ = start + queue_.front().cost;
  busy_time_ += queue_.front().cost;
  // The work item stays queued until it fires so the scheduled closure only
  // captures `this` (stays within the event queue's inline storage).
  sim_->at(free_at_, [this] {
    if (halted_) return;  // halt() cleared the queue
    Work work = std::move(queue_.front());
    queue_.pop_front();
    work.fn();  // fn may call charge(), extending free_at_
    start_next();
  });
}

void Cpu::charge(util::Duration cost) {
  if (halted_) return;
  cost = std::max<util::Duration>(cost, 0);
  free_at_ = std::max(free_at_, sim_->now()) + cost;
  busy_time_ += cost;
}

void Cpu::halt() {
  halted_ = true;
  queue_.clear();
  running_ = false;
}

void Cpu::mark_window() {
  window_start_ = sim_->now();
  window_busy_base_ = busy_time_;
}

double Cpu::window_utilization() const {
  const util::Duration elapsed = sim_->now() - window_start_;
  if (elapsed <= 0) return 0.0;
  const util::Duration busy = busy_time_ - window_busy_base_;
  return std::min(1.0, static_cast<double>(busy) /
                           static_cast<double>(elapsed));
}

}  // namespace modcast::sim
