#include "faults/safety_checker.hpp"

namespace modcast::faults {

namespace {

std::string msg_str(util::ProcessId origin, std::uint64_t seq) {
  // Appended piece by piece: GCC 12 misreads a `"(" + ...` chain as an
  // overlapping copy (-Wrestrict).
  std::string s = "(";
  s += std::to_string(origin);
  s += ",";
  s += std::to_string(seq);
  s += ")";
  return s;
}

std::string ms_str(util::TimePoint t) {
  return std::to_string(util::to_milliseconds(t)) + "ms";
}

}  // namespace

SafetyChecker::SafetyChecker(std::size_t n, SafetyConfig config)
    : n_(n),
      config_(config),
      next_index_(n, 0),
      admitted_(n, 0),
      crashed_(n, false) {}

void SafetyChecker::violation(std::string detail) {
  if (violations_.size() < config_.max_violations) {
    violations_.push_back(std::move(detail));
  }
}

void SafetyChecker::on_admit(util::ProcessId origin, std::uint64_t seq,
                             util::TimePoint at) {
  if (origin >= n_) return;
  admits_observed_ = true;
  // seqs are assigned densely per origin; keep the high-water mark.
  if (seq + 1 > admitted_[origin]) admitted_[origin] = seq + 1;
  last_progress_at_ = at;
  stalled_now_ = false;
}

void SafetyChecker::on_deliver(util::ProcessId p, util::ProcessId origin,
                               std::uint64_t seq, util::TimePoint at) {
  ++deliveries_checked_;
  if (p >= n_ || origin >= n_) {
    violation("delivery at/from out-of-group process " + std::to_string(p) +
              "/" + std::to_string(origin));
    return;
  }
  if (crashed_[p]) {
    violation("crashed process " + std::to_string(p) + " delivered " +
              msg_str(origin, seq) + " at " + ms_str(at));
    return;
  }
  // Validity / no creation: only admitted messages may surface. Admission
  // precedes every send of the message, so in virtual-time order this check
  // is exact. Skipped entirely when no admits were ever observed (a caller
  // that wires only deliveries still gets order/integrity checking).
  if (admits_observed_ && seq >= admitted_[origin]) {
    violation("process " + std::to_string(p) + " delivered " +
              msg_str(origin, seq) + " which origin never admitted (" +
              std::to_string(admitted_[origin]) + " admitted) at " +
              ms_str(at));
    return;
  }

  const std::size_t i = next_index_[p];
  if (i < order_.size()) {
    // Follower: must replay the committed order exactly.
    if (!(order_[i] == MsgId{origin, seq})) {
      const bool duplicate =
          i > 0 && order_[i - 1] == MsgId{origin, seq};
      violation("process " + std::to_string(p) + " delivered " +
                msg_str(origin, seq) + " at index " + std::to_string(i) +
                (duplicate ? " twice in a row"
                           : " but the committed order holds " +
                                 msg_str(order_[i].origin, order_[i].seq)) +
                " at " + ms_str(at));
      return;  // do not advance: every later delivery of p is suspect anyway
    }
    next_index_[p] = i + 1;
  } else {
    // Leader: p extends the global committed order.
    if (!committed_set_.insert({origin, seq}).second) {
      violation("process " + std::to_string(p) + " re-delivered " +
                msg_str(origin, seq) + " already committed earlier, at " +
                ms_str(at));
      return;
    }
    order_.push_back(MsgId{origin, seq});
    commit_times_.push_back(at);
    next_index_[p] = order_.size();
    last_commit_at_ = at;
    last_progress_at_ = at;
    stalled_now_ = false;
  }
}

void SafetyChecker::on_crash(util::ProcessId p, util::TimePoint at) {
  if (p >= n_) return;
  crashed_[p] = true;
  last_progress_at_ = at;
  stalled_now_ = false;
}

bool SafetyChecker::outstanding_correct_work() const {
  // Admitted messages from still-correct origins not yet committed anywhere,
  // or a correct process trailing the committed order.
  for (util::ProcessId p = 0; p < n_; ++p) {
    if (crashed_[p]) continue;
    if (next_index_[p] < order_.size()) return true;
    for (std::uint64_t s = 0; s < admitted_[p]; ++s) {
      if (committed_set_.count({p, s}) == 0) return true;
    }
  }
  return false;
}

void SafetyChecker::on_watchdog_tick(util::TimePoint now) {
  if (stalled_now_) return;  // already flagged this window
  if (now - last_progress_at_ <= config_.stall_timeout) return;
  if (!outstanding_correct_work()) return;
  stalled_now_ = true;
  stalls_.push_back("no progress since " + ms_str(last_progress_at_) +
                    " with correct-process work outstanding (checked at " +
                    ms_str(now) + ")");
}

SafetyReport SafetyChecker::report() const {
  SafetyReport r;
  r.ok = violations_.empty();
  r.violations = violations_;
  r.stalls = stalls_;
  r.deliveries_checked = deliveries_checked_;
  r.committed = order_.size();
  r.last_commit_at = last_commit_at_;
  return r;
}

SafetyReport SafetyChecker::finalize(util::TimePoint now) {
  SafetyReport r = report();
  // Uniform agreement: every correct process must have delivered the whole
  // committed order — including messages only a crashed process got to see.
  for (util::ProcessId p = 0; p < n_; ++p) {
    if (crashed_[p]) continue;
    if (next_index_[p] != order_.size()) {
      const std::string v =
          "uniform agreement: correct process " + std::to_string(p) +
          " delivered " + std::to_string(next_index_[p]) + " of " +
          std::to_string(order_.size()) + " committed messages by " +
          ms_str(now);
      r.violations.push_back(v);
      r.ok = false;
    }
  }
  return r;
}

}  // namespace modcast::faults
