#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <latch>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>

#include "alloc_counter.hpp"
#include "runtime/sim_world.hpp"
#include "runtime/thread_world.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace modbench {

namespace mc = modcast;
using mc::util::Duration;
using mc::util::ProcessId;
using mc::util::TimePoint;
using mc::util::milliseconds;
using mc::util::seconds;

// ---------------------------------------------------------------------------
// The workloads. Rates and sizes follow the paper's settings (§5) and the
// repo's extension benches; see README.md for why each exists.
// ---------------------------------------------------------------------------

const std::vector<Workload>& all_workloads() {
  using mc::core::StackKind;
  static const std::vector<Workload> kWorkloads = {
      {"paper-n7-modular",
       "the paper's setting (n=7, 16 KiB, Fig. 8 mid-load) on the modular "
       "stack: every layer crossing and payload copy is exercised",
       WorldKind::kSim, StackKind::kModular, 7, 16384, 500.0,
       milliseconds(1500), seconds(6), seconds(1), 3000.0, 0},
      {"paper-n7-monolithic",
       "the same traffic through the one-module stack; with "
       "paper-n7-modular it is the paper's modularity gap",
       WorldKind::kSim, StackKind::kMonolithic, 7, 16384, 500.0,
       milliseconds(1500), seconds(6), seconds(1), 3000.0, 0},
      {"thread-n3-modular",
       "real threads and 64 B messages: the runtime (mailbox, locks, timers, "
       "wake-ups) and per-message framework cost dominate",
       WorldKind::kThread, StackKind::kModular, 3, 64, 10000.0, seconds(1),
       0, 0, 0.0, 0},
      {"thread-n3-monolithic",
       "real threads on the one-module stack, where the forward-flush timer "
       "path sets latency",
       WorldKind::kThread, StackKind::kMonolithic, 3, 64, 10000.0, seconds(1),
       0, 0, 0.0, 0},
      {"bign-n65-modular",
       "n=65, 8 KiB: O(n^2) fan-out makes the simulator core (event queue, "
       "network) and memory dominate",
       WorldKind::kSim, StackKind::kModular, 65, 8192, 150.0,
       milliseconds(1500), seconds(7), seconds(1), 0.0, 0},
      {"crash-n7-modular",
       "p0, the initial coordinator, crashes: failure-detector suspicion, "
       "consensus round change and recovery run only here",
       WorldKind::kSim, StackKind::kModular, 7, 1024, 600.0, seconds(1),
       seconds(4), seconds(4), 0.0, seconds(2)},
      {"crash-n7-monolithic",
       "the monolithic recovery path after the coordinator crash, including "
       "decision replies for already-decided instances",
       WorldKind::kSim, StackKind::kMonolithic, 7, 1024, 600.0, seconds(1),
       seconds(4), seconds(4), 0.0, seconds(2)},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

// The flow-control refusal rule of workload::run_once: an attempt is
// skipped when this many messages already wait for admission.
constexpr std::size_t kBlockThreshold = 4;
// ThreadWorld closed loop: messages each process keeps outstanding, and
// messages each process sends per second of --seconds. A fixed count, not a
// fixed time, keeps the run's memory footprint independent of its speed.
// The count is split into episodes that each start from idle: a run tends to
// settle into one throughput for good, so the median over episodes repeats
// better than one long loop.
constexpr int kClosedLoopOutstanding = 4;
constexpr double kClosedLoopMsgsPerSecond = 50000;
constexpr int kClosedLoopEpisodes = 5;
// SimWorld measured repetitions (after one discarded warm-up repetition);
// more follow until --seconds of wall time has been spent in them.
constexpr int kMinRepetitions = 5;
// Deployments built only to time setup_s, besides those the run uses.
constexpr int kSetupProbes = 20;
// Timeline capture: the first second of the measured window.
constexpr Duration kCaptureWindow = seconds(1);
constexpr std::size_t kCaptureSpans = 200000;

// --- clocks and machine ----------------------------------------------------

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

class PhaseClock {
 public:
  explicit PhaseClock(std::vector<std::pair<std::string, double>>& out)
      : out_(&out) {}
  void add(const std::string& name, double secs) {
    for (auto& [k, v] : *out_) {
      if (k == name) {
        v += secs;
        return;
      }
    }
    out_->emplace_back(name, secs);
  }

 private:
  std::vector<std::pair<std::string, double>>* out_;
};

// --- per-message records ---------------------------------------------------

/// Timestamps indexed by message slot. calloc'ed, so slots a run never
/// reaches cost no resident memory; stored as t + 1 so 0 means unset.
class Stamps {
 public:
  explicit Stamps(std::size_t count)
      : data_(static_cast<std::int64_t*>(
            std::calloc(count == 0 ? 1 : count, sizeof(std::int64_t)))) {
    if (data_ == nullptr) throw std::bad_alloc();
  }
  ~Stamps() { std::free(data_); }
  Stamps(const Stamps&) = delete;
  Stamps& operator=(const Stamps&) = delete;

  void set(std::size_t i, std::int64_t t) { data_[i] = t + 1; }
  /// -1 when unset.
  std::int64_t get(std::size_t i) const { return data_[i] - 1; }
  /// Keeps the earliest of concurrent stores (first adeliver anywhere).
  void set_min(std::size_t i, std::int64_t t) {
    std::atomic_ref<std::int64_t> a(data_[i]);
    std::int64_t cur = a.load(std::memory_order_relaxed);
    while ((cur == 0 || t + 1 < cur) &&
           !a.compare_exchange_weak(cur, t + 1, std::memory_order_relaxed)) {
    }
  }

 private:
  std::int64_t* data_;
};

/// Everything the deliver/admit handlers and the generators record. Each
/// per-process field is written only by that process's thread (or the
/// single simulator thread); counters the generator thread polls are
/// atomics. The first `per_origin` messages of each origin are timestamped;
/// later ones (ThreadWorld's closed loop) are only logged.
class Recorder {
 public:
  static constexpr int kWindows = 2;  // 0: fixed-rate window, 1: capacity

  Recorder(std::size_t n, std::size_t per_origin, std::size_t log_reserve)
      : n_(n),
        per_origin_(per_origin),
        due_(n * per_origin),
        called_(n * per_origin),
        admitted_(n * per_origin),
        first_(n * per_origin),
        procs_(n) {
    for (auto& p : procs_) p.log.reserve(log_reserve);
    for (auto& w : windows_) {
      w.start.store(INT64_MAX);
      w.end.store(INT64_MAX);
    }
  }

  std::size_t n() const { return n_; }
  /// Opens window k and zeroes its counts; call while no deliveries run
  /// (before the run, or after a drain).
  void set_window(int k, TimePoint start, TimePoint end) {
    for (auto& pp : procs_) pp.in_window[k] = 0;
    windows_[k].start.store(start, std::memory_order_relaxed);
    windows_[k].end.store(end, std::memory_order_relaxed);
  }
  /// Ends window k at t unless it already ended earlier (any thread).
  void end_window_by(int k, TimePoint t) {
    TimePoint cur = windows_[k].end.load(std::memory_order_relaxed);
    while (t < cur && !windows_[k].end.compare_exchange_weak(cur, t)) {
    }
  }
  TimePoint window_start(int k) const { return windows_[k].start.load(); }
  TimePoint window_end(int k) const { return windows_[k].end.load(); }
  void set_crash_at(TimePoint t) { crash_at_ = t; }

  std::uint64_t next_seq(ProcessId p) const {
    return procs_[p].sent.load(std::memory_order_relaxed);
  }

  void attempt(ProcessId p, bool refused) {
    ++procs_[p].attempts;
    if (refused) ++procs_[p].refused;
  }
  void abcast(ProcessId p, std::uint64_t seq, TimePoint due, TimePoint called) {
    if (seq < per_origin_) {
      due_.set(slot(p, seq), due);
      called_.set(slot(p, seq), called);
    }
    procs_[p].sent.store(seq + 1, std::memory_order_relaxed);
  }
  void admit(ProcessId p, std::uint64_t seq, TimePoint t) {
    if (seq < per_origin_) admitted_.set(slot(p, seq), t);
    procs_[p].admitted = seq + 1;
  }
  void deliver(ProcessId p, ProcessId origin, std::uint64_t seq, TimePoint t) {
    PerProcess& pp = procs_[p];
    pp.log.push_back(msg_key(origin, seq));
    if (origin < n_ && seq < per_origin_) first_.set_min(slot(origin, seq), t);
    for (int k = 0; k < kWindows; ++k) {
      if (t >= windows_[k].start.load(std::memory_order_relaxed) &&
          t < windows_[k].end.load(std::memory_order_relaxed)) {
        ++pp.in_window[k];
      }
    }
    // Time without service ends with the first delivery of a message
    // admitted after the crash: messages ordered before it may still be
    // delivered moments later and say nothing about recovery.
    if (crash_at_ > 0 && first_after_crash_ < 0 && origin < n_ &&
        seq < per_origin_ && admitted_.get(slot(origin, seq)) >= crash_at_) {
      first_after_crash_ = t;
    }
    pp.delivered.store(pp.log.size(), std::memory_order_release);
  }

  // --- read by the generator thread -----------------------------------------
  std::uint64_t total_sent() const {
    std::uint64_t s = 0;
    for (const auto& p : procs_) s += p.sent.load(std::memory_order_relaxed);
    return s;
  }
  bool all_delivered_everywhere() const {
    const std::uint64_t sent = total_sent();
    for (const auto& p : procs_) {
      if (p.delivered.load(std::memory_order_acquire) != sent) return false;
    }
    return true;
  }

  // --- read after the run -------------------------------------------------
  TimePoint due(ProcessId p, std::uint64_t s) const {
    return due_.get(slot(p, s));
  }
  TimePoint called(ProcessId p, std::uint64_t s) const {
    return called_.get(slot(p, s));
  }
  TimePoint admitted_at(ProcessId p, std::uint64_t s) const {
    return admitted_.get(slot(p, s));
  }
  TimePoint first_deliver(ProcessId p, std::uint64_t s) const {
    return first_.get(slot(p, s));
  }
  std::uint64_t sent(ProcessId p) const { return next_seq(p); }
  /// Messages of origin p that carry timestamps.
  std::uint64_t stamped(ProcessId p) const {
    return std::min<std::uint64_t>(sent(p), per_origin_);
  }
  std::uint64_t admitted(ProcessId p) const { return procs_[p].admitted; }
  std::uint64_t attempts(ProcessId p) const { return procs_[p].attempts; }
  std::uint64_t refused(ProcessId p) const { return procs_[p].refused; }
  TimePoint first_after_crash() const { return first_after_crash_; }

  /// Timestamped messages first adelivered (anywhere) in [from, to).
  std::uint64_t first_delivered_between(TimePoint from, TimePoint to) const {
    std::uint64_t c = 0;
    for (ProcessId p = 0; p < n_; ++p) {
      for (std::uint64_t s = 0; s < stamped(p); ++s) {
        const TimePoint t = first_deliver(p, s);
        if (t >= from && t < to) ++c;
      }
    }
    return c;
  }

  /// The paper's T: mean over processes of the adeliver rate in window k.
  double throughput(int k) const {
    const double secs = mc::util::to_seconds(window_end(k) - window_start(k));
    double sum = 0;
    for (const auto& pp : procs_) {
      sum += static_cast<double>(pp.in_window[k]) / secs;
    }
    return sum / static_cast<double>(n_);
  }

  ContractInput contract_input(const std::vector<bool>& crashed) {
    ContractInput in;
    in.crashed = crashed;
    for (ProcessId p = 0; p < n_; ++p) {
      in.logs.push_back(procs_[p].log);
      in.sent.push_back(sent(p));
      if (crashed[p]) continue;
      for (std::uint64_t s = 0; s < admitted(p); ++s) {
        in.admitted_by_correct.push_back(msg_key(p, s));
      }
    }
    return in;
  }

  /// Messages a correct process abcast but no correct process delivered,
  /// counted against one correct log (agreement makes them all equal).
  std::uint64_t unfinished(const std::vector<bool>& crashed) const {
    ProcessId ref = 0;
    while (ref < n_ && crashed[ref]) ++ref;
    if (ref == n_) return 0;
    std::vector<std::uint64_t> delivered(n_, 0);
    for (MsgKey k : procs_[ref].log) {
      if (key_origin(k) < n_) ++delivered[key_origin(k)];
    }
    std::uint64_t c = 0;
    for (ProcessId p = 0; p < n_; ++p) {
      if (!crashed[p] && sent(p) > delivered[p]) c += sent(p) - delivered[p];
    }
    return c;
  }

 private:
  struct Window {
    std::atomic<TimePoint> start{INT64_MAX};
    std::atomic<TimePoint> end{INT64_MAX};
  };
  struct alignas(64) PerProcess {
    std::vector<MsgKey> log;
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> delivered{0};
    std::uint64_t admitted = 0;
    std::uint64_t attempts = 0;
    std::uint64_t refused = 0;
    std::uint64_t in_window[kWindows] = {};
  };

  std::size_t slot(ProcessId p, std::uint64_t seq) const {
    return static_cast<std::size_t>(p) * per_origin_ +
           static_cast<std::size_t>(seq);
  }

  std::size_t n_;
  std::size_t per_origin_;
  Stamps due_, called_, admitted_, first_;
  std::vector<PerProcess> procs_;
  Window windows_[kWindows];
  TimePoint crash_at_ = 0;
  TimePoint first_after_crash_ = -1;
};

// --- public counters --------------------------------------------------------

/// Public counters of the stacks, plus the simulator's network totals on
/// SimWorld. Window deltas are exact on SimWorld.
struct Counters {
  std::uint64_t local_events = 0;
  std::uint64_t wire_sends = 0;
  std::uint64_t wire_deliveries = 0;
  std::array<std::uint64_t, 6> sent{};  // by wire-demux module id
  std::array<std::uint64_t, 6> bytes{};
  std::array<std::uint64_t, 6> recv{};
  std::uint64_t instances = 0;  // summed over processes
  std::uint64_t in_decisions = 0;
  std::uint64_t late_decisions = 0;
  std::uint64_t net_msgs = 0;
  std::uint64_t net_wire_bytes = 0;
  std::uint64_t max_round = 0;  // highest over processes, not summed

  bool operator==(const Counters&) const = default;

  /// One process's counters; call on the thread that runs it.
  static Counters of(mc::core::AbcastProcess& proc) {
    Counters c;
    auto& st = proc.stack();
    c.local_events = st.counters().local_events;
    c.wire_sends = st.counters().wire_sends;
    c.wire_deliveries = st.counters().wire_deliveries;
    for (std::uint8_t m = 1; m < c.sent.size(); ++m) {
      c.sent[m] = st.wire_counters(m).messages_sent;
      c.bytes[m] = st.wire_counters(m).bytes_sent;
      c.recv[m] = st.wire_counters(m).messages_received;
    }
    const auto s = proc.stats();
    c.instances = s.instances_completed;
    c.in_decisions = s.messages_in_decisions;
    c.late_decisions = s.late_decisions;
    c.max_round = s.max_round;
    return c;
  }

  void merge(const Counters& o) {
    for_each_sum(o, [](std::uint64_t& a, std::uint64_t b) { a += b; });
    max_round = std::max(max_round, o.max_round);
  }

  /// Window delta; max_round keeps the end-of-window value.
  Counters minus(const Counters& start) const {
    Counters d = *this;
    d.for_each_sum(start, [](std::uint64_t& a, std::uint64_t b) { a -= b; });
    return d;
  }

 private:
  template <typename Op>
  void for_each_sum(const Counters& o, Op op) {
    op(local_events, o.local_events);
    op(wire_sends, o.wire_sends);
    op(wire_deliveries, o.wire_deliveries);
    for (std::size_t m = 0; m < sent.size(); ++m) {
      op(sent[m], o.sent[m]);
      op(bytes[m], o.bytes[m]);
      op(recv[m], o.recv[m]);
    }
    op(instances, o.instances);
    op(in_decisions, o.in_decisions);
    op(late_decisions, o.late_decisions);
    op(net_msgs, o.net_msgs);
    op(net_wire_bytes, o.net_wire_bytes);
  }
};

using Processes = std::vector<std::unique_ptr<mc::core::AbcastProcess>>;

Counters sim_counters(mc::runtime::SimWorld& world, Processes& procs) {
  Counters c;
  for (auto& p : procs) c.merge(Counters::of(*p));
  c.net_msgs = world.network().total().messages;
  c.net_wire_bytes = world.network().total().wire_bytes;
  return c;
}

/// Wire-demux modules present in a stack, fd included.
std::vector<std::uint8_t> stack_modules(mc::core::StackKind kind) {
  namespace fw = mc::framework;
  if (kind == mc::core::StackKind::kModular) {
    return {fw::kModAbcast, fw::kModConsensus, fw::kModRbcast, fw::kModFd};
  }
  return {fw::kModMonolithic, fw::kModFd};
}

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit) {
  out.push_back({std::move(name), value, std::move(unit)});
}

void add_percentile(std::vector<Metric>& out, const std::string& name,
                    std::optional<double> value, double scale,
                    const std::string& unit) {
  if (value) add(out, name, *value * scale, unit);
}

/// Per-layer metrics both worlds share: spans from the tracer, counters
/// from the stacks. `msgs` is the per-message base.
void common_layers(std::vector<Metric>& out, const Workload& w,
                   const Tracer& t, const Counters& c, double msgs,
                   double window_s, const mc::util::SampleSet& admit_wait_ns) {
  const auto per_msg = [&](double v) { return v / msgs; };
  const auto mean_ns = [](const SpanTotals& s) {
    return s.count == 0 ? 0.0
                        : static_cast<double>(s.incl_ns) /
                              static_cast<double>(s.count);
  };
  const SpanTotals send = t.totals(SpanKind::kSend);
  const SpanTotals set = t.totals(SpanKind::kSetTimer);
  const SpanTotals cancel = t.totals(SpanKind::kCancelTimer);
  const SpanTotals timer_cb = t.totals(SpanKind::kTimerCb);
  add(out, "runtime.send_per_msg", per_msg(send.count), "count");
  add(out, "runtime.set_timer_per_msg", per_msg(set.count), "count");
  add(out, "runtime.cancel_timer_per_msg", per_msg(cancel.count), "count");
  add(out, "runtime.send_ns", mean_ns(send), "ns");
  add(out, "runtime.set_timer_ns", mean_ns(set), "ns");
  if (cancel.count > 0) {
    add(out, "runtime.cancel_timer_ns", mean_ns(cancel), "ns");
  }
  add(out, "runtime.timer_cb_ns_per_msg",
      per_msg(static_cast<double>(timer_cb.self_ns)), "ns");
  const LogHistogram transit = t.transit_histogram();
  add_percentile(out, "runtime.transit_us_p50", transit.percentile(50), 1e-3,
                 "us");
  add_percentile(out, "runtime.transit_us_p99", transit.percentile(99), 1e-3,
                 "us");
  add(out, "runtime.allocs_per_msg",
      per_msg(static_cast<double>(send.self_allocs + set.self_allocs +
                                  cancel.self_allocs)),
      "count");

  add(out, "framework.local_events_per_msg", per_msg(c.local_events), "count");
  add(out, "framework.wire_sends_per_msg", per_msg(c.wire_sends), "count");
  add(out, "framework.wire_deliveries_per_msg", per_msg(c.wire_deliveries),
      "count");
  add(out, "framework.on_message_ns", mean_ns(t.totals(SpanKind::kOnMessage)),
      "ns");

  // Per module, by wire-demux id; "protocol" sums the atomic-broadcast
  // modules (everything but the failure detector) so both stacks report it.
  SpanTotals proto_spans;
  double proto_recv = 0, proto_sent = 0, proto_bytes = 0;
  for (std::uint8_t m : stack_modules(w.stack)) {
    const std::string name = module_name(m);
    const SpanTotals s = t.module_totals(m);
    add(out, name + ".recv_per_msg", per_msg(c.recv[m]), "count");
    add(out, name + ".sent_per_msg", per_msg(c.sent[m]), "count");
    add(out, name + ".bytes_sent_per_msg", per_msg(c.bytes[m]), "B");
    add(out, name + ".self_ns_per_msg", per_msg(s.self_ns), "ns");
    add(out, name + ".allocs_per_msg", per_msg(s.self_allocs), "count");
    if (m == mc::framework::kModFd) continue;
    proto_spans += s;
    proto_recv += c.recv[m];
    proto_sent += c.sent[m];
    proto_bytes += c.bytes[m];
  }
  add(out, "protocol.recv_per_msg", per_msg(proto_recv), "count");
  add(out, "protocol.sent_per_msg", per_msg(proto_sent), "count");
  add(out, "protocol.bytes_sent_per_msg", per_msg(proto_bytes), "B");
  add(out, "protocol.self_ns_per_msg", per_msg(proto_spans.self_ns), "ns");
  add(out, "protocol.allocs_per_msg", per_msg(proto_spans.self_allocs),
      "count");

  add(out, "adb.avg_batch",
      c.instances == 0 ? 0.0
                       : static_cast<double>(c.in_decisions) /
                             static_cast<double>(c.instances),
      "msgs");
  add(out, "consensus.instances_per_s",
      static_cast<double>(c.instances) / static_cast<double>(w.n) / window_s,
      "1/s");
  add(out, "consensus.max_round", static_cast<double>(c.max_round), "count");
  add(out, "consensus.late_decisions", static_cast<double>(c.late_decisions),
      "count");

  add(out, "core.abcast_ns", mean_ns(t.totals(SpanKind::kAbcast)), "ns");
  add_percentile(out, "core.admit_wait_us_p50", percentile(admit_wait_ns, 50),
                 1e-3, "us");
  add_percentile(out, "core.admit_wait_us_p99", percentile(admit_wait_ns, 99),
                 1e-3, "us");
}

/// abcast() to admission, runtime clock, for messages admitted in window 0.
mc::util::SampleSet admit_waits(const Recorder& rec) {
  mc::util::SampleSet s;
  for (ProcessId p = 0; p < rec.n(); ++p) {
    for (std::uint64_t q = 0; q < rec.admitted(p) && q < rec.stamped(p); ++q) {
      const TimePoint a = rec.admitted_at(p, q);
      if (a >= rec.window_start(0) && a < rec.window_end(0)) {
        s.add(static_cast<double>(a - rec.called(p, q)));
      }
    }
  }
  return s;
}

std::vector<bool> crashed_flags(std::size_t n, TimePoint crash_at) {
  std::vector<bool> crashed(n, false);
  if (crash_at > 0) crashed[0] = true;
  return crashed;
}

void inject_reorder(ContractInput& in) {
  for (auto& log : in.logs) {
    if (log.size() >= 2) {
      std::swap(log[0], log[1]);
      return;
    }
  }
}

// ===========================================================================
// SimWorld
// ===========================================================================

struct SimPhase {
  double rate;
  Duration warmup;
  Duration window;
  Duration drain;
  Duration crash_at;
};

/// Outputs of one SimWorld repetition that depend only on simulated time;
/// they must repeat exactly across repetitions and with tracing on.
struct SimOutputs {
  std::vector<double> latencies_ms;  // sorted
  double throughput = 0;
  std::uint64_t unique_in_window = 0;
  std::uint64_t attempts = 0;
  std::uint64_t refused = 0;
  std::uint64_t unfinished = 0;
  TimePoint unavailable_ns = -1;
  std::uint64_t events_in_window = 0;
  std::uint64_t peak_pending_events = 0;
  std::uint64_t state_bytes = 0;
  double cpu_util = 0;
  Counters window;
  std::vector<double> admit_wait_ns;  // sorted
  std::string violation;

  bool operator==(const SimOutputs&) const = default;
};

struct SimRun {
  SimOutputs out;
  double setup_s = 0;
  double warmup_s = 0;
  double window_s = 0;  // wall time of the measured window
  double drain_s = 0;
  double cpu_s = 0;     // process CPU over the measured window
  double allocs = 0;    // operator new calls over the measured window
  TimePoint fd_detect_ns = -1;  // traced runs only
  ContractInput contract;
};

/// One repetition; with `setup_only` it stops once the deployment is up.
SimRun run_sim(const Workload& w, const SimPhase& ph, std::uint64_t seed,
               Tracer* tracer, bool setup_only = false) {
  SimRun run;
  const double t_begin = wall_s();
  const std::size_t n = w.n;
  const auto period =
      static_cast<Duration>(static_cast<double>(mc::util::kSecond) /
                            (ph.rate / static_cast<double>(n)));
  const TimePoint gen_end = ph.warmup + ph.window;
  const auto per_origin = static_cast<std::size_t>(gen_end / period) + 2;
  Recorder rec(n, per_origin, n * per_origin);
  rec.set_window(0, ph.warmup, gen_end);
  rec.set_crash_at(ph.crash_at);

  mc::runtime::SimWorldConfig wc;
  wc.n = n;
  wc.seed = seed;
  mc::runtime::SimWorld world(wc);
  std::vector<std::unique_ptr<TracingRuntime>> rts;
  Processes procs;
  std::vector<std::unique_ptr<TracingProtocol>> protos;
  procs.reserve(n);

  auto probe_for = [&](ProcessId p) -> Probe {
    if (ph.crash_at == 0 || p == 0) return {};
    return [&run, &world, &procs, &ph, p] {
      if (run.fd_detect_ns < 0 && world.now() >= ph.crash_at &&
          p < procs.size() && procs[p]->failure_detector().suspects(0)) {
        run.fd_detect_ns = world.now() - ph.crash_at;
      }
    };
  };

  for (ProcessId p = 0; p < n; ++p) {
    mc::runtime::Runtime* rt = &world.runtime(p);
    if (tracer) {
      rts.push_back(
          std::make_unique<TracingRuntime>(*rt, *tracer, probe_for(p)));
      rt = rts.back().get();
    }
    mc::core::StackOptions opts;
    opts.kind = w.stack;
    procs.push_back(std::make_unique<mc::core::AbcastProcess>(*rt, opts));
    procs[p]->set_deliver_handler(
        [&rec, &world, tracer, p](ProcessId origin, std::uint64_t seq,
                                  const mc::util::Bytes&) {
          Span span(tracer, SpanKind::kDeliver, p, 0, origin, seq);
          rec.deliver(p, origin, seq, world.now());
        });
    procs[p]->set_admit_handler([&rec, &world, tracer, p](std::uint64_t seq) {
      Span span(tracer, SpanKind::kAdmit, p, 0, p, seq);
      rec.admit(p, seq, world.now());
    });
    if (tracer) {
      protos.push_back(std::make_unique<TracingProtocol>(
          procs[p]->protocol(), *rt, *tracer, probe_for(p)));
      world.attach(p, protos.back().get());
    } else {
      world.attach(p, &procs[p]->protocol());
    }
  }

  // Symmetric constant-rate generators with workload::run_once's phases and
  // refusal rule, so the fixed-rate phase reproduces its samples exactly.
  auto& sim = world.simulator();
  std::function<void(ProcessId)> tick = [&](ProcessId p) {
    if (world.crashed(p)) return;
    {
      Span gen(tracer, SpanKind::kGen, p);
      auto& proc = *procs[p];
      const bool refused = proc.queued() >= kBlockThreshold;
      rec.attempt(p, refused);
      if (!refused) {
        const TimePoint now = world.now();
        const std::uint64_t seq = rec.next_seq(p);
        Span call(tracer, SpanKind::kAbcast, p, 0, p, seq);
        proc.abcast(mc::util::Bytes(w.message_size, 0));
        rec.abcast(p, seq, now, now);
      }
    }
    const TimePoint next = world.now() + period;
    if (next < gen_end) sim.at(next, [&tick, p] { tick(p); });
  };
  mc::util::Rng phase_rng(seed ^ 0xabcdef12345ULL);
  for (ProcessId p = 0; p < n; ++p) {
    const auto phase = static_cast<Duration>(
        phase_rng.uniform(static_cast<std::uint64_t>(period)));
    sim.at(phase, [&tick, p] { tick(p); });
  }
  if (ph.crash_at > 0) world.crash_at(0, ph.crash_at);

  world.start();
  world.run_until(0);  // every Protocol::start() has run
  run.setup_s = wall_s() - t_begin;
  if (setup_only) return run;

  double t = wall_s();
  world.run_until(ph.warmup);
  run.warmup_s = wall_s() - t;

  for (ProcessId p = 0; p < n; ++p) world.cpu(p).mark_window();
  const Counters before = sim_counters(world, procs);
  const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  const std::uint64_t allocs0 = alloc::total_count();
  t = wall_s();
  if (tracer) {
    tracer->set_recording(true);
    tracer->set_capturing(true);
  }
  {
    Span loop(tracer, SpanKind::kSimRun, 0);
    if (tracer) {
      run.out.events_in_window +=
          sim.run_until(std::min(ph.warmup + kCaptureWindow, gen_end));
      tracer->set_capturing(false);
    }
    run.out.events_in_window += sim.run_until(gen_end);
  }
  if (tracer) tracer->set_recording(false);
  run.window_s = wall_s() - t;
  run.allocs = static_cast<double>(alloc::total_count() - allocs0);
  run.cpu_s = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  run.out.window = sim_counters(world, procs).minus(before);
  double util = 0;
  for (ProcessId p = 0; p < n; ++p) util += world.cpu(p).window_utilization();
  run.out.cpu_util = util / static_cast<double>(n);
  run.out.peak_pending_events = sim.peak_pending_events();
  run.out.state_bytes = sim.queue_state_bytes() + world.network().state_bytes();

  // Early latency (§5.1): admission to first adeliver anywhere, for messages
  // admitted in the window and delivered by its end — run_once's samples.
  for (ProcessId p = 0; p < n; ++p) {
    for (std::uint64_t s = 0; s < rec.stamped(p); ++s) {
      const TimePoint a = rec.admitted_at(p, s);
      const TimePoint d = rec.first_deliver(p, s);
      if (a >= ph.warmup && a < gen_end && d >= 0 && d <= gen_end) {
        run.out.latencies_ms.push_back(mc::util::to_milliseconds(d - a));
      }
    }
  }
  std::sort(run.out.latencies_ms.begin(), run.out.latencies_ms.end());
  run.out.throughput = rec.throughput(0);
  run.out.unique_in_window =
      rec.first_delivered_between(ph.warmup, gen_end);
  run.out.admit_wait_ns = admit_waits(rec).samples();
  std::sort(run.out.admit_wait_ns.begin(), run.out.admit_wait_ns.end());

  t = wall_s();
  world.run_until(gen_end + ph.drain);
  run.drain_s = wall_s() - t;

  const std::vector<bool> crashed = crashed_flags(n, ph.crash_at);
  for (ProcessId p = 0; p < n; ++p) {
    if (p == 0 && ph.crash_at > 0) continue;
    run.out.attempts += rec.attempts(p);
    run.out.refused += rec.refused(p);
  }
  run.out.unfinished = rec.unfinished(crashed);
  if (ph.crash_at > 0 && rec.first_after_crash() >= 0) {
    run.out.unavailable_ns = rec.first_after_crash() - ph.crash_at;
  }
  run.contract = rec.contract_input(crashed);
  run.out.violation = check_contract(run.contract);
  return run;
}

SimPhase fixed_phase(const Workload& w) {
  return {w.rate, w.warmup, w.window, w.drain, w.crash_at};
}

SimPhase capacity_phase(const Workload& w) {
  return {w.capacity_rate, seconds(1), seconds(3), seconds(1), 0};
}

void sim_layers(std::vector<Metric>& out, const Workload& w, const SimRun& r,
                const Tracer& t) {
  const double msgs = static_cast<double>(r.out.unique_in_window);
  const double window_s = mc::util::to_seconds(w.window);
  const SpanTotals loop = t.totals(SpanKind::kSimRun);
  const double sim_self = static_cast<double>(loop.self_ns) / msgs;
  add(out, "sim.self_ns_per_msg", sim_self, "ns");
  add(out, "sim.events_per_msg",
      static_cast<double>(r.out.events_in_window) / msgs, "count");
  add(out, "sim.peak_pending_events",
      static_cast<double>(r.out.peak_pending_events), "count");
  add(out, "sim.state_kib", static_cast<double>(r.out.state_bytes) / 1024.0,
      "KiB");
  add(out, "sim.net_msgs_per_msg",
      static_cast<double>(r.out.window.net_msgs) / msgs, "count");
  add(out, "sim.net_wire_bytes_per_msg",
      static_cast<double>(r.out.window.net_wire_bytes) / msgs, "B");
  add(out, "sim.cpu_util", r.out.cpu_util, "ratio");
  mc::util::SampleSet admit;
  for (double v : r.out.admit_wait_ns) admit.add(v);
  common_layers(out, w, t, r.out.window, msgs, window_s, admit);
  // The simulator loop is SimWorld's runtime loop.
  add(out, "runtime.loop_ns_per_msg", sim_self, "ns");
  if (w.crash_at > 0 && r.fd_detect_ns >= 0) {
    add(out, "fd.detect_ms", mc::util::to_milliseconds(r.fd_detect_ns), "ms");
  }
  add(out, "bench.gen_lag_us_p99", 0.0, "us");  // generators fire on time
}

WorkloadResult run_sim_workload(const Workload& w, const RunOptions& o) {
  WorkloadResult res;
  PhaseClock clock(res.phase_wall_s);
  const std::vector<int> cpus = allowed_cpus();
  if (!cpus.empty()) {
    pin_current_thread(cpus[0]);
    res.pinned_cpus = {cpus[0]};
  }

  std::vector<double> setups, cpu_per_msg, allocs_per_msg;
  SimOutputs reference;
  const SimPhase fixed = fixed_phase(w);
  for (int k = 0; k < kSetupProbes; ++k) {
    setups.push_back(run_sim(w, fixed, o.seed, nullptr, true).setup_s);
    clock.add("setup", setups.back());
  }
  double measured = 0;
  int rep = -1;  // -1: the discarded warm-up repetition
  for (; rep < kMinRepetitions || measured < o.seconds; ++rep) {
    const double t = wall_s();
    SimRun r = run_sim(w, fixed, o.seed, nullptr);
    setups.push_back(r.setup_s);
    clock.add("setup", r.setup_s);
    clock.add("warmup", r.warmup_s);
    clock.add("window", r.window_s);
    clock.add("drain", r.drain_s);
    if (rep < 0) {
      reference = r.out;
      continue;
    }
    measured += wall_s() - t;
    if (!(r.out == reference)) {
      res.violation = "simulated outputs differ between repetitions";
    }
    const double msgs = static_cast<double>(r.out.unique_in_window);
    cpu_per_msg.push_back(r.cpu_s * 1e6 / msgs);
    allocs_per_msg.push_back(r.allocs / msgs);
    // The result's operations are abcast() calls; a refused generator
    // attempt makes no call and is reported in failed_pct instead.
    res.attempted += r.out.attempts - r.out.refused;
    res.failed += r.out.unfinished;
    if (o.inject_violation) inject_reorder(r.contract);
    const std::string v = o.inject_violation ? check_contract(r.contract)
                                             : r.out.violation;
    if (!v.empty() && res.violation.empty()) res.violation = v;
  }
  res.repetitions = static_cast<std::size_t>(rep);

  const SimOutputs& out = reference;
  mc::util::SampleSet lat;
  for (double v : out.latencies_ms) lat.add(v);
  auto& m = res.metrics;
  add_percentile(m, "sim_latency_p50_ms", percentile(lat, 50), 1.0, "ms");
  add_percentile(m, "sim_latency_p90_ms", percentile(lat, 90), 1.0, "ms");
  add_percentile(m, "sim_latency_p99_ms", percentile(lat, 99), 1.0, "ms");
  add(m, "sim_throughput_msgs_s", out.throughput, "msgs/s");
  if (w.capacity_rate > 0) {
    const double t = wall_s();
    SimRun cap = run_sim(w, capacity_phase(w), o.seed, nullptr);
    clock.add("capacity", wall_s() - t);
    setups.push_back(cap.setup_s);
    if (!cap.out.violation.empty() && res.violation.empty()) {
      res.violation = "capacity phase: " + cap.out.violation;
    }
    res.attempted += cap.out.attempts - cap.out.refused;
    res.failed += cap.out.unfinished;
    add(m, "sim_capacity_msgs_s", cap.out.throughput, "msgs/s");
  }
  if (w.crash_at > 0) {
    add(m, "sim_unavailable_ms",
        out.unavailable_ns < 0 ? -1.0
                               : mc::util::to_milliseconds(out.unavailable_ns),
        "ms");
  }
  add(m, "cpu_us_per_msg", median(cpu_per_msg), "us");
  add(m, "allocs_per_msg", median(allocs_per_msg), "count");
  add(m, "peak_rss_mb", peak_rss_mb(), "MB");
  add(m, "failed_pct",
      100.0 * static_cast<double>(out.refused + out.unfinished) /
          static_cast<double>(std::max<std::uint64_t>(out.attempts, 1)),
      "%");
  add(m, "setup_s", median(setups), "s");

  if (!o.trace_dir.empty()) {
    const double t = wall_s();
    Tracer tracer(w.n, kCaptureSpans);
    SimRun traced = run_sim(w, fixed, o.seed, &tracer);
    clock.add("trace", wall_s() - t);
    if (!(traced.out == reference) && res.violation.empty()) {
      res.violation = "tracing changed the simulated outputs";
    }
    sim_layers(res.layers, w, traced, tracer);
    const double untraced = median(cpu_per_msg);
    const double traced_cpu =
        traced.cpu_s * 1e6 / static_cast<double>(traced.out.unique_in_window);
    add(res.layers, "bench.trace_overhead_pct",
        100.0 * (traced_cpu / untraced - 1.0), "%");
    const std::string path = o.trace_dir + "/" + w.name + ".trace.json";
    if (!tracer.write_chrome_trace(path)) {
      throw std::runtime_error("cannot write " + path);
    }
  }
  return res;
}

// ===========================================================================
// ThreadWorld
// ===========================================================================

/// One ThreadWorld deployment with the benchmark's handlers attached.
class ThreadDeployment {
 public:
  ThreadDeployment(const Workload& w, std::uint64_t seed, Recorder& rec,
                   Tracer* tracer, const std::vector<int>& proc_cpus)
      : w_(w), rec_(rec), tracer_(tracer), closed_left_(w.n, 0),
        world_(w.n, seed) {
    for (ProcessId p = 0; p < w.n; ++p) {
      mc::runtime::Runtime* rt = &world_.runtime(p);
      if (tracer) {
        rts_.push_back(std::make_unique<TracingRuntime>(*rt, *tracer, Probe{}));
        rt = rts_.back().get();
      }
      mc::core::StackOptions opts;
      opts.kind = w.stack;
      procs_.push_back(std::make_unique<mc::core::AbcastProcess>(*rt, opts));
      procs_[p]->set_deliver_handler(
          [this, p](ProcessId origin, std::uint64_t seq,
                    const mc::util::Bytes&) {
            Span span(tracer_, SpanKind::kDeliver, p, 0, origin, seq);
            rec_.deliver(p, origin, seq, world_.now());
            if (origin == p && closed_left_[p] > 0) post_issue(p);
          });
      procs_[p]->set_admit_handler([this, p](std::uint64_t seq) {
        Span span(tracer_, SpanKind::kAdmit, p, 0, p, seq);
        rec_.admit(p, seq, world_.now());
      });
      if (tracer) {
        protos_.push_back(std::make_unique<TracingProtocol>(
            procs_[p]->protocol(), *rt, *tracer, Probe{}));
        world_.attach(p, protos_.back().get());
      } else {
        world_.attach(p, &procs_[p]->protocol());
      }
    }
    world_.start();
    // Each process thread pins itself from inside its own loop.
    std::latch pinned(static_cast<std::ptrdiff_t>(w.n));
    for (ProcessId p = 0; p < w.n; ++p) {
      const int cpu = proc_cpus.empty() ? -1 : proc_cpus[p % proc_cpus.size()];
      world_.post(p, [cpu, &pinned] {
        if (cpu >= 0) pin_current_thread(cpu);
        pinned.count_down();
      });
    }
    pinned.wait();
  }

  ~ThreadDeployment() { world_.stop(); }
  ThreadDeployment(const ThreadDeployment&) = delete;
  ThreadDeployment& operator=(const ThreadDeployment&) = delete;

  mc::runtime::ThreadWorld& world() { return world_; }
  mc::core::AbcastProcess& process(ProcessId p) { return *procs_[p]; }

  /// Open loop: attempt i is due at t0 + i * period, at process i mod n.
  void set_open_loop(TimePoint t0, Duration period) {
    t0_ = t0;
    period_ = period;
  }
  void post_attempt(std::uint64_t i) {
    tasks_.fetch_add(1, std::memory_order_relaxed);
    // Two words fit std::function's inline buffer, so posting adds no
    // allocation of the generator's own.
    world_.post(static_cast<ProcessId>(i % w_.n), [this, i] {
      attempt(static_cast<ProcessId>(i % w_.n),
              t0_ + static_cast<TimePoint>(i) * period_);
      tasks_.fetch_sub(1, std::memory_order_release);
    });
  }

  /// Closed loop: each process keeps kClosedLoopOutstanding messages in
  /// flight, re-issuing on its own adeliver, until it has sent `quota`.
  void start_closed_loop(std::uint64_t quota) {
    closed_done_.store(false);
    for (ProcessId p = 0; p < w_.n; ++p) {
      tasks_.fetch_add(1, std::memory_order_relaxed);
      world_.post(p, [this, p, quota] {
        closed_left_[p] = quota;
        for (int k = 0; k < kClosedLoopOutstanding; ++k) issue(p);
        tasks_.fetch_sub(1, std::memory_order_release);
      });
    }
  }

 private:
  void post_issue(ProcessId p) {
    tasks_.fetch_add(1, std::memory_order_relaxed);
    world_.post(p, [this, p] {
      issue(p);
      tasks_.fetch_sub(1, std::memory_order_release);
    });
  }

  void issue(ProcessId p) {
    if (closed_left_[p] == 0 || closed_done_.load(std::memory_order_relaxed)) {
      return;
    }
    const TimePoint now = world_.now();
    // The loop ends when the first process runs out: after that fewer
    // messages would be in flight and the rate would fall.
    if (--closed_left_[p] == 0) {
      closed_done_.store(true, std::memory_order_relaxed);
      rec_.end_window_by(1, now);
    }
    const std::uint64_t seq = rec_.next_seq(p);
    procs_[p]->abcast(mc::util::Bytes(w_.message_size, 0));
    rec_.abcast(p, seq, now, now);
  }



 public:
  /// Waits until no generator task is pending and every process delivered
  /// every message sent; false on timeout.
  bool drain(double timeout_s) {
    const double deadline = wall_s() + timeout_s;
    while (wall_s() < deadline) {
      if (tasks_.load(std::memory_order_acquire) == 0 &&
          rec_.all_delivered_everywhere()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Runs `fn(p)` on every process thread and waits for all of them.
  void on_each_process(const std::function<void(ProcessId)>& fn) {
    std::latch done(static_cast<std::ptrdiff_t>(w_.n));
    for (ProcessId p = 0; p < w_.n; ++p) {
      world_.post(p, [&fn, &done, p] {
        fn(p);
        done.count_down();
      });
    }
    done.wait();
  }

 private:
  void attempt(ProcessId p, TimePoint due) {
    Span gen(tracer_, SpanKind::kGen, p);
    auto& proc = *procs_[p];
    const bool refused = proc.queued() >= kBlockThreshold;
    rec_.attempt(p, refused);
    if (refused) return;
    const TimePoint now = world_.now();
    const std::uint64_t seq = rec_.next_seq(p);
    Span call(tracer_, SpanKind::kAbcast, p, 0, p, seq);
    proc.abcast(mc::util::Bytes(w_.message_size, 0));
    rec_.abcast(p, seq, due, now);
  }

  const Workload& w_;
  Recorder& rec_;
  Tracer* tracer_;
  TimePoint t0_ = 0;
  Duration period_ = 0;
  // Closed-loop messages each process may still send; touched only on that
  // process's thread.
  std::vector<std::uint64_t> closed_left_;
  std::atomic<bool> closed_done_{false};
  std::atomic<std::int64_t> tasks_{0};
  std::vector<std::unique_ptr<TracingRuntime>> rts_;
  Processes procs_;
  std::vector<std::unique_ptr<TracingProtocol>> protos_;
  // Stopped by the destructor before the stacks its threads call into go.
  mc::runtime::ThreadWorld world_;
};

struct ThreadRun {
  double setup_s = 0;
  double open_s = 0;
  double closed_s = 0;
  double drain_s = 0;
  double cpu_s = 0;
  double allocs = 0;
  std::uint64_t unique_in_window = 0;
  mc::util::SampleSet latency_us;  // due time -> first adeliver, window 0
  mc::util::SampleSet gen_lag_us;
  double capacity = 0;
  std::uint64_t attempts = 0;  // open-loop generator attempts
  std::uint64_t refused = 0;
  std::uint64_t calls = 0;     // abcast() calls, both loops
  std::uint64_t unfinished = 0;
  Counters window;
  std::vector<double> thread_cpu_s;  // per process thread, over window 0
  mc::util::SampleSet admit_wait_ns;
  std::string violation;
};

/// Sleeps the calling thread until steady-clock time `t_ns`.
void sleep_until_ns(std::int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = t_ns / 1'000'000'000;
  ts.tv_nsec = t_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

ThreadRun run_thread(const Workload& w, std::uint64_t seed, double seconds_opt,
                     const std::vector<int>& proc_cpus, Tracer* tracer,
                     bool closed_loop, bool inject) {
  ThreadRun run;
  const std::size_t n = w.n;
  const Duration window = mc::util::from_seconds(seconds_opt);
  const auto quota = static_cast<std::uint64_t>(
      closed_loop ? 0.4 * seconds_opt * kClosedLoopMsgsPerSecond : 0);
  const auto period = static_cast<Duration>(
      static_cast<double>(mc::util::kSecond) / w.rate);
  const Duration open_total = w.warmup + window;
  // Timestamp slots for every open-loop attempt (round-robin over n).
  const std::size_t per_origin =
      static_cast<std::size_t>(open_total / period) / n + 2;
  Recorder rec(n, per_origin, n * (per_origin + quota));

  const double t_begin = wall_s();
  ThreadDeployment dep(w, seed, rec, tracer, proc_cpus);
  run.setup_s = wall_s() - t_begin;
  auto& world = dep.world();
  const std::int64_t epoch = steady_ns() - world.now();

  // --- open loop ---
  // The generator sleeps between attempts; without this the kernel may
  // defer its wake-ups by the default 50 µs timer slack. Set only now, so
  // the process threads, created above, keep the default like any
  // ThreadWorld user's.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  double t = wall_s();
  const TimePoint t0 = world.now() + milliseconds(1);
  const TimePoint ws = t0 + w.warmup;
  const TimePoint we = t0 + open_total;
  rec.set_window(0, ws, we);
  dep.set_open_loop(t0, period);
  std::vector<double> cpu_start(n, 0), cpu_end(n, 0);
  Counters before, after;
  // Thread CPU clocks and stack counters are read on each process's own
  // thread, serialized with its callbacks.
  auto snapshot = [&](std::vector<double>& cpu, Counters& c) {
    std::vector<Counters> per(n);
    dep.on_each_process([&](ProcessId p) {
      cpu[p] = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      per[p] = Counters::of(dep.process(p));
    });
    c = Counters{};
    for (const Counters& one : per) c.merge(one);
  };

  double cpu0 = 0;
  std::uint64_t allocs0 = 0;
  bool in_window = false, capturing = false;
  for (std::uint64_t i = 0;; ++i) {
    const TimePoint due = t0 + static_cast<TimePoint>(i) * period;
    if (due >= we) break;
    if (!in_window && due >= ws) {
      in_window = true;
      snapshot(cpu_start, before);
      cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
      allocs0 = alloc::total_count();
      if (tracer) {
        tracer->set_recording(true);
        tracer->set_capturing(true);
        capturing = true;
      }
    }
    if (capturing && due >= ws + kCaptureWindow) {
      tracer->set_capturing(false);
      capturing = false;
    }
    if (world.now() < due) sleep_until_ns(epoch + due);
    const TimePoint posted = world.now();
    if (in_window) run.gen_lag_us.add(static_cast<double>(posted - due) / 1e3);
    dep.post_attempt(i);
  }
  if (world.now() < we) sleep_until_ns(epoch + we);
  prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
  run.allocs = static_cast<double>(alloc::total_count() - allocs0);
  run.cpu_s = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  if (tracer) {
    tracer->set_capturing(false);
    tracer->set_recording(false);
  }
  snapshot(cpu_end, after);
  run.window = after.minus(before);
  for (ProcessId p = 0; p < n; ++p) {
    run.thread_cpu_s.push_back(cpu_end[p] - cpu_start[p]);
  }
  run.open_s = wall_s() - t;

  t = wall_s();
  bool drained = dep.drain(10.0);

  // --- closed loop ---
  if (closed_loop && drained) {
    const double tc = wall_s();
    std::vector<double> rates;
    for (int e = 0; e < kClosedLoopEpisodes && drained; ++e) {
      rec.set_window(1, world.now(), INT64_MAX);
      dep.start_closed_loop(quota / kClosedLoopEpisodes);
      drained = dep.drain(60.0);
      rates.push_back(rec.throughput(1));
    }
    run.capacity = median(rates);
    run.closed_s = wall_s() - tc;
  }
  run.drain_s = wall_s() - t - run.closed_s;
  dep.world().stop();

  if (!drained) run.violation = "drain: messages still undelivered";
  const std::vector<bool> crashed(n, false);
  ContractInput in = rec.contract_input(crashed);
  if (inject) inject_reorder(in);
  if (run.violation.empty()) run.violation = check_contract(in);

  run.unique_in_window = rec.first_delivered_between(ws, we);
  for (ProcessId p = 0; p < n; ++p) {
    run.attempts += rec.attempts(p);
    run.refused += rec.refused(p);
    run.calls += rec.sent(p);
    for (std::uint64_t s = 0; s < rec.stamped(p); ++s) {
      const TimePoint due = rec.due(p, s);
      const TimePoint d = rec.first_deliver(p, s);
      if (due >= ws && due < we && d >= 0) {
        run.latency_us.add(static_cast<double>(d - due) / 1e3);
      }
    }
  }
  run.unfinished = rec.unfinished(crashed);
  run.admit_wait_ns = admit_waits(rec);
  return run;
}

WorkloadResult run_thread_workload(const Workload& w, const RunOptions& o) {
  WorkloadResult res;
  PhaseClock clock(res.phase_wall_s);
  // One CPU for the generator and one per process thread, at most.
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() > w.n + 1) cpus.resize(w.n + 1);
  res.pinned_cpus = cpus;
  if (!cpus.empty()) pin_current_thread(cpus[0]);

  // Generator on the first CPU, process threads on the next ones.
  std::vector<int> proc_cpus;
  for (std::size_t i = 1; i < cpus.size(); ++i) proc_cpus.push_back(cpus[i]);
  if (proc_cpus.empty()) proc_cpus = cpus;
  std::vector<double> setups;
  for (int k = 0; k < kSetupProbes; ++k) {
    Recorder rec(w.n, 1, 0);
    const double t = wall_s();
    {
      ThreadDeployment dep(w, o.seed, rec, nullptr, proc_cpus);
      setups.push_back(wall_s() - t);
    }
    clock.add("setup", wall_s() - t);
  }

  ThreadRun r = run_thread(w, o.seed, o.seconds, proc_cpus, nullptr, true,
                           o.inject_violation);
  setups.push_back(r.setup_s);
  clock.add("setup", r.setup_s);
  clock.add("open_loop", r.open_s);
  clock.add("closed_loop", r.closed_s);
  clock.add("drain", r.drain_s);
  res.repetitions = 1;
  res.violation = r.violation;
  res.attempted = r.calls;
  res.failed = r.unfinished;

  const double msgs = static_cast<double>(r.unique_in_window);
  auto& m = res.metrics;
  add_percentile(m, "wall_latency_p50_us", percentile(r.latency_us, 50), 1.0,
                 "us");
  add_percentile(m, "wall_latency_p90_us", percentile(r.latency_us, 90), 1.0,
                 "us");
  add(m, "wall_capacity_msgs_s", r.capacity, "msgs/s");
  add(m, "cpu_us_per_msg", r.cpu_s * 1e6 / msgs, "us");
  add(m, "allocs_per_msg", r.allocs / msgs, "count");
  add(m, "peak_rss_mb", peak_rss_mb(), "MB");
  add(m, "failed_pct",
      100.0 * static_cast<double>(r.refused + r.unfinished) /
          static_cast<double>(std::max<std::uint64_t>(r.attempts, 1)),
      "%");
  add(m, "setup_s", median(setups), "s");

  if (!o.trace_dir.empty()) {
    const double t = wall_s();
    Tracer tracer(w.n, kCaptureSpans);
    ThreadRun tr =
        run_thread(w, o.seed, o.seconds, proc_cpus, &tracer, false, false);
    clock.add("trace", wall_s() - t);
    if (!tr.violation.empty() && res.violation.empty()) {
      res.violation = "traced run: " + tr.violation;
    }
    const double tmsgs = static_cast<double>(tr.unique_in_window);
    auto& l = res.layers;
    common_layers(l, w, tracer, tr.window, tmsgs, o.seconds, tr.admit_wait_ns);
    const LogHistogram late = tracer.timer_late_histogram();
    add_percentile(l, "runtime.timer_late_us_p50", late.percentile(50), 1e-3,
                   "us");
    add_percentile(l, "runtime.timer_late_us_p99", late.percentile(99), 1e-3,
                   "us");
    double loop_ns = 0;
    for (ProcessId p = 0; p < w.n; ++p) {
      loop_ns += tr.thread_cpu_s[p] * 1e9 -
                 static_cast<double>(tracer.top_level_ns(p));
    }
    add(l, "runtime.loop_ns_per_msg", loop_ns / tmsgs, "ns");
    add_percentile(l, "bench.gen_lag_us_p99", percentile(tr.gen_lag_us, 99),
                   1.0, "us");
    add_percentile(l, "bench.wall_latency_p99_us",
                   percentile(tr.latency_us, 99), 1.0, "us");
    add(l, "bench.trace_overhead_pct",
        100.0 * ((tr.cpu_s / tmsgs) / (r.cpu_s / msgs) - 1.0), "%");
    const std::string path = o.trace_dir + "/" + w.name + ".trace.json";
    if (!tracer.write_chrome_trace(path)) {
      throw std::runtime_error("cannot write " + path);
    }
  }
  return res;
}

}  // namespace

WorkloadResult run_workload(const Workload& w, const RunOptions& opts) {
  return w.world == WorldKind::kSim ? run_sim_workload(w, opts)
                                    : run_thread_workload(w, opts);
}

SimSummary run_sim_summary(const Workload& w, std::uint64_t seed,
                           Duration warmup, Duration window) {
  SimPhase ph = fixed_phase(w);
  ph.warmup = warmup;
  ph.window = window;
  SimRun r = run_sim(w, ph, seed, nullptr);
  return {r.out.latencies_ms, r.out.throughput};
}

bool traced_matches_untraced(const Workload& w, std::uint64_t seed) {
  Tracer tracer(w.n, 0);
  return run_sim(w, fixed_phase(w), seed, nullptr).out ==
         run_sim(w, fixed_phase(w), seed, &tracer).out;
}

ContractInput sample_contract_input(const Workload& w, std::uint64_t seed) {
  SimPhase ph = fixed_phase(w);
  ph.warmup = milliseconds(200);
  ph.window = milliseconds(500);
  return run_sim(w, ph, seed, nullptr).contract;
}

}  // namespace modbench
