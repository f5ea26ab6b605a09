// Passive span tracing for modbench's per-layer metrics.
//
// Spans are recorded only from outside the library: around the benchmark's
// own calls into it (generator, abcast, deliver/admit handlers, the
// simulator loop) and by two decorators that wrap each process's
// framework::Stack:
//   TracingRuntime  — a runtime::Runtime around the world's runtime, timing
//                     send / set_timer / cancel_timer and timer callbacks;
//   TracingProtocol — a runtime::Protocol around the Stack, timing start()
//                     and on_message(), tagged with the wire-demux module id
//                     (the first byte of every framed message).
// The decorators forward now(), rng() and charge_cpu() unchanged and
// schedule nothing, so a traced SimWorld run executes the identical event
// sequence; modbench asserts its simulated outputs are byte-identical.
//
// A span's self time is its duration minus its children's on the same
// thread; its allocations come from the thread-local counter in
// alloc_counter.hpp, minus the tracer's own. Aggregates accumulate while
// recording() is on; full span records go into a preallocated buffer while
// capturing() is on and are written as a Chrome trace-event file at exit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "stats.hpp"
#include "transit.hpp"

namespace modbench {

enum class SpanKind : std::uint8_t {
  kSimRun,       ///< sim.run_until: the simulator loop
  kStart,        ///< framework.start: Protocol::start
  kOnMessage,    ///< framework.on_message: Stack demux + module handler
  kTimerCb,      ///< runtime.timer_cb: a timer callback
  kSend,         ///< runtime.send
  kSetTimer,     ///< runtime.set_timer
  kCancelTimer,  ///< runtime.cancel_timer
  kGen,          ///< bench.gen: one generator attempt
  kAbcast,       ///< core.abcast: AbcastProcess::abcast
  kAdmit,        ///< core.admit: the admit handler
  kDeliver,      ///< core.deliver: the deliver handler
  kCount
};

const char* span_name(SpanKind kind);

/// src/ module behind a wire-demux id ("?" for unknown ids).
const char* module_name(std::uint8_t module);

inline constexpr std::uint32_t kNoOrigin = UINT32_MAX;

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t incl_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t self_allocs = 0;

  SpanTotals& operator+=(const SpanTotals& o) {
    count += o.count;
    incl_ns += o.incl_ns;
    self_ns += o.self_ns;
    self_allocs += o.self_allocs;
    return *this;
  }
};

class Tracer {
 public:
  /// `n` processes; each thread's timeline buffer holds `capture_spans`.
  Tracer(std::size_t n, std::size_t capture_spans);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }
  void set_capturing(bool on) {
    capturing_.store(on, std::memory_order_relaxed);
  }

  void open(SpanKind kind, std::uint32_t process, std::uint8_t module,
            std::uint32_t origin, std::uint64_t seq);
  void close();

  TransitMatcher& transit() { return transit_; }
  void add_transit(std::int64_t ns);
  void add_timer_late(std::int64_t ns);

  // --- Results: read once every traced thread is done. -------------------
  SpanTotals totals(SpanKind kind) const;
  /// on_message spans by wire-demux module id.
  SpanTotals module_totals(std::uint8_t module) const;
  /// Wall time in outermost spans (callbacks on ThreadWorld), per process.
  std::int64_t top_level_ns(std::uint32_t process) const;
  LogHistogram transit_histogram() const;
  LogHistogram timer_late_histogram() const;

  /// Writes the captured spans as Chrome trace-event JSON. False on I/O
  /// error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct ThreadState;
  ThreadState& state();

  std::size_t n_;
  std::size_t capture_spans_;
  std::uint64_t generation_;
  std::atomic<bool> recording_{false};
  std::atomic<bool> capturing_{false};
  TransitMatcher transit_;
  std::mutex mu_;  // guards threads_ (registration only)
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::int64_t epoch_ns_;
};

/// RAII span; a no-op when `tracer` is null or not recording.
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind, std::uint32_t process,
       std::uint8_t module = 0, std::uint32_t origin = kNoOrigin,
       std::uint64_t seq = 0)
      : tracer_(tracer != nullptr && tracer->recording() ? tracer : nullptr) {
    if (tracer_) tracer_->open(kind, process, module, origin, seq);
  }
  ~Span() {
    if (tracer_) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Called after every traced callback of a process (modbench probes the
/// failure detector here).
using Probe = std::function<void()>;

class TracingRuntime final : public modcast::runtime::Runtime {
 public:
  TracingRuntime(modcast::runtime::Runtime& inner, Tracer& tracer,
                 Probe probe)
      : inner_(&inner), tracer_(&tracer), probe_(std::move(probe)) {}

  modcast::util::ProcessId self() const override { return inner_->self(); }
  std::size_t group_size() const override { return inner_->group_size(); }
  modcast::util::TimePoint now() const override { return inner_->now(); }
  void send(modcast::util::ProcessId to, modcast::util::Payload msg) override;
  modcast::runtime::TimerId set_timer(modcast::util::Duration delay,
                                      std::function<void()> fn) override;
  void cancel_timer(modcast::runtime::TimerId id) override;
  modcast::util::Rng& rng() override { return inner_->rng(); }
  void charge_cpu(modcast::util::Duration cost) override {
    inner_->charge_cpu(cost);
  }

 private:
  modcast::runtime::Runtime* inner_;
  Tracer* tracer_;
  Probe probe_;
};

class TracingProtocol final : public modcast::runtime::Protocol {
 public:
  TracingProtocol(modcast::runtime::Protocol& inner,
                  modcast::runtime::Runtime& rt, Tracer& tracer, Probe probe)
      : inner_(&inner), rt_(&rt), tracer_(&tracer), probe_(std::move(probe)) {}

  void start() override;
  void on_message(modcast::util::ProcessId from,
                  modcast::util::Payload msg) override;

 private:
  modcast::runtime::Protocol* inner_;
  modcast::runtime::Runtime* rt_;
  Tracer* tracer_;
  Probe probe_;
};

}  // namespace modbench
