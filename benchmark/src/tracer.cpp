#include "tracer.hpp"

#include <chrono>
#include <cstdio>
#include <string_view>

#include "alloc_counter.hpp"
#include "framework/event.hpp"

namespace modbench {

namespace {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t span_allocs() {
  return alloc::thread_count() - alloc::thread_excluded();
}

std::atomic<std::uint64_t> g_generation{0};

struct ThreadSlot {
  std::uint64_t generation = 0;
  void* state = nullptr;
};
thread_local ThreadSlot t_slot;

// Transit records per link; a link never has more frames in flight than
// this in the benchmark's fixed-rate windows.
constexpr std::size_t kTransitCapacity = 512;

struct SpanRecord {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t seq = 0;
  std::int32_t parent = -1;
  std::uint32_t process = 0;
  std::uint32_t origin = kNoOrigin;
  SpanKind kind = SpanKind::kCount;
  std::uint8_t module = 0;
};

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSimRun: return "sim.run_until";
    case SpanKind::kStart: return "framework.start";
    case SpanKind::kOnMessage: return "framework.on_message";
    case SpanKind::kTimerCb: return "runtime.timer_cb";
    case SpanKind::kSend: return "runtime.send";
    case SpanKind::kSetTimer: return "runtime.set_timer";
    case SpanKind::kCancelTimer: return "runtime.cancel_timer";
    case SpanKind::kGen: return "bench.gen";
    case SpanKind::kAbcast: return "core.abcast";
    case SpanKind::kAdmit: return "core.admit";
    case SpanKind::kDeliver: return "core.deliver";
    case SpanKind::kCount: break;
  }
  return "?";
}

const char* module_name(std::uint8_t module) {
  namespace fw = modcast::framework;
  switch (module) {
    case fw::kModAbcast: return "abcast";
    case fw::kModConsensus: return "consensus";
    case fw::kModRbcast: return "rbcast";
    case fw::kModFd: return "fd";
    case fw::kModMonolithic: return "monolithic";
    default: return "?";
  }
}

struct Tracer::ThreadState {
  struct Open {
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t alloc_start;
    std::uint64_t child_allocs;
    std::int32_t record;
    std::uint32_t process;
    SpanKind kind;
    std::uint8_t module;
  };

  ThreadState(std::size_t n, std::size_t capture, std::uint32_t id)
      : tid(id), top_level_ns(n, 0) {
    stack.reserve(256);
    spans.reserve(capture);
  }

  std::uint32_t tid;
  std::vector<Open> stack;
  std::array<SpanTotals, static_cast<std::size_t>(SpanKind::kCount)> totals{};
  std::array<SpanTotals, 256> modules{};
  std::vector<std::int64_t> top_level_ns;
  LogHistogram transit;
  LogHistogram timer_late;
  std::vector<SpanRecord> spans;
};

Tracer::Tracer(std::size_t n, std::size_t capture_spans)
    : n_(n),
      capture_spans_(capture_spans),
      generation_(g_generation.fetch_add(1) + 1),
      transit_(n, kTransitCapacity),
      epoch_ns_(wall_ns()) {
  threads_.reserve(64);
}

Tracer::~Tracer() = default;

Tracer::ThreadState& Tracer::state() {
  if (t_slot.generation != generation_) {
    alloc::Exclude exclude;
    std::lock_guard lock(mu_);
    threads_.push_back(std::make_unique<ThreadState>(
        n_, capture_spans_, static_cast<std::uint32_t>(threads_.size())));
    t_slot.generation = generation_;
    t_slot.state = threads_.back().get();
  }
  return *static_cast<ThreadState*>(t_slot.state);
}

void Tracer::open(SpanKind kind, std::uint32_t process, std::uint8_t module,
                  std::uint32_t origin, std::uint64_t seq) {
  ThreadState& st = state();
  std::int32_t record = -1;
  const std::int64_t now = wall_ns();
  // A full buffer ends the timeline early; aggregates keep counting.
  if (capturing_.load(std::memory_order_relaxed) &&
      st.spans.size() < capture_spans_) {
    record = static_cast<std::int32_t>(st.spans.size());
    SpanRecord r;
    r.start = now;
    r.seq = seq;
    r.parent = st.stack.empty() ? -1 : st.stack.back().record;
    r.process = process;
    r.origin = origin;
    r.kind = kind;
    r.module = module;
    st.spans.push_back(r);
  }
  st.stack.push_back(
      {now, 0, span_allocs(), 0, record, process, kind, module});
}

void Tracer::close() {
  ThreadState& st = state();
  const ThreadState::Open o = st.stack.back();
  st.stack.pop_back();
  const std::int64_t end = wall_ns();
  const std::int64_t dur = end - o.start;
  const std::uint64_t allocs = span_allocs() - o.alloc_start;
  const SpanTotals t{1, dur, dur - o.child_ns, allocs - o.child_allocs};
  st.totals[static_cast<std::size_t>(o.kind)] += t;
  if (o.kind == SpanKind::kOnMessage) st.modules[o.module] += t;
  if (st.stack.empty()) {
    if (o.process < st.top_level_ns.size()) st.top_level_ns[o.process] += dur;
  } else {
    st.stack.back().child_ns += dur;
    st.stack.back().child_allocs += allocs;
  }
  if (o.record >= 0) st.spans[static_cast<std::size_t>(o.record)].end = end;
}

void Tracer::add_transit(std::int64_t ns) {
  if (recording()) state().transit.add(ns);
}

void Tracer::add_timer_late(std::int64_t ns) {
  if (recording()) state().timer_late.add(ns);
}

SpanTotals Tracer::totals(SpanKind kind) const {
  SpanTotals sum;
  for (const auto& t : threads_) {
    sum += t->totals[static_cast<std::size_t>(kind)];
  }
  return sum;
}

SpanTotals Tracer::module_totals(std::uint8_t module) const {
  SpanTotals sum;
  for (const auto& t : threads_) sum += t->modules[module];
  return sum;
}

std::int64_t Tracer::top_level_ns(std::uint32_t process) const {
  std::int64_t sum = 0;
  for (const auto& t : threads_) {
    if (process < t->top_level_ns.size()) sum += t->top_level_ns[process];
  }
  return sum;
}

LogHistogram Tracer::transit_histogram() const {
  LogHistogram h;
  for (const auto& t : threads_) h.merge(t->transit);
  return h;
}

LogHistogram Tracer::timer_late_histogram() const {
  LogHistogram h;
  for (const auto& t : threads_) h.merge(t->timer_late);
  return h;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRecord& s = t->spans[i];
      if (s.end == 0) continue;  // still open when capture stopped
      // Category: the module for on_message, else the layer of the span.
      const std::string_view name = span_name(s.kind);
      const std::string_view cat = s.kind == SpanKind::kOnMessage
                                       ? module_name(s.module)
                                       : name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u, "
                   "\"args\": {\"span\": \"%u.%zu\", \"parent\": ",
                   first ? "" : ",\n", name.data(),
                   static_cast<int>(cat.size()), cat.data(),
                   static_cast<double>(s.start - epoch_ns_) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, s.process,
                   t->tid, i);
      if (s.parent < 0) {
        std::fprintf(f, "null");
      } else {
        std::fprintf(f, "\"%u.%d\"", t->tid, s.parent);
      }
      std::fprintf(f, ", \"process\": %u, \"thread\": %u", s.process, t->tid);
      if (s.origin != kNoOrigin) {
        std::fprintf(f, ", \"origin\": %u, \"seq\": %llu", s.origin,
                     static_cast<unsigned long long>(s.seq));
      }
      std::fprintf(f, "}}");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void TracingRuntime::send(modcast::util::ProcessId to,
                          modcast::util::Payload msg) {
  tracer_->transit().sent(inner_->self(), to, inner_->now());
  Span span(tracer_, SpanKind::kSend, inner_->self());
  inner_->send(to, std::move(msg));
}

modcast::runtime::TimerId TracingRuntime::set_timer(
    modcast::util::Duration delay, std::function<void()> fn) {
  std::function<void()> wrapped;
  {
    // The wrapper is tracing's own allocation, not the runtime's.
    alloc::Exclude exclude;
    wrapped = [this, due = inner_->now() + delay, fn = std::move(fn)] {
      tracer_->add_timer_late(inner_->now() - due);
      {
        Span span(tracer_, SpanKind::kTimerCb, inner_->self());
        fn();
      }
      if (probe_) probe_();
    };
  }
  Span span(tracer_, SpanKind::kSetTimer, inner_->self());
  return inner_->set_timer(delay, std::move(wrapped));
}

void TracingRuntime::cancel_timer(modcast::runtime::TimerId id) {
  Span span(tracer_, SpanKind::kCancelTimer, inner_->self());
  inner_->cancel_timer(id);
}

void TracingProtocol::start() {
  {
    Span span(tracer_, SpanKind::kStart, rt_->self());
    inner_->start();
  }
  if (probe_) probe_();
}

void TracingProtocol::on_message(modcast::util::ProcessId from,
                                 modcast::util::Payload msg) {
  const modcast::util::ProcessId self = rt_->self();
  if (auto sent_at = tracer_->transit().received(from, self)) {
    tracer_->add_transit(rt_->now() - *sent_at);
  }
  {
    const std::uint8_t module = msg.empty() ? 0 : msg[0];
    Span span(tracer_, SpanKind::kOnMessage, self, module);
    inner_->on_message(from, std::move(msg));
  }
  if (probe_) probe_();
}

}  // namespace modbench
