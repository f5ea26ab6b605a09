// Structured protocol tracing.
//
// A Stack can be given a TraceSink; it then reports every module-boundary
// crossing — local event dispatches, wire sends, wire deliveries — as a
// structured record. Useful for debugging protocol runs ("why did instance
// 17 stall?") and for the observability a composition framework owes its
// users.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace modcast::framework {

enum class TraceKind : std::uint8_t {
  kLocalEvent,   ///< code = EventType
  kWireSend,     ///< code = ModuleId, peer = destination
  kWireDeliver,  ///< code = ModuleId, peer = sender
};

/// "This record belongs to no consensus instance" (diffusion, FD traffic,
/// standalone forwards, rbcast relays).
inline constexpr std::uint64_t kNoInstance = ~std::uint64_t{0};

/// TraceRecord::flags bits.
inline constexpr std::uint8_t kTraceFlagRelay = 0x1;  ///< rbcast/decision relay

struct TraceRecord {
  util::TimePoint at = 0;
  util::ProcessId process = util::kInvalidProcess;
  TraceKind kind = TraceKind::kLocalEvent;
  std::uint16_t code = 0;
  util::ProcessId peer = util::kInvalidProcess;
  std::size_t size = 0;  ///< payload bytes (wire records)

  // Ambient annotations stamped from the emitting Stack's TraceScope (see
  // stack.hpp). Purely observational: they attribute a record to a consensus
  // instance and say how many application-payload bytes ride in it, without
  // touching the wire format.
  std::uint64_t instance = kNoInstance;
  std::size_t app_bytes = 0;  ///< application payload bytes carried
  std::uint8_t flags = 0;     ///< kTraceFlag* bits
};

using TraceSink = std::function<void(const TraceRecord&)>;

/// Fans one record out to two sinks (e.g. a RingTrace for debugging plus a
/// metrics registry). Either side may be empty.
inline TraceSink tee_sink(TraceSink a, TraceSink b) {
  if (!a) return b;
  if (!b) return a;
  return [a = std::move(a), b = std::move(b)](const TraceRecord& rec) {
    a(rec);
    b(rec);
  };
}

/// Bounded in-memory trace: keeps the most recent `capacity` records.
class RingTrace {
 public:
  explicit RingTrace(std::size_t capacity = 4096) : capacity_(capacity) {}

  TraceSink sink() {
    return [this](const TraceRecord& rec) { add(rec); };
  }

  void add(const TraceRecord& rec) {
    records_.push_back(rec);
    ++total_;
    if (records_.size() > capacity_) records_.pop_front();
  }

  const std::deque<TraceRecord>& records() const { return records_; }
  std::uint64_t total() const { return total_; }
  void clear() {
    records_.clear();
    total_ = 0;
  }

  /// Count of retained records matching a kind (and optional code).
  std::size_t count(TraceKind kind, int code = -1) const {
    std::size_t c = 0;
    for (const auto& r : records_) {
      if (r.kind == kind && (code < 0 || r.code == code)) ++c;
    }
    return c;
  }

  /// Human-readable dump (for examples and debugging sessions).
  std::string dump(std::size_t max_lines = 100) const;

 private:
  std::size_t capacity_;
  std::deque<TraceRecord> records_;
  std::uint64_t total_ = 0;
};

const char* to_string(TraceKind kind);

}  // namespace modcast::framework
