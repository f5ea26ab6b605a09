// Duplicate-suppression bookkeeping for (origin, sequence) message ids.
//
// Long benchmark runs deliver millions of messages, so "have I seen this id
// before" cannot be a growing hash set. SeqTracker keeps, per origin, a
// contiguous watermark plus the sparse set of out-of-order ids above it.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>

namespace modcast::util {

class SeqTracker {
 public:
  /// Marks (origin, seq) as seen. Returns true if it was new.
  bool mark(std::uint32_t origin, std::uint64_t seq) {
    auto& s = streams_[origin];
    if (seq < s.watermark) return false;
    if (seq > s.watermark) return s.above.insert(seq).second;
    // Next in order: advance the watermark without touching the set, then
    // over any sparse ids this one made contiguous.
    ++s.watermark;
    while (!s.above.empty() && *s.above.begin() == s.watermark) {
      s.above.erase(s.above.begin());
      ++s.watermark;
    }
    return true;
  }

  bool seen(std::uint32_t origin, std::uint64_t seq) const {
    auto it = streams_.find(origin);
    if (it == streams_.end()) return false;
    if (seq < it->second.watermark) return true;
    return it->second.above.count(seq) != 0;
  }

  /// First sequence not yet contiguously seen for origin.
  std::uint64_t watermark(std::uint32_t origin) const {
    auto it = streams_.find(origin);
    return it == streams_.end() ? 0 : it->second.watermark;
  }

 private:
  struct Stream {
    std::uint64_t watermark = 0;  // all seq < watermark are seen
    std::set<std::uint64_t> above;
  };
  std::unordered_map<std::uint32_t, Stream> streams_;
};

}  // namespace modcast::util
