// Dense (origin, sequence) → value index.
//
// Message ids are (origin, seq) with each origin numbering its messages
// 0, 1, 2, …, so a set of ids in flight is dense per origin. SeqIndex keeps,
// per origin, a ring of slots covering its lowest to its highest indexed
// sequence number: a lookup is one hash of the origin and one indexed load,
// and once the rings have reached their high-water marks, indexing and
// unindexing allocate nothing (a tree allocates a node per id). The price
// of density: an origin's ring spans the gap between its oldest and newest
// indexed ids.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/ring.hpp"

namespace modcast::util {

class SeqIndex {
 public:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  /// Value indexed for (origin, seq), or kNone.
  std::uint64_t find(std::uint32_t origin, std::uint64_t seq) const {
    auto it = streams_.find(origin);
    if (it == streams_.end()) return kNone;
    const Stream& s = it->second;
    if (seq < s.base || seq - s.base >= s.slots.size()) return kNone;
    return s.slots[seq - s.base];
  }

  /// Indexes (origin, seq) → value (value != kNone), replacing any value.
  void insert(std::uint32_t origin, std::uint64_t seq, std::uint64_t value) {
    Stream& s = streams_[origin];
    if (s.slots.empty()) {
      s.base = seq;
      s.slots.push_back(value);
      return;
    }
    while (seq < s.base) {
      s.slots.push_front(kNone);
      --s.base;
    }
    while (seq - s.base >= s.slots.size()) s.slots.push_back(kNone);
    s.slots[seq - s.base] = value;
  }

  /// Drops (origin, seq); the ring trims the empty slots at its ends.
  void erase(std::uint32_t origin, std::uint64_t seq) {
    auto it = streams_.find(origin);
    if (it == streams_.end()) return;
    Stream& s = it->second;
    if (seq < s.base || seq - s.base >= s.slots.size()) return;
    s.slots[seq - s.base] = kNone;
    while (!s.slots.empty() && s.slots.front() == kNone) {
      s.slots.pop_front();
      ++s.base;
    }
    while (!s.slots.empty() && s.slots.back() == kNone) s.slots.pop_back();
  }

 private:
  struct Stream {
    std::uint64_t base = 0;       ///< seq of slots[0]
    Ring<std::uint64_t> slots;    ///< kNone = not indexed
  };
  std::unordered_map<std::uint32_t, Stream> streams_;
};

}  // namespace modcast::util
