// Unit tests: the unordered pool both stacks draw proposals from
// (adb/batcher). The cases pin the pool's contract as the stacks rely on
// it; the seeded differential run checks every observable against a small
// list-and-set reference model of the same semantics.
#include "adb/batcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace modcast::adb {
namespace {

using util::milliseconds;

AppMessage msg(util::ProcessId origin, std::uint64_t seq,
               std::size_t size = 8) {
  AppMessage m;
  m.id = MsgId{origin, seq};
  m.payload = util::Bytes(size, static_cast<std::uint8_t>(seq));
  return m;
}

/// Ids of a batch as the pool hands it out, in order. Range-for binds each
/// element to `const AppMessage&`, whatever container the pool returns.
template <typename Batch>
std::vector<MsgId> ids_of(const Batch& batch) {
  std::vector<MsgId> out;
  for (const AppMessage& m : batch) out.push_back(m.id);
  return out;
}

std::vector<MsgId> live_ids(const Batcher& b) {
  std::vector<MsgId> out;
  b.for_each_live([&out](const AppMessage& m) { out.push_back(m.id); });
  return out;
}

const MsgId a{0, 0}, b{1, 0}, c{2, 0}, d{0, 1}, e{1, 1}, f{2, 1};

TEST(Batcher, CutTakesArrivalOrderUpToTheCountCap) {
  Batcher pool(BatchPolicy{3, 0, 0});
  for (const MsgId& id : {a, b, c, d, e}) {
    ASSERT_TRUE(pool.add(msg(id.origin, id.seq), 0));
  }
  EXPECT_EQ(pool.live(), 5u);
  EXPECT_EQ(pool.eligible(), 5u);
  EXPECT_EQ(ids_of(pool.cut(0)), (std::vector<MsgId>{a, b, c}));
  EXPECT_EQ(pool.eligible(), 2u);
  EXPECT_EQ(pool.live(), 5u);  // in flight is still live
  EXPECT_EQ(ids_of(pool.cut(1)), (std::vector<MsgId>{d, e}));
  EXPECT_TRUE(pool.cut(2).empty());
  EXPECT_EQ(pool.instances_in_flight(), 2u);
}

TEST(Batcher, ByteCapClosesTheBatchAtTheEntryThatReachesIt) {
  Batcher pool(BatchPolicy{10, 100, 0});
  for (std::uint64_t s = 0; s < 5; ++s) ASSERT_TRUE(pool.add(msg(0, s, 40), 0));
  // 40 and 80 are under the cap, so the third entry still joins (120).
  const auto first = ids_of(pool.cut(0));
  EXPECT_EQ(first, (std::vector<MsgId>{{0, 0}, {0, 1}, {0, 2}}));
  EXPECT_EQ(ids_of(pool.cut(1)), (std::vector<MsgId>{{0, 3}, {0, 4}}));
}

TEST(Batcher, DuplicateOfAPooledIdIsRefused) {
  Batcher pool(BatchPolicy{4, 0, 0});
  EXPECT_TRUE(pool.add(msg(0, 0), 0));
  EXPECT_FALSE(pool.add(msg(0, 0), 1));
  EXPECT_EQ(pool.live(), 1u);
  pool.cut(0);
  EXPECT_FALSE(pool.add(msg(0, 0), 2));  // in flight is still pooled
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_TRUE(pool.contains(a));
  EXPECT_FALSE(pool.contains(b));
}

TEST(Batcher, UndecidedEntriesAreSkippedThenEligibleAgainInPlace) {
  Batcher pool(BatchPolicy{2, 0, 0});
  for (const MsgId& id : {a, b, c, d}) pool.add(msg(id.origin, id.seq), 0);
  EXPECT_EQ(ids_of(pool.cut(0)), (std::vector<MsgId>{a, b}));
  // Instance 0 is undecided: later cuts skip its entries.
  pool.add(msg(e.origin, e.seq), 1);
  EXPECT_EQ(ids_of(pool.cut(1)), (std::vector<MsgId>{c, d}));
  pool.add(msg(f.origin, f.seq), 2);
  // Instance 0 decided another value: only a was ordered, so b is
  // eligible again at its arrival position, ahead of the later e and f.
  pool.mark_ordered(a);
  pool.on_decided(0);
  EXPECT_EQ(pool.instances_in_flight(), 1u);
  EXPECT_EQ(pool.eligible(), 3u);
  EXPECT_EQ(ids_of(pool.cut(2)), (std::vector<MsgId>{b, e}));
  // Instance 1 ordered nothing: c and d come back ahead of f.
  pool.on_decided(1);
  EXPECT_EQ(ids_of(pool.cut(3)), (std::vector<MsgId>{c, d}));
  EXPECT_EQ(ids_of(pool.cut(4)), (std::vector<MsgId>{f}));
}

TEST(Batcher, MarkOrderedInsideAnInFlightBatch) {
  Batcher pool(BatchPolicy{3, 0, 0});
  for (const MsgId& id : {a, b, c}) pool.add(msg(id.origin, id.seq), 0);
  EXPECT_EQ(ids_of(pool.cut(0)), (std::vector<MsgId>{a, b, c}));
  pool.mark_ordered(b);
  EXPECT_FALSE(pool.contains(b));
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.eligible(), 0u);
  EXPECT_EQ(live_ids(pool), (std::vector<MsgId>{a, c}));
  pool.on_decided(0);
  EXPECT_EQ(pool.instances_in_flight(), 0u);
  EXPECT_EQ(pool.eligible(), 2u);
  EXPECT_EQ(ids_of(pool.cut(1)), (std::vector<MsgId>{a, c}));
  // Ordering an id the pool never held is a no-op.
  pool.mark_ordered(MsgId{5, 9});
  EXPECT_EQ(pool.live(), 2u);
}

TEST(Batcher, PeekIncludesInFlightEntriesAndMarksNothing) {
  Batcher pool(BatchPolicy{2, 0, 0});
  for (const MsgId& id : {a, b, c}) pool.add(msg(id.origin, id.seq), 0);
  pool.cut(0);
  EXPECT_EQ(ids_of(pool.peek(10)), (std::vector<MsgId>{a, b, c}));
  EXPECT_EQ(ids_of(pool.peek(2)), (std::vector<MsgId>{a, b}));
  pool.mark_ordered(a);
  EXPECT_EQ(ids_of(pool.peek(10)), (std::vector<MsgId>{b, c}));
  EXPECT_EQ(ids_of(pool.cut(1)), (std::vector<MsgId>{c}));
}

TEST(Batcher, DeltaTimeTriggerAndDeadline) {
  Batcher pool(BatchPolicy{3, 0, milliseconds(10)});
  EXPECT_FALSE(pool.ready(0));
  pool.add(msg(0, 0), milliseconds(1));
  EXPECT_FALSE(pool.ready(milliseconds(1)));
  EXPECT_EQ(pool.deadline(), milliseconds(11));
  EXPECT_FALSE(pool.ready(milliseconds(10)));
  EXPECT_TRUE(pool.ready(milliseconds(11)));
  pool.add(msg(1, 0), milliseconds(5));
  pool.add(msg(2, 0), milliseconds(6));
  EXPECT_TRUE(pool.ready(milliseconds(6)));  // count cap reached
  // The oldest entry goes in flight: the deadline follows the next one.
  Batcher one(BatchPolicy{1, 0, milliseconds(10)});
  one.add(msg(0, 0), milliseconds(1));
  one.add(msg(1, 0), milliseconds(4));
  EXPECT_TRUE(one.ready(milliseconds(2)));  // a cap of one is always full
  one.cut(0);
  EXPECT_EQ(one.deadline(), milliseconds(14));
  one.cut(1);
  EXPECT_FALSE(one.ready(milliseconds(100)));  // nothing eligible

  Batcher bytes(BatchPolicy{10, 100, milliseconds(10)});
  bytes.add(msg(0, 0, 60), 0);
  EXPECT_FALSE(bytes.ready(0));
  bytes.add(msg(0, 1, 60), 0);
  EXPECT_TRUE(bytes.ready(0));  // byte cap reached

  Batcher eager(BatchPolicy{4, 0, 0});
  EXPECT_FALSE(eager.ready(0));
  eager.add(msg(0, 0), 0);
  EXPECT_TRUE(eager.ready(0));
}

// ---------------------------------------------------------------------------
// Differential run against a reference model
// ---------------------------------------------------------------------------

/// The pool's semantics in the plainest terms: an arrival-ordered list, a
/// set of pooled ids, and per-instance in-flight marks.
class ReferencePool {
 public:
  explicit ReferencePool(BatchPolicy policy) : policy_(policy) {}

  bool add(const AppMessage& m, util::TimePoint now) {
    if (!live_.insert(m.id).second) return false;
    fifo_.push_back({m.id, m.payload.size(), now});
    return true;
  }
  void mark_ordered(const MsgId& id) { live_.erase(id); }
  bool contains(const MsgId& id) const { return live_.count(id) != 0; }
  std::size_t live() const { return live_.size(); }
  std::size_t eligible() const {
    std::size_t n = 0;
    for (const Entry& e : fifo_) n += is_eligible(e.id) ? 1 : 0;
    return n;
  }
  bool ready(util::TimePoint now) const {
    std::size_t count = 0, bytes = 0;
    const Entry* oldest = nullptr;
    for (const Entry& e : fifo_) {
      if (!is_eligible(e.id)) continue;
      if (oldest == nullptr) oldest = &e;
      ++count;
      bytes += e.size;
    }
    if (oldest == nullptr) return false;
    return policy_.max_delay == 0 || count >= policy_.max_count ||
           (policy_.max_bytes > 0 && bytes >= policy_.max_bytes) ||
           now - oldest->added_at >= policy_.max_delay;
  }
  util::TimePoint deadline() const {
    for (const Entry& e : fifo_) {
      if (is_eligible(e.id)) return e.added_at + policy_.max_delay;
    }
    return 0;
  }
  std::vector<MsgId> cut(std::uint64_t k) {
    std::vector<MsgId> batch;
    std::size_t bytes = 0;
    for (const Entry& e : fifo_) {
      if (batch.size() >= policy_.max_count) break;
      if (policy_.max_bytes > 0 && bytes >= policy_.max_bytes) break;
      if (!is_eligible(e.id)) continue;
      batch.push_back(e.id);
      bytes += e.size;
    }
    for (const MsgId& id : batch) {
      proposed_.insert(id);
      marks_[k].push_back(id);
    }
    return batch;
  }
  void on_decided(std::uint64_t k) {
    auto it = marks_.find(k);
    if (it == marks_.end()) return;
    for (const MsgId& id : it->second) proposed_.erase(id);
    marks_.erase(it);
  }
  std::size_t instances_in_flight() const { return marks_.size(); }
  std::vector<MsgId> peek(std::size_t cap) const {
    std::vector<MsgId> out;
    for (const Entry& e : fifo_) {
      if (out.size() >= cap) break;
      if (contains(e.id)) out.push_back(e.id);
    }
    return out;
  }
  std::vector<MsgId> live_in_order() const { return peek(fifo_.size()); }
  /// Instances holding in-flight marks.
  std::vector<std::uint64_t> marked() const {
    std::vector<std::uint64_t> out;
    for (const auto& [k, ids] : marks_) out.push_back(k);
    return out;
  }

 private:
  struct Entry {
    MsgId id;
    std::size_t size;
    util::TimePoint added_at;
  };
  bool is_eligible(const MsgId& id) const {
    return contains(id) && proposed_.count(id) == 0;
  }

  BatchPolicy policy_;
  std::vector<Entry> fifo_;
  std::set<MsgId> live_;
  std::set<MsgId> proposed_;
  std::map<std::uint64_t, std::vector<MsgId>> marks_;
};

/// Random operations as the ordering front end issues them. Ids are dense
/// per origin and may be pooled out of order; an id, once ordered, is
/// never pooled again (the front end's delivered filter refuses it).
void run_differential(std::uint64_t seed, BatchPolicy policy, int ops) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  util::Rng rng(seed);
  Batcher pool(policy);
  ReferencePool ref(policy);
  constexpr util::ProcessId kOrigins = 3;
  std::vector<std::uint64_t> next_seq(kOrigins, 0);
  std::vector<MsgId> held_back;   // allocated ids not yet pooled
  std::vector<MsgId> pooled;      // ids pooled and not yet ordered
  std::set<MsgId> ordered;
  std::uint64_t next_k = 0;
  util::TimePoint now = 0;

  auto take = [&rng](std::vector<MsgId>& v) {
    const std::size_t i = rng.uniform(v.size());
    const MsgId id = v[i];
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
    return id;
  };

  for (int op = 0; op < ops; ++op) {
    now += static_cast<util::TimePoint>(rng.uniform(3));
    const std::uint64_t r = rng.uniform(100);
    if (r < 28) {
      // Pool a fresh id, or one held back (an out-of-order arrival).
      MsgId id;
      if (!held_back.empty() && rng.chance(0.3)) {
        id = take(held_back);
      } else {
        const auto o = static_cast<util::ProcessId>(rng.uniform(kOrigins));
        id = MsgId{o, next_seq[o]++};
        if (rng.chance(0.15)) {
          held_back.push_back(id);
          continue;
        }
      }
      const AppMessage m = msg(id.origin, id.seq, 1 + rng.uniform(40));
      ASSERT_TRUE(pool.add(m, now));
      ASSERT_TRUE(ref.add(m, now));
      pooled.push_back(id);
    } else if (r < 33 && !pooled.empty()) {
      const MsgId id = pooled[rng.uniform(pooled.size())];
      ASSERT_FALSE(pool.add(msg(id.origin, id.seq), now));
      ASSERT_FALSE(ref.add(msg(id.origin, id.seq), now));
    } else if (r < 58) {
      // Order an id: usually a pooled one, sometimes one never pooled (a
      // decision delivered it before its diffusion arrived).
      MsgId id;
      if (!pooled.empty() && rng.chance(0.8)) {
        id = take(pooled);
      } else if (!held_back.empty()) {
        id = take(held_back);
      } else {
        continue;
      }
      ordered.insert(id);
      pool.mark_ordered(id);
      ref.mark_ordered(id);
    } else if (r < 72) {
      const std::uint64_t k = next_k++;
      ASSERT_EQ(ids_of(pool.cut(k)), ref.cut(k));
    } else if (r < 86) {
      // Decide an instance with marks, or one without.
      const std::vector<std::uint64_t> marked = ref.marked();
      const std::uint64_t k = !marked.empty() && rng.chance(0.9)
                                  ? marked[rng.uniform(marked.size())]
                                  : next_k + rng.uniform(3);
      pool.on_decided(k);
      ref.on_decided(k);
    } else if (r < 92) {
      const std::size_t cap = rng.uniform(8);
      ASSERT_EQ(ids_of(pool.peek(cap)), ref.peek(cap));
    } else {
      const util::TimePoint at = now + static_cast<util::TimePoint>(
                                           rng.uniform(policy.max_delay + 2));
      ASSERT_EQ(pool.ready(at), ref.ready(at));
    }
    ASSERT_EQ(pool.live(), ref.live());
    ASSERT_EQ(pool.empty(), ref.live() == 0);
    ASSERT_EQ(pool.eligible(), ref.eligible());
    ASSERT_EQ(pool.instances_in_flight(), ref.instances_in_flight());
    ASSERT_EQ(pool.deadline(), ref.deadline());
    ASSERT_EQ(pool.ready(now), ref.ready(now));
    ASSERT_EQ(live_ids(pool), ref.live_in_order());
    if (!pooled.empty()) {
      const MsgId id = pooled[rng.uniform(pooled.size())];
      ASSERT_TRUE(pool.contains(id));
    }
    if (!ordered.empty() && rng.chance(0.2)) {
      ASSERT_FALSE(pool.contains(*ordered.begin()));
    }
  }
}

TEST(BatcherDifferential, EagerCountCap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_differential(seed, BatchPolicy{4, 0, 0}, 3000);
  }
}

TEST(BatcherDifferential, ByteCap) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    run_differential(seed, BatchPolicy{6, 50, 0}, 3000);
  }
}

TEST(BatcherDifferential, DeltaTimeWindow) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    run_differential(seed, BatchPolicy{5, 80, 6}, 3000);
  }
}

}  // namespace
}  // namespace modcast::adb
