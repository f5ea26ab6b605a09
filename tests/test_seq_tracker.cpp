// Unit tests: duplicate suppression (util/seq_tracker).
#include "util/seq_tracker.hpp"

#include <gtest/gtest.h>

namespace modcast::util {
namespace {

TEST(SeqTracker, FirstMarkIsNew) {
  SeqTracker t;
  EXPECT_TRUE(t.mark(1, 0));
  EXPECT_FALSE(t.mark(1, 0));
}

TEST(SeqTracker, IndependentOrigins) {
  SeqTracker t;
  EXPECT_TRUE(t.mark(1, 5));
  EXPECT_TRUE(t.mark(2, 5));
  EXPECT_TRUE(t.seen(1, 5));
  EXPECT_FALSE(t.seen(2, 4));
}

TEST(SeqTracker, WatermarkAdvancesContiguously) {
  SeqTracker t;
  EXPECT_EQ(t.watermark(3), 0u);
  t.mark(3, 0);
  t.mark(3, 1);
  t.mark(3, 2);
  EXPECT_EQ(t.watermark(3), 3u);
}

TEST(SeqTracker, OutOfOrderThenFill) {
  SeqTracker t;
  t.mark(0, 2);
  t.mark(0, 4);
  EXPECT_EQ(t.watermark(0), 0u);
  EXPECT_TRUE(t.seen(0, 2));
  EXPECT_FALSE(t.seen(0, 3));
  t.mark(0, 0);
  EXPECT_EQ(t.watermark(0), 1u);
  t.mark(0, 1);
  EXPECT_EQ(t.watermark(0), 3u);  // 0,1,2 contiguous; 4 still sparse
  t.mark(0, 3);
  EXPECT_EQ(t.watermark(0), 5u);
}

TEST(SeqTracker, BelowWatermarkIsDuplicate) {
  SeqTracker t;
  for (std::uint64_t s = 0; s < 10; ++s) t.mark(7, s);
  EXPECT_EQ(t.watermark(7), 10u);
  EXPECT_FALSE(t.mark(7, 3));
  EXPECT_TRUE(t.seen(7, 3));
}

TEST(SeqTracker, MemoryCompaction) {
  // One million contiguous marks must not retain a million entries; after
  // full contiguity the sparse set is empty and only the watermark remains.
  SeqTracker t;
  for (std::uint64_t s = 0; s < 100000; ++s) {
    ASSERT_TRUE(t.mark(1, s));
  }
  EXPECT_EQ(t.watermark(1), 100000u);
  EXPECT_TRUE(t.seen(1, 99999));
  EXPECT_FALSE(t.seen(1, 100000));
}

TEST(SeqTracker, UnknownOriginNeverSeen) {
  SeqTracker t;
  EXPECT_FALSE(t.seen(42, 0));
  EXPECT_EQ(t.watermark(42), 0u);
}

TEST(SeqTracker, InOrderMarksAdvanceTheWatermark) {
  SeqTracker t;
  for (std::uint64_t s = 0; s < 5; ++s) {
    EXPECT_TRUE(t.mark(2, s));
    EXPECT_EQ(t.watermark(2), s + 1);
    EXPECT_TRUE(t.seen(2, s));
    EXPECT_FALSE(t.seen(2, s + 1));
  }
}

TEST(SeqTracker, GapThenItsFillDrainsTheSparseIds) {
  SeqTracker t;
  EXPECT_TRUE(t.mark(0, 0));
  EXPECT_TRUE(t.mark(0, 2));  // gap at 1
  EXPECT_TRUE(t.mark(0, 3));
  EXPECT_EQ(t.watermark(0), 1u);
  EXPECT_FALSE(t.seen(0, 1));
  EXPECT_TRUE(t.mark(0, 1));  // the fill is next in order
  EXPECT_EQ(t.watermark(0), 4u);
  EXPECT_TRUE(t.mark(0, 4));
  EXPECT_EQ(t.watermark(0), 5u);
}

TEST(SeqTracker, DuplicateAfterInOrderMarkIsRefused) {
  SeqTracker t;
  EXPECT_TRUE(t.mark(4, 0));
  EXPECT_TRUE(t.mark(4, 1));
  EXPECT_FALSE(t.mark(4, 1));
  EXPECT_FALSE(t.mark(4, 0));
  EXPECT_EQ(t.watermark(4), 2u);
  EXPECT_TRUE(t.mark(4, 3));
  EXPECT_FALSE(t.mark(4, 3));  // sparse duplicate
  EXPECT_EQ(t.watermark(4), 2u);
}

}  // namespace
}  // namespace modcast::util
