#include <gtest/gtest.h>

#include "stats.hpp"

namespace modbench {
namespace {

modcast::util::SampleSet ramp(int count) {
  modcast::util::SampleSet s;
  for (int i = 1; i <= count; ++i) s.add(i);
  return s;
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(percentile(ramp(19), 50).has_value());
  EXPECT_FALSE(percentile(ramp(999), 99).has_value());
  EXPECT_FALSE(percentile(ramp(99), 90).has_value());
  EXPECT_FALSE(percentile(ramp(0), 50).has_value());
}

TEST(Percentile, AnswersWithAtLeastTenBeyond) {
  ASSERT_TRUE(percentile(ramp(20), 50).has_value());
  EXPECT_DOUBLE_EQ(*percentile(ramp(20), 50), 10.5);
  ASSERT_TRUE(percentile(ramp(1000), 99).has_value());
  EXPECT_NEAR(*percentile(ramp(1000), 99), 990.01, 1e-9);
  EXPECT_TRUE(percentile(ramp(100), 90).has_value());
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(i);
  ASSERT_TRUE(h.percentile(50).has_value());
  EXPECT_DOUBLE_EQ(*h.percentile(50), 49);
  EXPECT_DOUBLE_EQ(*h.percentile(90), 89);
}

TEST(LogHistogram, LargeValuesWithinBucketError) {
  LogHistogram h;
  for (int i = 1; i <= 10000; ++i) h.add(static_cast<std::int64_t>(i) * 1000);
  ASSERT_TRUE(h.percentile(99).has_value());
  const double exact = 9900 * 1000.0;
  EXPECT_NEAR(*h.percentile(99), exact, exact / 64);
}

TEST(LogHistogram, RefusesSparseTailsAndClampsNegatives) {
  LogHistogram h;
  for (int i = 0; i < 500; ++i) h.add(-5);
  EXPECT_FALSE(h.percentile(99).has_value());
  ASSERT_TRUE(h.percentile(50).has_value());
  EXPECT_DOUBLE_EQ(*h.percentile(50), 0);
}

}  // namespace
}  // namespace modbench
