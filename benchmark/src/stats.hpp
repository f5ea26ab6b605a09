// Percentiles and medians for modbench reports.
//
// A timing is reported only at a percentile that leaves at least ten
// samples beyond it; below that the tail is a handful of outliers and the
// number would not repeat. Both percentile helpers enforce the rule and
// return nothing instead of a misleading value.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/stats.hpp"

namespace modbench {

/// Samples required beyond a reported percentile.
inline constexpr double kMinTailSamples = 10.0;

/// True when `count` samples leave at least ten beyond percentile q (0-100).
bool supports_percentile(std::uint64_t count, double q);

/// Linear-interpolated percentile q of `samples` (util::SampleSet's
/// definition), or nullopt when too few samples lie beyond it.
std::optional<double> percentile(const modcast::util::SampleSet& samples,
                                 double q);

/// Median of a non-empty list (combining repetitions; no tail rule).
double median(std::vector<double> values);

/// Fixed-size log-bucketed histogram for high-volume per-layer samples
/// (message transit, timer lateness). Values below 64 are exact; above, 64
/// sub-buckets per power of two bound the error of a reported percentile to
/// 1/128 of the value. Never allocates after construction.
class LogHistogram {
 public:
  /// Adds one non-negative integer sample (negative values count as 0).
  void add(std::int64_t value);
  void merge(const LogHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Percentile q (0-100) as the midpoint of the bucket holding it, or
  /// nullopt when too few samples lie beyond it.
  std::optional<double> percentile(double q) const;

 private:
  static constexpr int kSub = 64;
  static constexpr int kBuckets = 64 * kSub;
  static int bucket_of(std::uint64_t value);
  static double midpoint(int bucket);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace modbench
