#include "stats.hpp"

#include <algorithm>
#include <bit>

namespace modbench {

bool supports_percentile(std::uint64_t count, double q) {
  if (q < 0.0 || q > 100.0) return false;
  return static_cast<double>(count) * (100.0 - q) / 100.0 >= kMinTailSamples;
}

std::optional<double> percentile(const modcast::util::SampleSet& samples,
                                 double q) {
  if (!supports_percentile(samples.count(), q)) return std::nullopt;
  return samples.percentile(q);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

int LogHistogram::bucket_of(std::uint64_t value) {
  if (value < kSub) return static_cast<int>(value);
  const int msb = 63 - std::countl_zero(value);  // >= 6
  const int shift = msb - 6;
  const auto mantissa = static_cast<int>(value >> shift);  // [64, 128)
  return (msb - 5) * kSub + (mantissa - kSub);
}

double LogHistogram::midpoint(int bucket) {
  const int shift = bucket / kSub - 1;  // buckets below 128 hold one value
  if (shift <= 0) return bucket;
  const auto lower = static_cast<double>(
      static_cast<std::uint64_t>(bucket % kSub + kSub) << shift);
  return lower + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
}

void LogHistogram::add(std::int64_t value) {
  ++buckets_[bucket_of(value < 0 ? 0 : static_cast<std::uint64_t>(value))];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

std::optional<double> LogHistogram::percentile(double q) const {
  if (!supports_percentile(count_, q)) return std::nullopt;
  // Same rank as SampleSet: the floor of q/100 * (count - 1), 0-based.
  const auto rank = static_cast<std::uint64_t>(
      q / 100.0 * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) return midpoint(i);
  }
  return midpoint(kBuckets - 1);
}

}  // namespace modbench
