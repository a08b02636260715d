// Fixed-boundary latency histogram VALUE type — the bucket math shared by
// the lock-free telemetry::Histogram metric (telemetry/metrics.h) and the
// quantile view of util::RunningStats. Keeping one definition means the
// registry's wire exposition, the slow-query log and the benchmark's
// histogram readouts all agree on what "p95" means.
//
// Boundaries are log2-spaced milliseconds: bucket i counts samples in
// (UpperBound(i-1), UpperBound(i)] with UpperBound(i) = 0.001 * 2^i, from
// 1 microsecond up to ~4295 seconds, plus one overflow bucket. Quantiles
// interpolate linearly inside a bucket, so the error of Quantile(p) is
// bounded by the bucket width (a factor of 2) — the right trade for
// latencies, where the DECADE matters and exact order statistics would
// need every sample retained.
//
// This header depends on nothing but the standard library: telemetry sits
// below util in the include graph (util/stats.h includes it).

#ifndef DBSA_TELEMETRY_HISTOGRAM_H_
#define DBSA_TELEMETRY_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace dbsa::telemetry {

/// Plain (non-atomic, copyable) histogram of non-negative latency samples
/// in milliseconds. The concurrent metric (telemetry::Histogram) records
/// into sharded atomic cells and merges into one of these on read.
struct HistogramData {
  /// Finite upper boundaries; one extra overflow bucket follows.
  static constexpr size_t kNumBounds = 33;
  static constexpr size_t kNumBuckets = kNumBounds + 1;

  /// Inclusive upper bound of bucket i (milliseconds): 0.001 * 2^i.
  static double UpperBound(size_t i) {
    double ub = 0.001;
    for (size_t k = 0; k < i; ++k) ub *= 2.0;
    return ub;
  }

  /// Index of the bucket that counts `ms` (the last bucket catches
  /// overflow, negatives and NaN clamp to bucket 0).
  static size_t BucketIndex(double ms) {
    if (!(ms > 0.001)) return 0;
    double ub = 0.001;
    for (size_t i = 0; i < kNumBounds; ++i) {
      if (ms <= ub) return i;
      ub *= 2.0;
    }
    return kNumBounds;  // Overflow.
  }

  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  double sum_ms = 0.0;

  void Record(double ms) {
    ++buckets[BucketIndex(ms)];
    ++count;
    sum_ms += ms > 0.0 ? ms : 0.0;
  }

  void Merge(const HistogramData& o) {
    for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += o.buckets[i];
    count += o.count;
    sum_ms += o.sum_ms;
  }

  /// p in [0, 100]. Linear interpolation inside the bucket that holds the
  /// p-th sample; lower edge of bucket 0 is 0, the overflow bucket
  /// reports its lower edge (the largest finite boundary). 0 when empty.
  double Quantile(double p) const {
    if (count == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 100.0) p = 100.0;
    // Rank of the target sample, 1-based: quantile q covers the first
    // ceil(q * count) samples.
    const double target = p / 100.0 * static_cast<double>(count);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (buckets[i] == 0) continue;
      const uint64_t next = cumulative + buckets[i];
      if (static_cast<double>(next) >= target) {
        const double lo = i == 0 ? 0.0 : UpperBound(i - 1);
        if (i == kNumBounds) return UpperBound(kNumBounds - 1);  // Overflow.
        const double hi = UpperBound(i);
        const double into =
            (target - static_cast<double>(cumulative)) /
            static_cast<double>(buckets[i]);
        return lo + (hi - lo) * (into < 0.0 ? 0.0 : into > 1.0 ? 1.0 : into);
      }
      cumulative = next;
    }
    return UpperBound(kNumBounds - 1);
  }
};

}  // namespace dbsa::telemetry

#endif  // DBSA_TELEMETRY_HISTOGRAM_H_
