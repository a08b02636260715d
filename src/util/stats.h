// Streaming statistics and percentile summaries used by benches and the
// approximation-quality reports.

#ifndef DBSA_UTIL_STATS_H_
#define DBSA_UTIL_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "telemetry/histogram.h"

namespace dbsa {

/// One-pass mean / min / max / sum accumulator, with a bucketed
/// quantile view (telemetry::HistogramData) so streaming consumers get
/// percentiles in O(1) memory. Quantile() is bucket-interpolated (error
/// bounded by the log2 bucket width); use Percentiles when samples are
/// retained and exact order statistics matter.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// p in [0, 100]; bucket-interpolated from the histogram view.
  double Quantile(double p) const { return hist_.Quantile(p); }
  const telemetry::HistogramData& histogram() const { return hist_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  telemetry::HistogramData hist_;
};

/// Exact percentile summary: stores all samples (fine at bench scales).
class Percentiles {
 public:
  void Add(double x) { xs_.push_back(x); }
  void AddAll(const std::vector<double>& xs);

  size_t count() const { return xs_.size(); }

  /// p in [0, 100]. Linear interpolation between order statistics.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

/// Pretty-print a byte count ("143.2 MB").
std::string HumanBytes(size_t bytes);

/// Pretty-print a count ("1.2B", "39.2K").
std::string HumanCount(double n);

}  // namespace dbsa

#endif  // DBSA_UTIL_STATS_H_
