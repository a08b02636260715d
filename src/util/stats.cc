#include "util/stats.h"

#include <algorithm>
#include <cstdio>

namespace dbsa {

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
  hist_.Record(x);
}

void Percentiles::AddAll(const std::vector<double>& xs) {
  xs_.insert(xs_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void Percentiles::EnsureSorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Percentiles::Percentile(double p) const {
  if (xs_.empty()) return 0.0;
  EnsureSorted();
  if (p <= 0) return xs_.front();
  if (p >= 100) return xs_.back();
  const double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= xs_.size()) return xs_.back();
  return xs_[lo] * (1.0 - frac) + xs_[lo + 1] * frac;
}

std::string HumanBytes(size_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
  }
  return buf;
}

std::string HumanCount(double n) {
  char buf[64];
  if (n >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fB", n / 1e9);
  } else if (n >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", n / 1e6);
  } else if (n >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", n / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", n);
  }
  return buf;
}

}  // namespace dbsa
