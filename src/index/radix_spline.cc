#include "index/radix_spline.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dbsa::index {

RadixSpline RadixSpline::Build(const std::vector<uint64_t>& keys, int num_radix_bits,
                               size_t spline_error) {
  DBSA_CHECK(num_radix_bits > 0 && num_radix_bits <= 30);
  RadixSpline rs;
  rs.n_ = keys.size();
  rs.spline_error_ = std::max<size_t>(spline_error, 1);
  if (keys.empty()) {
    rs.radix_table_.assign(2, 0);
    return rs;
  }
  rs.min_key_ = keys.front();
  rs.max_key_ = keys.back();

  // --- Pass 1: greedy spline corridor over (key, first-position) of each
  // distinct key.
  const double err = static_cast<double>(rs.spline_error_);
  auto emit = [&rs](uint64_t k, double p) {
    rs.spline_keys_.push_back(k);
    rs.spline_pos_.push_back(p);
  };

  uint64_t base_key = keys[0];
  double base_pos = 0.0;
  emit(base_key, base_pos);
  double upper = std::numeric_limits<double>::infinity();
  double lower = -std::numeric_limits<double>::infinity();
  uint64_t prev_key = base_key;
  double prev_pos = 0.0;
  bool have_candidate = false;

  for (size_t i = 1; i < rs.n_; ++i) {
    if (keys[i] == prev_key) continue;  // First position per distinct key.
    const uint64_t k = keys[i];
    const double p = static_cast<double>(i);
    const double dx = static_cast<double>(k - base_key);
    const double hi = (p + err - base_pos) / dx;
    const double lo = (p - err - base_pos) / dx;
    if (lo > upper || hi < lower) {
      // Corridor broken: the previous point becomes a spline point.
      emit(prev_key, prev_pos);
      base_key = prev_key;
      base_pos = prev_pos;
      const double dx2 = static_cast<double>(k - base_key);
      upper = (p + err - base_pos) / dx2;
      lower = (p - err - base_pos) / dx2;
    } else {
      upper = std::min(upper, hi);
      lower = std::max(lower, lo);
    }
    prev_key = k;
    prev_pos = p;
    have_candidate = true;
  }
  if (have_candidate &&
      (rs.spline_keys_.empty() || rs.spline_keys_.back() != prev_key)) {
    emit(prev_key, prev_pos);
  }

  // --- Pass 2: measure the actual max interpolation error over all
  // distinct keys (the greedy corridor can exceed the configured error by
  // up to 2x at segment boundaries); lookups use the measured bound,
  // which makes the search window provably correct.
  {
    size_t seg = 1;
    double max_err = 1.0;
    uint64_t prev = keys[0];
    for (size_t i = 1; i < rs.n_; ++i) {
      if (keys[i] == prev) continue;
      prev = keys[i];
      while (seg + 1 < rs.spline_keys_.size() && rs.spline_keys_[seg] < keys[i]) {
        ++seg;
      }
      if (seg >= rs.spline_keys_.size()) break;
      const uint64_t x0 = rs.spline_keys_[seg - 1];
      const uint64_t x1 = rs.spline_keys_[seg];
      const double y0 = rs.spline_pos_[seg - 1];
      const double y1 = rs.spline_pos_[seg];
      const double t = x1 == x0 ? 0.0
                                : static_cast<double>(keys[i] - x0) /
                                      static_cast<double>(x1 - x0);
      const double est = y0 + t * (y1 - y0);
      max_err = std::max(max_err, std::fabs(est - static_cast<double>(i)));
    }
    rs.spline_error_ = static_cast<size_t>(max_err) + 1;
  }

  // --- Pass 3: radix table over the spline keys.
  int key_bits = 64 - __builtin_clzll(rs.max_key_ | 1);
  rs.shift_ = std::max(key_bits - num_radix_bits, 0);
  const size_t table_size = (static_cast<size_t>(1) << num_radix_bits) + 1;
  rs.radix_table_.assign(table_size, 0);
  // radix_table_[p] = first spline index whose (key >> shift) >= p.
  size_t s = 0;
  for (size_t p = 0; p < table_size; ++p) {
    while (s < rs.spline_keys_.size() && (rs.spline_keys_[s] >> rs.shift_) < p) ++s;
    rs.radix_table_[p] = static_cast<uint32_t>(s);
  }
  return rs;
}

size_t RadixSpline::FindSplineSegment(uint64_t key) const {
  const uint64_t prefix = key >> shift_;
  const size_t p = std::min<size_t>(prefix, radix_table_.size() - 2);
  size_t begin = radix_table_[p];
  size_t end = std::min<size_t>(radix_table_[p + 1] + 1, spline_keys_.size());
  begin = begin > 0 ? begin - 1 : 0;
  // First spline key >= key within [begin, end).
  const auto it = std::lower_bound(spline_keys_.begin() + begin,
                                   spline_keys_.begin() + end, key);
  size_t idx = static_cast<size_t>(it - spline_keys_.begin());
  if (idx >= spline_keys_.size()) idx = spline_keys_.size() - 1;
  if (idx == 0) idx = spline_keys_.size() > 1 ? 1 : 0;
  return idx;
}

SearchBound RadixSpline::Lookup(uint64_t key) const {
  if (n_ == 0) return {0, 0};
  if (key <= min_key_) return {0, std::min<size_t>(1, n_)};
  if (key > max_key_) return {n_, n_};
  const size_t seg = FindSplineSegment(key);
  const size_t seg_lo = seg > 0 ? static_cast<size_t>(spline_pos_[seg - 1]) : 0;
  // spline_pos_ stores first-occurrence positions, so for key <= spline
  // key x1 the answer is at most pos(x1); that bound stays correct even
  // under long duplicate runs (where the +/- error window alone would not).
  const size_t seg_hi = static_cast<size_t>(spline_pos_[seg]);
  // Interpolate within the segment found above (inline EstimatePosition,
  // avoiding a second segment search).
  double est;
  {
    const uint64_t x0 = spline_keys_[seg - 1];
    const uint64_t x1 = spline_keys_[seg];
    const double y0 = spline_pos_[seg - 1];
    const double y1 = spline_pos_[seg];
    est = (x1 == x0) ? y0
                     : y0 + static_cast<double>(key - x0) /
                                static_cast<double>(x1 - x0) * (y1 - y0);
  }
  const double err = static_cast<double>(spline_error_);
  const double lo_d = est - err;
  SearchBound b;
  b.begin = std::max<size_t>(seg_lo, lo_d > 0 ? static_cast<size_t>(lo_d) : 0);
  // The +err window covers every key present in the data; a long run of
  // duplicates just below an absent lookup key can push the true position
  // past it — callers detect "not found within window" (position == end)
  // and fall back to searching [end, n). See PointIndex::LowerBound.
  b.end = std::min<size_t>(
      {n_, seg_hi + 1, static_cast<size_t>(std::max(est + err, 0.0)) + 2});
  if (b.end < b.begin) b.begin = b.end;
  return b;
}

}  // namespace dbsa::index
