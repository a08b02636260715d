// RadixSpline learned index (Kipf et al., aiDM@SIGMOD'20), as used by the
// paper in Section 3: a single-pass greedy spline over (key, position)
// plus a radix table over key prefixes. Lookups return a narrow position
// window that the caller searches (e.g. SortedKeyArray::LowerBoundFrom).

#ifndef DBSA_INDEX_RADIX_SPLINE_H_
#define DBSA_INDEX_RADIX_SPLINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbsa::index {

/// Half-open position window [begin, end) guaranteed to contain the
/// lower-bound position of the looked-up key.
struct SearchBound {
  size_t begin = 0;
  size_t end = 0;
};

/// Single-pass learned index over a sorted key array (not owned).
class RadixSpline {
 public:
  /// Builds over sorted keys. num_radix_bits is the prefix-table width
  /// (the paper uses 25 at 1.2B keys; scale down with data size);
  /// spline_error is the max position error of the spline (paper: 32).
  static RadixSpline Build(const std::vector<uint64_t>& sorted_keys,
                           int num_radix_bits, size_t spline_error);

  /// Window containing LowerBound(key).
  SearchBound Lookup(uint64_t key) const;

  size_t NumSplinePoints() const { return spline_keys_.size(); }
  size_t MemoryBytes() const {
    return spline_keys_.size() * (sizeof(uint64_t) + sizeof(double)) +
           radix_table_.size() * sizeof(uint32_t);
  }

 private:
  // Spline segment index bracketing `key` (index of the right endpoint).
  size_t FindSplineSegment(uint64_t key) const;

  size_t n_ = 0;
  size_t spline_error_ = 32;
  uint64_t min_key_ = 0;
  uint64_t max_key_ = 0;
  int shift_ = 0;
  std::vector<uint64_t> spline_keys_;
  std::vector<double> spline_pos_;
  std::vector<uint32_t> radix_table_;
};

}  // namespace dbsa::index

#endif  // DBSA_INDEX_RADIX_SPLINE_H_
