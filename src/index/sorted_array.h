// Sorted-array point index with prefix-sum aggregates — the physical
// representation of Section 3's "Point Indexing": points become sorted
// 1-D cell keys; COUNT/SUM over a query cell's key range costs two
// searches (Ho et al., SIGMOD'97). The searches themselves are pluggable
// (binary search here, RadixSpline / B+-tree elsewhere).

#ifndef DBSA_INDEX_SORTED_ARRAY_H_
#define DBSA_INDEX_SORTED_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/compensated.h"

namespace dbsa::index {

/// Sorted key array with branch-reduced binary search.
class SortedKeyArray {
 public:
  SortedKeyArray() = default;

  /// Takes ownership, sorts if needed.
  static SortedKeyArray Build(std::vector<uint64_t> keys);

  const std::vector<uint64_t>& keys() const { return keys_; }
  size_t size() const { return keys_.size(); }

  /// Index of the first key >= `key`.
  size_t LowerBound(uint64_t key) const { return LowerBoundFrom(key, 0, keys_.size()); }

  /// Lower bound restricted to [begin, end) — used with learned-index
  /// search windows.
  size_t LowerBoundFrom(uint64_t key, size_t begin, size_t end) const;

  size_t MemoryBytes() const { return keys_.size() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> keys_;
};

/// Sorted keys plus prefix sums of an attribute: range COUNT and SUM in
/// O(search). The positions returned by any search strategy over keys()
/// can be fed to CountBetween / SumPairBetween. The sort permutation is kept,
/// so selections can map positions back to original row ids.
class PrefixSumIndex {
 public:
  /// Builds from parallel key/value arrays (reordered together).
  static PrefixSumIndex Build(std::vector<uint64_t> keys, std::vector<double> values);

  /// Reassembles an index from its frozen representation (snapshot load,
  /// src/snapshot/). The inputs must be EXACTLY what Build produced:
  /// `sorted_keys` ascending, both prefix arrays of size n+1 with
  /// entry 0 == 0.0, and `ids` an n-sized row-id permutation. Untrusted
  /// bytes are validated by SnapshotReader BEFORE this runs; the checks
  /// here guard programming errors, they are not a parse path.
  static PrefixSumIndex FromParts(std::vector<uint64_t> sorted_keys,
                                  std::vector<double> prefix,
                                  std::vector<double> prefix_comp,
                                  std::vector<uint32_t> ids);

  /// Original row id stored at sorted position `pos`.
  uint32_t IdAt(size_t pos) const { return ids_[pos]; }

  /// Appends the original row ids in [lo_pos, hi_pos) to `out`.
  void CollectIds(size_t lo_pos, size_t hi_pos, std::vector<uint32_t>* out) const {
    if (hi_pos <= lo_pos) return;
    out->insert(out->end(), ids_.begin() + static_cast<std::ptrdiff_t>(lo_pos),
                ids_.begin() + static_cast<std::ptrdiff_t>(hi_pos));
  }

  const SortedKeyArray& keys() const { return keys_; }
  size_t size() const { return keys_.size(); }

  /// Frozen representation, exposed for serialization (src/snapshot/):
  /// the compensated prefix arrays (size n+1, entry 0 == 0.0) and the
  /// sort permutation. Round-tripping these three arrays plus keys()
  /// through FromParts reproduces the index bit-for-bit.
  const std::vector<double>& prefix() const { return prefix_; }
  const std::vector<double>& prefix_comp() const { return prefix_comp_; }
  const std::vector<uint32_t>& ids() const { return ids_; }

  /// Aggregates between precomputed positions [lo_pos, hi_pos).
  size_t CountBetween(size_t lo_pos, size_t hi_pos) const {
    return hi_pos > lo_pos ? hi_pos - lo_pos : 0;
  }

  /// Range SUM as a compensated pair. The prefix array is accumulated
  /// through error-free transformations, so the pair equals the EXACT sum
  /// of the range's values whenever the running sums fit the ~106-bit
  /// pair window — which is what lets spatially-partitioned executions
  /// merge shard partials into byte-identical totals for non-dyadic
  /// attribute columns (core/sharded_state.h merge identity).
  TwoDouble SumPairBetween(size_t lo_pos, size_t hi_pos) const {
    if (hi_pos <= lo_pos) return TwoDouble{};
    return SubPair({prefix_[hi_pos], prefix_comp_[hi_pos]},
                   {prefix_[lo_pos], prefix_comp_[lo_pos]});
  }

  size_t MemoryBytes() const {
    return keys_.MemoryBytes() + prefix_.size() * sizeof(double) +
           prefix_comp_.size() * sizeof(double) + ids_.size() * sizeof(uint32_t);
  }

 private:
  SortedKeyArray keys_;
  std::vector<double> prefix_;       ///< Leading parts: sum of values[0..i).
  std::vector<double> prefix_comp_;  ///< Trailing (compensation) parts.
  std::vector<uint32_t> ids_;        ///< Sort permutation (original row ids).
};

}  // namespace dbsa::index

#endif  // DBSA_INDEX_SORTED_ARRAY_H_
