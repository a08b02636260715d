// Static bulk-loaded B+-tree over sorted 64-bit keys. The paper lists the
// B+-tree as one of the physical representations for linearized cells
// (Section 3); here it returns ranks into the sorted key array so it can
// drive the same prefix-sum aggregation as binary search and RadixSpline.

#ifndef DBSA_INDEX_BTREE_H_
#define DBSA_INDEX_BTREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbsa::index {

/// Cache-friendly static B+-tree: nodes are fixed-fanout key blocks laid
/// out level by level in one contiguous vector.
class StaticBTree {
 public:
  static constexpr int kFanout = 32;

  /// Builds over an already-sorted key array (not owned; the caller keeps
  /// it alive, typically inside a SortedKeyArray / PrefixSumIndex).
  static StaticBTree Build(const std::vector<uint64_t>& sorted_keys);

  /// Rank of the first key >= `key` (== sorted position, usable with
  /// PrefixSumIndex::CountBetween / SumPairBetween).
  size_t LowerBoundRank(uint64_t key) const;

  size_t MemoryBytes() const { return inner_.size() * sizeof(uint64_t); }
  int height() const { return height_; }

 private:
  // Inner levels only; the "leaf level" is the caller's sorted array.
  // levels_[h] = offset of level h in inner_, level 0 = root.
  std::vector<uint64_t> inner_;
  std::vector<size_t> level_offset_;
  std::vector<size_t> level_size_;
  int height_ = 0;
  size_t num_keys_ = 0;
  const uint64_t* leaf_keys_ = nullptr;
};

}  // namespace dbsa::index

#endif  // DBSA_INDEX_BTREE_H_
