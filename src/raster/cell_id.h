// 64-bit hierarchical cell identifiers over a quadtree decomposition of a
// square universe, in the style of S2 cell ids: the Morton prefix of the
// cell is followed by a single sentinel 1-bit that encodes the level. This
// gives three properties the indexing layer relies on (Section 3):
//
//   * ids of all levels live in one integer domain,
//   * the descendants of a cell form one contiguous leaf-key range, and
//   * parent/child navigation is bit arithmetic.

#ifndef DBSA_RASTER_CELL_ID_H_
#define DBSA_RASTER_CELL_ID_H_

#include <cstdint>

#include "sfc/morton.h"
#include "util/check.h"

namespace dbsa::raster {

/// A hierarchical raster cell. Level 0 is the whole universe; level
/// kMaxLevel is the finest grid (2^24 x 2^24 cells).
class CellId {
 public:
  static constexpr int kMaxLevel = 24;

  CellId() : id_(0) {}
  explicit CellId(uint64_t id) : id_(id) {}

  /// Builds a cell from its level and Morton prefix (2*level bits).
  static CellId FromLevelPrefix(int level, uint64_t prefix) {
    DBSA_DCHECK(level >= 0 && level <= kMaxLevel);
    const int shift = 2 * (kMaxLevel - level);
    return CellId((prefix << (shift + 1)) | (1ULL << shift));
  }

  /// Builds a cell from grid coordinates at the given level.
  static CellId FromXY(int level, uint32_t ix, uint32_t iy) {
    return FromLevelPrefix(level, sfc::MortonEncode(ix, iy));
  }

  /// Cell containing the given finest-level (leaf) Morton key.
  static CellId FromLeafKey(uint64_t leaf_key) {
    return FromLevelPrefix(kMaxLevel, leaf_key);
  }

  uint64_t id() const { return id_; }
  bool IsValid() const { return id_ != 0; }

  /// Number of quadtree subdivisions from the root.
  int level() const {
    DBSA_DCHECK(IsValid());
    return kMaxLevel - (__builtin_ctzll(id_) >> 1);
  }

  /// Morton prefix (2*level bits).
  uint64_t prefix() const { return id_ >> (__builtin_ctzll(id_) + 1); }

  /// Grid coordinates of this cell at its own level.
  void ToXY(uint32_t* ix, uint32_t* iy) const { sfc::MortonDecode(prefix(), ix, iy); }

  /// Ancestor at the given (coarser) level.
  CellId Parent(int parent_level) const {
    DBSA_DCHECK(parent_level >= 0 && parent_level <= level());
    return FromLevelPrefix(parent_level, prefix() >> (2 * (level() - parent_level)));
  }
  CellId Parent() const { return Parent(level() - 1); }

  /// Child i (0..3) one level finer.
  CellId Child(int i) const {
    DBSA_DCHECK(i >= 0 && i < 4 && level() < kMaxLevel);
    return FromLevelPrefix(level() + 1, (prefix() << 2) | static_cast<uint64_t>(i));
  }

  /// First leaf-level Morton key covered by this cell.
  uint64_t LeafKeyMin() const { return prefix() << (2 * (kMaxLevel - level())); }

  /// Last leaf-level Morton key covered by this cell (inclusive).
  uint64_t LeafKeyMax() const {
    const int shift = 2 * (kMaxLevel - level());
    return (prefix() << shift) | ((shift == 0) ? 0 : ((1ULL << shift) - 1));
  }

  /// True iff `other` is equal to or a descendant of this cell.
  bool Covers(const CellId& other) const {
    return other.LeafKeyMin() >= LeafKeyMin() && other.LeafKeyMax() <= LeafKeyMax();
  }

  bool operator==(const CellId& o) const { return id_ == o.id_; }
  bool operator!=(const CellId& o) const { return id_ != o.id_; }
  /// Orders cells along the Z-curve; ancestors sort within the span of
  /// their descendants.
  bool operator<(const CellId& o) const { return id_ < o.id_; }

 private:
  uint64_t id_;
};

}  // namespace dbsa::raster

#endif  // DBSA_RASTER_CELL_ID_H_
