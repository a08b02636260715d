// The mapping between the continuous universe and the hierarchical cell
// grid, including the paper's distance-bound rule: a raster whose boundary
// cells have side epsilon/sqrt(2) (diagonal = epsilon) epsilon-approximates
// the geometry (Section 2.2).

#ifndef DBSA_RASTER_GRID_H_
#define DBSA_RASTER_GRID_H_

#include <cstdint>

#include "geom/box.h"
#include "geom/point.h"
#include "raster/cell_id.h"

namespace dbsa::raster {

/// A square universe subdivided by a quadtree down to CellId::kMaxLevel.
class Grid {
 public:
  /// The universe square is [origin, origin + side]^2. All indexed data
  /// must fall inside it.
  Grid(geom::Point origin, double side);

  /// Convenience: the smallest square grid covering `bounds` (with a small
  /// margin so boundary coordinates stay strictly inside).
  static Grid Covering(const geom::Box& bounds);

  const geom::Point& origin() const { return origin_; }
  double side() const { return side_; }
  geom::Box universe() const {
    return geom::Box(origin_, {origin_.x + side_, origin_.y + side_});
  }

  /// Cell side length at a level.
  double CellSize(int level) const { return side_ / static_cast<double>(1u << level); }

  /// Cell diagonal at a level (the Hausdorff contribution of one cell).
  double CellDiagonal(int level) const { return CellSize(level) * kSqrt2; }

  /// Smallest level whose cell diagonal is <= epsilon, i.e. the raster
  /// level that guarantees d_H <= epsilon per the paper. Guaranteed:
  /// AchievedEpsilon(LevelForEpsilon(eps)) <= eps unless the level was
  /// clamped to kMaxLevel (the only case where a request can be finer than
  /// the grid provides); use AchievedEpsilon to see what a level gives.
  int LevelForEpsilon(double epsilon) const;

  /// The distance bound actually guaranteed at a level (= cell diagonal).
  double AchievedEpsilon(int level) const { return CellDiagonal(level); }

  /// Number of cells per side at a level.
  uint32_t CellsPerSide(int level) const { return 1u << level; }

  /// Continuous grid coordinates of p at a level: cell (ix, iy) spans
  /// [ix, ix + 1) x [iy, iy + 1). The one coordinate map of the raster:
  /// point keys (PointToXY) and edge traversal (TraverseSegment) both go
  /// through it, so a point on a grid-aligned edge lands in the cell the
  /// edge marks.
  geom::Point CellCoords(const geom::Point& p, int level) const {
    const double cells = static_cast<double>(1u << level);
    return {(p.x - origin_.x) / side_ * cells, (p.y - origin_.y) / side_ * cells};
  }

  /// Grid coordinates of the cell containing p at a level (clamped to the
  /// universe).
  void PointToXY(const geom::Point& p, int level, uint32_t* ix, uint32_t* iy) const;

  /// Cell id of the cell containing p at a level.
  CellId PointToCell(const geom::Point& p, int level) const {
    uint32_t ix = 0, iy = 0;
    PointToXY(p, level, &ix, &iy);
    return CellId::FromXY(level, ix, iy);
  }

  /// Finest-level Morton key of p — the 1-D linearization of Section 3.
  uint64_t LeafKey(const geom::Point& p) const {
    uint32_t ix = 0, iy = 0;
    PointToXY(p, CellId::kMaxLevel, &ix, &iy);
    return sfc::MortonEncode(ix, iy);
  }

  /// Geometric box of a cell.
  geom::Box CellBox(const CellId& cell) const;
  geom::Box CellBoxXY(int level, uint32_t ix, uint32_t iy) const;

 private:
  static constexpr double kSqrt2 = 1.4142135623730951;

  geom::Point origin_;
  double side_;
};

}  // namespace dbsa::raster

#endif  // DBSA_RASTER_GRID_H_
