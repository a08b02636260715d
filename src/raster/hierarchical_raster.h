// Hierarchical Raster (HR) approximation — Figure 1(c): boundary cells at
// the fine epsilon level, interior cells merged into the largest quadtree
// cells that still fit (they contribute no approximation error). One
// construction per mode, both used by the paper:
//
//   * epsilon-driven (Section 5.1: ACT with a 4 m bound),
//   * cell-budget-driven (Section 3: 32/128/512 cells per query polygon).
//
// Both refine top down from the smallest cell that holds the polygon's
// bounding box.

#ifndef DBSA_RASTER_HIERARCHICAL_RASTER_H_
#define DBSA_RASTER_HIERARCHICAL_RASTER_H_

#include <vector>

#include "raster/uniform_raster.h"

namespace dbsa::raster {

/// One variable-level cell of an HR approximation.
struct HrCell {
  CellId id;
  bool boundary = false;
};

/// A hierarchical (variable cell size) raster approximation of a polygon.
/// Cells are non-overlapping and sorted by id (Z-order).
class HierarchicalRaster {
 public:
  /// Epsilon-driven: boundary cells at LevelForEpsilon(epsilon), interior
  /// cells as large as possible. Per-level supercover boundary detection
  /// plus a center test for each off-boundary cell, so the cost grows with
  /// the polygon's perimeter in finest cells, not with its area.
  static HierarchicalRaster BuildEpsilon(const geom::Polygon& poly, const Grid& grid,
                                         double epsilon,
                                         const RasterOptions& opts = {});

  /// Epsilon-driven at an explicit boundary level. Equivalent to
  /// BuildEpsilon with epsilon = grid.AchievedEpsilon(level); the natural
  /// entry point for caches keyed by (polygon, level), where every epsilon
  /// mapping to the same level must produce the identical structure.
  static HierarchicalRaster BuildLevel(const geom::Polygon& poly, const Grid& grid,
                                       int level, const RasterOptions& opts = {});

  /// Budget-driven: top-down refinement until at most max_cells cells.
  /// The achieved epsilon is the diagonal of the largest boundary cell.
  static HierarchicalRaster BuildBudget(const geom::Polygon& poly, const Grid& grid,
                                        size_t max_cells,
                                        const RasterOptions& opts = {});

  const std::vector<HrCell>& cells() const { return cells_; }
  size_t NumCells() const { return cells_.size(); }

  /// Diagonal of the largest boundary cell = the guaranteed bound.
  double AchievedEpsilon(const Grid& grid) const;

  /// sizeof(HrCell) per cell. The cell vector holds no spare capacity, so
  /// this is what the HR holds.
  size_t MemoryBytes() const { return cells_.size() * sizeof(HrCell); }

 private:
  void FinalizeFrom(std::vector<HrCell> cells);

  std::vector<HrCell> cells_;
};

}  // namespace dbsa::raster

#endif  // DBSA_RASTER_HIERARCHICAL_RASTER_H_
