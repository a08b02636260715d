// Uniform grid index over points in CSR layout — the "GPU Baseline" filter
// structure of Section 5.2 (a 1024^2 grid index).

#ifndef DBSA_SPATIAL_GRID_INDEX_H_
#define DBSA_SPATIAL_GRID_INDEX_H_

#include <cstdint>
#include <vector>

#include "geom/box.h"
#include "geom/point.h"

namespace dbsa::spatial {

/// resolution x resolution uniform grid; each cell stores its point ids
/// contiguously (CSR).
class GridIndex {
 public:
  /// Buckets the ids of `points[0, n)`; the points are not kept.
  GridIndex(const geom::Point* points, size_t n, const geom::Box& universe,
            uint32_t resolution);

  /// Visits the ids of every point in the given cell.
  template <typename Fn>
  void VisitCell(uint32_t cx, uint32_t cy, Fn&& fn) const {
    const size_t c = CellIndex(cx, cy);
    for (size_t i = starts_[c]; i < starts_[c + 1]; ++i) fn(ids_[i]);
  }

  /// Number of points in a cell.
  size_t CellCount(uint32_t cx, uint32_t cy) const {
    const size_t c = CellIndex(cx, cy);
    return starts_[c + 1] - starts_[c];
  }

  /// Cell coordinate range overlapping a box (clamped).
  void CellRange(const geom::Box& box, uint32_t* x0, uint32_t* y0, uint32_t* x1,
                 uint32_t* y1) const;

  geom::Box CellBox(uint32_t cx, uint32_t cy) const;

  size_t MemoryBytes() const {
    return starts_.size() * sizeof(size_t) + ids_.size() * sizeof(uint32_t);
  }

 private:
  size_t CellIndex(uint32_t cx, uint32_t cy) const {
    return static_cast<size_t>(cy) * resolution_ + cx;
  }
  void PointCell(const geom::Point& p, uint32_t* cx, uint32_t* cy) const;

  geom::Box universe_;
  uint32_t resolution_;
  double cell_w_, cell_h_;
  std::vector<size_t> starts_;  ///< resolution^2 + 1 offsets into ids_.
  std::vector<uint32_t> ids_;
};

}  // namespace dbsa::spatial

#endif  // DBSA_SPATIAL_GRID_INDEX_H_
