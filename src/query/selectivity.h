// Grid-histogram selectivity estimation — a Section 4 optimizer
// statistic. The plan cost model (query/optimizer.h) does not consult it:
// it prices both plans from table sizes and the bound.

#ifndef DBSA_QUERY_SELECTIVITY_H_
#define DBSA_QUERY_SELECTIVITY_H_

#include <cstdint>
#include <vector>

#include "geom/polygon.h"

namespace dbsa::query {

/// Equi-width 2-D histogram of point counts.
class SelectivityHistogram {
 public:
  SelectivityHistogram(const geom::Point* points, size_t n,
                       const geom::Box& universe, uint32_t resolution = 128);

  /// Estimated number of points inside the box (fractional cell coverage).
  double EstimateBox(const geom::Box& box) const;

  /// Estimated number of points inside the polygon (coarse cell
  /// classification; boundary cells contribute half their mass).
  double EstimatePolygon(const geom::Polygon& poly) const;

  size_t total() const { return total_; }
  size_t MemoryBytes() const { return counts_.size() * sizeof(uint32_t); }

 private:
  geom::Box CellBox(uint32_t cx, uint32_t cy) const;

  geom::Box universe_;
  uint32_t resolution_;
  /// True when the universe has zero extent on the axis (e.g. collinear
  /// points): the axis collapses to one synthetic unit cell and any query
  /// overlap on it counts as full coverage (no 0-sized cells, no NaN).
  bool degenerate_w_ = false, degenerate_h_ = false;
  double cell_w_, cell_h_;
  size_t total_ = 0;
  std::vector<uint32_t> counts_;
};

}  // namespace dbsa::query

#endif  // DBSA_QUERY_SELECTIVITY_H_
