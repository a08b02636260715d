#include "spatial/grid_index.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dbsa::spatial {

GridIndex::GridIndex(const geom::Point* points, size_t n, const geom::Box& universe,
                     uint32_t resolution)
    : universe_(universe), resolution_(resolution) {
  DBSA_CHECK(resolution >= 1);
  cell_w_ = universe_.Width() / resolution_;
  cell_h_ = universe_.Height() / resolution_;
  const size_t num_cells = static_cast<size_t>(resolution_) * resolution_;

  // Counting sort into CSR.
  starts_.assign(num_cells + 1, 0);
  std::vector<uint32_t> cell_of(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t cx, cy;
    PointCell(points[i], &cx, &cy);
    const size_t c = CellIndex(cx, cy);
    cell_of[i] = static_cast<uint32_t>(c);
    ++starts_[c + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) starts_[c + 1] += starts_[c];
  ids_.resize(n);
  std::vector<size_t> cursor(starts_.begin(), starts_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    ids_[cursor[cell_of[i]]++] = static_cast<uint32_t>(i);
  }
}

void GridIndex::PointCell(const geom::Point& p, uint32_t* cx, uint32_t* cy) const {
  const double fx = (p.x - universe_.min.x) / cell_w_;
  const double fy = (p.y - universe_.min.y) / cell_h_;
  const double max_idx = static_cast<double>(resolution_ - 1);
  *cx = static_cast<uint32_t>(std::clamp(std::floor(fx), 0.0, max_idx));
  *cy = static_cast<uint32_t>(std::clamp(std::floor(fy), 0.0, max_idx));
}

void GridIndex::CellRange(const geom::Box& box, uint32_t* x0, uint32_t* y0,
                          uint32_t* x1, uint32_t* y1) const {
  uint32_t ax, ay, bx, by;
  PointCell(box.min, &ax, &ay);
  PointCell(box.max, &bx, &by);
  *x0 = ax;
  *y0 = ay;
  *x1 = bx;
  *y1 = by;
}

geom::Box GridIndex::CellBox(uint32_t cx, uint32_t cy) const {
  const double x0 = universe_.min.x + cell_w_ * cx;
  const double y0 = universe_.min.y + cell_h_ * cy;
  return geom::Box(x0, y0, x0 + cell_w_, y0 + cell_h_);
}

}  // namespace dbsa::spatial
