#include "canvas/canvas.h"

#include <cmath>

#include "util/check.h"

namespace dbsa::canvas {

Canvas::Canvas(int width, int height, const geom::Box& viewport)
    : w_(width), h_(height), viewport_(viewport) {
  DBSA_CHECK(width > 0 && height > 0);
  DBSA_CHECK(!viewport.IsEmpty());
  pw_ = viewport_.Width() / w_;
  ph_ = viewport_.Height() / h_;
  data_.resize(static_cast<size_t>(w_) * h_);
}

bool Canvas::WorldToPixel(const geom::Point& p, int* px, int* py) const {
  const double fx = (p.x - viewport_.min.x) / pw_;
  const double fy = (p.y - viewport_.min.y) / ph_;
  if (fx < 0 || fy < 0) return false;
  const int x = static_cast<int>(fx);
  const int y = static_cast<int>(fy);
  if (x >= w_ || y >= h_) return false;
  *px = x;
  *py = y;
  return true;
}

geom::Point Canvas::PixelCenter(int x, int y) const {
  return {viewport_.min.x + (x + 0.5) * pw_, viewport_.min.y + (y + 0.5) * ph_};
}

}  // namespace dbsa::canvas
