#include "canvas/ops.h"

#include "util/check.h"

namespace dbsa::canvas {

Canvas AffineResample(const Canvas& src, int width, int height,
                      const geom::Box& viewport) {
  Canvas out(width, height, viewport);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const geom::Point world = out.PixelCenter(x, y);
      int sx, sy;
      if (src.WorldToPixel(world, &sx, &sy)) {
        out.At(x, y) = src.At(sx, sy);
      }
    }
  }
  return out;
}

Rgba Reduce(const Canvas& c) {
  Rgba acc;
  for (const Rgba& px : c.data()) {
    acc.r += px.r;
    acc.g += px.g;
    acc.b += px.b;
    acc.a += px.a;
  }
  return acc;
}

Rgba ReduceWhere(const Canvas& values, const Canvas& stencil) {
  DBSA_CHECK(values.width() == stencil.width() &&
             values.height() == stencil.height());
  Rgba acc;
  const auto& v = values.data();
  const auto& m = stencil.data();
  for (size_t i = 0; i < v.size(); ++i) {
    if (m[i].a > 0.f) {
      acc.r += v[i].r;
      acc.g += v[i].g;
      acc.b += v[i].b;
      acc.a += v[i].a;
    }
  }
  return acc;
}

}  // namespace dbsa::canvas
