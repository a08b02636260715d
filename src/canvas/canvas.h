// The rasterized-canvas data model of Section 4: a uniform pixel image
// whose pixel size is derived from the distance bound, with four float
// channels (mirroring the GPU color channels r,g,b,a the paper stores
// partial aggregates in). This software implementation reproduces the
// graphics-pipeline semantics: center sampling for polygon fill, additive
// blending for point scattering.

#ifndef DBSA_CANVAS_CANVAS_H_
#define DBSA_CANVAS_CANVAS_H_

#include <cstdint>
#include <vector>

#include "geom/box.h"
#include "geom/point.h"

namespace dbsa::canvas {

/// One pixel's channels. BRJ convention: r = point count, g = attribute
/// sum, b/a free (used by min/max blends and masks).
struct Rgba {
  float r = 0.f;
  float g = 0.f;
  float b = 0.f;
  float a = 0.f;
};

/// A W x H pixel raster mapped onto a world-space viewport.
class Canvas {
 public:
  Canvas(int width, int height, const geom::Box& viewport);

  int width() const { return w_; }
  int height() const { return h_; }
  const geom::Box& viewport() const { return viewport_; }
  double pixel_width() const { return pw_; }
  double pixel_height() const { return ph_; }

  Rgba& At(int x, int y) { return data_[static_cast<size_t>(y) * w_ + x]; }
  const Rgba& At(int x, int y) const { return data_[static_cast<size_t>(y) * w_ + x]; }

  std::vector<Rgba>& data() { return data_; }
  const std::vector<Rgba>& data() const { return data_; }

  /// Pixel containing a world point; false if outside the viewport.
  bool WorldToPixel(const geom::Point& p, int* px, int* py) const;

  /// World-space center of a pixel.
  geom::Point PixelCenter(int x, int y) const;

  size_t MemoryBytes() const { return data_.size() * sizeof(Rgba); }

 private:
  int w_;
  int h_;
  geom::Box viewport_;
  double pw_, ph_;
  std::vector<Rgba> data_;
};

}  // namespace dbsa::canvas

#endif  // DBSA_CANVAS_CANVAS_H_
