// Tests for the canvas data model and operators (Section 4): affine
// resampling, reduces, render passes, and the fused-vs-physical
// equivalence.

#include <gtest/gtest.h>

#include "canvas/canvas.h"
#include "canvas/ops.h"
#include "canvas/render.h"
#include "test_util.h"

namespace dbsa::canvas {
namespace {

TEST(CanvasTest, PixelMapping) {
  Canvas c(10, 10, geom::Box(0, 0, 100, 100));
  int px, py;
  ASSERT_TRUE(c.WorldToPixel({5, 95}, &px, &py));
  EXPECT_EQ(px, 0);
  EXPECT_EQ(py, 9);
  EXPECT_FALSE(c.WorldToPixel({-1, 5}, &px, &py));
  EXPECT_FALSE(c.WorldToPixel({100.5, 5}, &px, &py));
  const geom::Point center = c.PixelCenter(0, 0);
  EXPECT_DOUBLE_EQ(center.x, 5.0);
  EXPECT_DOUBLE_EQ(center.y, 5.0);
}

TEST(OpsTest, ReduceSumsChannels) {
  Canvas c(4, 4, geom::Box(0, 0, 4, 4));
  for (int i = 0; i < 4; ++i) c.At(i, i) = {1, 2, 0, 1};
  const Rgba total = Reduce(c);
  EXPECT_FLOAT_EQ(total.r, 4.f);
  EXPECT_FLOAT_EQ(total.g, 8.f);
}

TEST(OpsTest, ReduceWhereRespectsStencil) {
  Canvas values(4, 1, geom::Box(0, 0, 4, 1));
  Canvas stencil(4, 1, geom::Box(0, 0, 4, 1));
  for (int x = 0; x < 4; ++x) values.At(x, 0) = {1, static_cast<float>(x), 0, 1};
  stencil.At(1, 0).a = 1.f;
  stencil.At(3, 0).a = 1.f;
  const Rgba total = ReduceWhere(values, stencil);
  EXPECT_FLOAT_EQ(total.r, 2.f);
  EXPECT_FLOAT_EQ(total.g, 4.f);  // 1 + 3.
}

TEST(OpsTest, AffineResampleDownscalePreservesValues) {
  Canvas src(8, 8, geom::Box(0, 0, 8, 8));
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) src.At(x, y).r = static_cast<float>(x / 2);
  }
  // Zoom into the right half at the same resolution.
  const Canvas out = AffineResample(src, 4, 8, geom::Box(4, 0, 8, 8));
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 4; ++x) {
      ASSERT_FLOAT_EQ(out.At(x, y).r, static_cast<float>((x + 4) / 2));
    }
  }
}

TEST(RenderTest, ScatterCountsAndWeights) {
  Canvas c(10, 10, geom::Box(0, 0, 10, 10));
  const std::vector<geom::Point> pts{{1.5, 1.5}, {1.7, 1.2}, {8.5, 8.5}, {-5, 0}};
  const std::vector<double> weights{2.0, 3.0, 5.0, 100.0};
  ScatterPoints(&c, pts.data(), weights.data(), pts.size());
  EXPECT_FLOAT_EQ(c.At(1, 1).r, 2.f);  // Two points in pixel (1,1).
  EXPECT_FLOAT_EQ(c.At(1, 1).g, 5.f);
  EXPECT_FLOAT_EQ(c.At(8, 8).r, 1.f);
  const Rgba total = Reduce(c);
  EXPECT_FLOAT_EQ(total.r, 3.f);  // The out-of-viewport point is dropped.
}

TEST(RenderTest, FillPolygonCenterSampling) {
  Canvas c(10, 10, geom::Box(0, 0, 10, 10));
  const geom::Polygon rect = dbsa::testing::MakeRectPolygon(2, 2, 8, 8);
  FillPolygon(&c, rect);
  int covered = 0;
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      const bool inside = rect.Contains(c.PixelCenter(x, y));
      ASSERT_EQ(c.At(x, y).a > 0.f, inside) << x << "," << y;
      covered += c.At(x, y).a > 0.f ? 1 : 0;
    }
  }
  EXPECT_EQ(covered, 36);  // Pixels with centers in (2,8)x(2,8).
}

TEST(RenderTest, ScanEqualsFillForRandomStars) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Canvas fill_canvas(64, 64, geom::Box(0, 0, 64, 64));
    const geom::Polygon star =
        dbsa::testing::MakeStarPolygon({32, 32}, 10, 25, 16, seed);
    FillPolygon(&fill_canvas, star);
    Canvas scan_canvas(64, 64, geom::Box(0, 0, 64, 64));
    ScanPolygon(scan_canvas, star, [&](int y, int x0, int x1) {
      for (int x = x0; x <= x1; ++x) scan_canvas.At(x, y).a = 1.f;
    });
    for (size_t i = 0; i < fill_canvas.data().size(); ++i) {
      ASSERT_FLOAT_EQ(fill_canvas.data()[i].a, scan_canvas.data()[i].a)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dbsa::canvas
