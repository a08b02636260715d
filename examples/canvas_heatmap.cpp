// canvas_heatmap: the Section 4 canvas algebra in action — render the
// point table into a rasterized canvas whose pixel size follows a
// distance bound, mask it with a district polygon (blend + mask
// composition), and print both heatmaps as ASCII art. This is the
// operator pipeline the bounded raster join (canvas/brj.h) composes
// internally.
//
// Build & run:  ./build/examples/canvas_heatmap

#include <cstdio>

#include "canvas/brj.h"
#include "canvas/ops.h"
#include "canvas/render.h"
#include "core/dbsa.h"

namespace {

void PrintHeatmap(const dbsa::canvas::Canvas& canvas, const char* title) {
  // Downsample the canvas to a terminal-sized view with the affine
  // operator, then print intensity ramps.
  const dbsa::canvas::Canvas view =
      dbsa::canvas::AffineResample(canvas, 64, 32, canvas.viewport());
  float max_v = 1e-6f;
  for (const dbsa::canvas::Rgba& px : view.data()) max_v = std::max(max_v, px.r);
  const char* ramp = " .:-=+*#%@";
  std::printf("%s (max %.0f points/pixel)\n", title, max_v);
  for (int y = view.height() - 1; y >= 0; --y) {  // North up.
    for (int x = 0; x < view.width(); ++x) {
      const float v = view.At(x, y).r / max_v;
      const int idx = std::min(static_cast<int>(v * 9.99f), 9);
      std::putchar(ramp[idx]);
    }
    std::putchar('\n');
  }
  std::putchar('\n');
}

}  // namespace

int main() {
  using namespace dbsa;

  const geom::Box universe(0, 0, 8192, 8192);
  data::TaxiConfig city;
  city.universe = universe;
  const data::PointSet pickups = data::GenerateTaxiPoints(300000, city);

  // Distance bound 32 m -> pixel size 32/sqrt(2) m.
  const double eps = 32.0;
  const double pixel = eps / 1.4142135623730951;
  const int side = static_cast<int>(universe.Width() / pixel);
  canvas::Canvas point_canvas(side, side, universe);

  // Render pass: blend all pickups into the canvas (r = count per pixel).
  canvas::ScatterPoints(&point_canvas, pickups.locs.data(), pickups.fare.data(),
                        pickups.size());
  PrintHeatmap(point_canvas, "city-wide pickup density");

  // A concave district of interest; rasterize its stencil and mask.
  geom::Polygon district =
      geom::ParseWktPolygon(
          "POLYGON ((1500 3000, 4200 2200, 6800 3600, 5800 5200, 6400 7000, "
          "3600 6200, 2200 6800, 2600 4800, 1500 3000))")
          .value();
  canvas::Canvas stencil(side, side, universe);
  canvas::FillPolygon(&stencil, district);

  // mask(point_canvas, stencil): keep pixels covered by the district.
  canvas::Canvas masked = point_canvas;
  {
    const auto& sten = stencil.data();
    auto& data = masked.data();
    for (size_t i = 0; i < data.size(); ++i) {
      if (sten[i].a <= 0.f) data[i] = canvas::Rgba();
    }
  }
  PrintHeatmap(masked, "district-of-interest pickups (blend+mask composition)");

  // Reduce: the aggregation the bounded raster join would emit for this
  // district.
  const canvas::Rgba totals = canvas::Reduce(masked);
  std::printf("district aggregate: %.0f pickups, $%.0f total fares "
              "(within %.0fm of the true boundary)\n",
              totals.r, totals.g, eps);
  return 0;
}
