// FIG2 — the paper's motivating example (Figure 2): counting taxi pickups
// inside a concave region P. The MBR-filtered count is numerically closer
// to exact here yet includes points FAR from P, while the uniform-raster
// count's false positives all lie within the distance bound — the paper's
// argument for distance-bounded semantics.

#include <cstdio>

#include "bench_util.h"
#include "geom/distance.h"
#include "raster/uniform_raster.h"

namespace dbsa {
namespace {

void Run(size_t n_points) {
  PrintBanner("Figure 2: distance-bounded vs MBR approximate counts");
  bench::PrintScale("1 concave region, " + HumanCount(static_cast<double>(n_points)) +
                    " points (paper: hand-drawn example, exact=18 MBR=22 UR=28)");

  const geom::Box universe = bench::BenchUniverse();
  const data::PointSet points = bench::BenchPoints(n_points);
  // A deeply concave star region mimicking Figure 2's polygon P.
  const geom::Polygon region = [] {
    Rng rng(42);
    geom::Ring ring;
    const geom::Point c{8000, 8000};
    const int n = 14;
    for (int i = 0; i < n; ++i) {
      const double angle = 2.0 * 3.141592653589793 * i / n;
      const double r = (i % 2 == 0) ? 2500.0 : 900.0;  // Star lobes.
      ring.push_back({c.x + r * std::cos(angle), c.y + r * std::sin(angle)});
    }
    geom::Polygon poly(std::move(ring));
    poly.Normalize();
    return poly;
  }();

  const raster::Grid grid({universe.min.x, universe.min.y}, universe.Width());
  const double eps = 150.0;  // Coarse bound, like the figure's large cells.
  const raster::UniformRaster ur = raster::UniformRaster::Build(region, grid, eps);
  const geom::Box& mbr = region.bounds();  // The MBR filter.

  size_t exact = 0, mbr_count = 0, ur_count = 0;
  RunningStats mbr_fp_dist, ur_fp_dist;
  for (const geom::Point& p : points.locs) {
    const bool in_exact = region.bounds().Contains(p) && region.Contains(p);
    const bool in_mbr = mbr.Contains(p);
    const bool in_ur = ur.ApproxContains(p, grid);
    exact += in_exact ? 1 : 0;
    mbr_count += in_mbr ? 1 : 0;
    ur_count += in_ur ? 1 : 0;
    if (in_mbr && !in_exact) mbr_fp_dist.Add(geom::DistanceToPolygon(p, region));
    if (in_ur && !in_exact) ur_fp_dist.Add(geom::DistanceToPolygon(p, region));
  }

  TablePrinter table({"method", "count", "count/exact", "false positives",
                      "max FP distance (m)", "mean FP distance (m)"});
  table.AddRow({"exact PIP", std::to_string(exact), "1.00", "0", "0", "0"});
  table.AddRow({"MBR filter", std::to_string(mbr_count),
                TablePrinter::Num(static_cast<double>(mbr_count) / exact, 3),
                std::to_string(mbr_fp_dist.count()),
                TablePrinter::Num(mbr_fp_dist.max(), 4),
                TablePrinter::Num(mbr_fp_dist.mean(), 4)});
  table.AddRow({"UR (eps=150m)", std::to_string(ur_count),
                TablePrinter::Num(static_cast<double>(ur_count) / exact, 3),
                std::to_string(ur_fp_dist.count()),
                TablePrinter::Num(ur_fp_dist.max(), 4),
                TablePrinter::Num(ur_fp_dist.mean(), 4)});
  table.Print();

  PrintNote("");
  PrintNote("expected shape (paper Sec. 1/2.2): the UR count's false positives all");
  PrintNote("lie within eps=150m of P; the MBR's false positives can be arbitrarily");
  PrintNote("far (up to the corner distance), making that count hard to interpret.");
}

}  // namespace
}  // namespace dbsa

int main(int argc, char** argv) {
  dbsa::Rng warmup(1);
  (void)warmup.Next();
  dbsa::Run(dbsa::bench::FlagSize(argc, argv, "points", 500000));
  return 0;
}
