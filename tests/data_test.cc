// Tests for the synthetic data generators: the tiling property (every
// point in exactly one region), vertex-count calibration, determinism,
// and workload generators.

#include <gtest/gtest.h>

#include "data/regions.h"
#include "data/taxi.h"
#include "data/workload.h"
#include "test_util.h"

namespace dbsa::data {
namespace {

TEST(TaxiTest, PointsInsideUniverseAndDeterministic) {
  TaxiConfig config;
  const PointSet a = GenerateTaxiPoints(20000, config);
  const PointSet b = GenerateTaxiPoints(20000, config);
  ASSERT_EQ(a.size(), 20000u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(config.universe.Contains(a.locs[i])) << i;
    ASSERT_EQ(a.locs[i], b.locs[i]) << "non-deterministic at " << i;
  }
}

TEST(TaxiTest, AttributesInRange) {
  const PointSet pts = GenerateTaxiPoints(10000);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_GT(pts.fare[i], 0.0);
    ASSERT_LT(pts.fare[i], 1000.0);
    ASSERT_GE(pts.passengers[i], 1);
    ASSERT_LE(pts.passengers[i], 6);
    ASSERT_LT(pts.hour[i], 24);
  }
}

TEST(TaxiTest, HotspotSkewExists) {
  // The hotspot mixture must concentrate mass: the densest 1% of a
  // coarse grid holds far more than 1% of points.
  TaxiConfig config;
  const PointSet pts = GenerateTaxiPoints(50000, config);
  constexpr int kRes = 32;
  std::vector<size_t> counts(kRes * kRes, 0);
  for (const geom::Point& p : pts.locs) {
    const int cx = std::min<int>(
        static_cast<int>((p.x - config.universe.min.x) / config.universe.Width() * kRes),
        kRes - 1);
    const int cy = std::min<int>(
        static_cast<int>((p.y - config.universe.min.y) / config.universe.Height() * kRes),
        kRes - 1);
    ++counts[cy * kRes + cx];
  }
  std::sort(counts.rbegin(), counts.rend());
  size_t top = 0;
  for (int i = 0; i < kRes * kRes / 100; ++i) top += counts[i];
  EXPECT_GT(static_cast<double>(top) / pts.size(), 0.05);
}

TEST(RegionsTest, TilingPropertyHolds) {
  // Every random point belongs to exactly one polygon — the invariant the
  // approximate joins rely on (and real admin boundaries satisfy).
  for (const size_t k : {5u, 64u, 289u}) {
    RegionConfig config;
    config.universe = geom::Box(0, 0, 4096, 4096);
    config.num_polygons = k;
    config.target_avg_vertices = 30;
    config.seed = k;
    const RegionSet regions = GenerateRegions(config);
    ASSERT_EQ(regions.polys.size(), k);
    for (const geom::Polygon& poly : regions.polys) {
      ASSERT_TRUE(poly.IsFinite());
      ASSERT_GT(poly.Area(), 0.0);
    }
    const auto pts =
        dbsa::testing::RandomPoints(geom::Box(10, 10, 4086, 4086), 3000, k + 1);
    size_t multi = 0, none = 0;
    for (const geom::Point& p : pts) {
      int owners = 0;
      for (const geom::Polygon& poly : regions.polys) {
        if (poly.bounds().Contains(p) && poly.Contains(p)) ++owners;
      }
      if (owners == 0) ++none;
      if (owners > 1) ++multi;
    }
    // Exact tiling up to floating-point boundary grazing.
    EXPECT_LE(none, 3u) << "k=" << k;
    EXPECT_LE(multi, 3u) << "k=" << k;
  }
}

TEST(RegionsTest, VertexCalibrationApproximatesTargets) {
  const geom::Box universe(0, 0, 65536, 65536);
  struct Case {
    RegionConfig config;
    double target;
  };
  const Case cases[] = {{BoroughsConfig(universe), 663.0},
                        {NeighborhoodsConfig(universe), 30.6},
                        {CensusConfig(universe, 500), 13.6}};
  for (const Case& c : cases) {
    const RegionSet regions = GenerateRegions(c.config);
    const double avg = regions.AvgVertices();
    EXPECT_GT(avg, c.target * 0.5) << "target " << c.target;
    EXPECT_LT(avg, c.target * 2.0) << "target " << c.target;
  }
}

TEST(RegionsTest, MultiFractionCreatesMultiPolygonRegions) {
  const geom::Box universe(0, 0, 65536, 65536);
  const RegionSet regions = GenerateRegions(NeighborhoodsConfig(universe));
  EXPECT_LT(regions.num_regions, regions.NumPolygons());
  // Every polygon maps to a valid region id.
  for (const uint32_t r : regions.region_of) {
    ASSERT_LT(r, regions.num_regions);
  }
  EXPECT_EQ(regions.names.size(), regions.num_regions);
}

TEST(RegionsTest, StatsAccessors) {
  RegionConfig config;
  config.universe = geom::Box(0, 0, 1024, 1024);
  config.num_polygons = 16;
  const RegionSet regions = GenerateRegions(config);
  EXPECT_GT(regions.TotalPerimeter(), 4 * 1024.0);
  // Tiling: total area equals the universe area (warp is area-shuffling
  // only at boundaries; allow 2%).
  EXPECT_NEAR(regions.TotalArea(), 1024.0 * 1024.0, 1024.0 * 1024.0 * 0.02);
  EXPECT_TRUE(geom::Box(0, 0, 1024, 1024).Contains(regions.Bounds().Center()));
}

TEST(WorkloadTest, ZoomSequenceShrinksAndTightens) {
  const geom::Box universe(0, 0, 65536, 65536);
  const auto steps = MakeZoomSequence(universe, {30000, 30000}, 6);
  ASSERT_EQ(steps.size(), 6u);
  for (size_t i = 1; i < steps.size(); ++i) {
    EXPECT_LT(steps[i].viewport.Area(), steps[i - 1].viewport.Area());
    EXPECT_LT(steps[i].epsilon, steps[i - 1].epsilon);
    EXPECT_TRUE(universe.Contains(steps[i].viewport.min));
    EXPECT_TRUE(universe.Contains(steps[i].viewport.max));
  }
}

}  // namespace
}  // namespace dbsa::data
