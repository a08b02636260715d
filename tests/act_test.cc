// Tests for the Adaptive Cell Trie: lookups must agree with the
// HierarchicalRaster classification it was built from, across radix
// widths; multi-polygon overlap handling; memory accounting.

#include <gtest/gtest.h>

#include "index/act.h"
#include "raster/grid.h"
#include "raster/hierarchical_raster.h"
#include "raster/verify.h"
#include "test_util.h"

namespace dbsa::index {
namespace {

using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using raster::CellId;
using raster::CellKind;
using raster::Grid;
using raster::HierarchicalRaster;

TEST(ActTest, SingleCellInsertLookup) {
  ActIndex act(3);
  const CellId cell = CellId::FromXY(6, 10, 20);
  act.Insert(cell, 42, /*boundary=*/false);
  ActMatch m;
  EXPECT_TRUE(act.LookupFirst(cell.LeafKeyMin(), &m));
  EXPECT_EQ(m.value, 42u);
  EXPECT_FALSE(m.boundary);
  EXPECT_TRUE(act.LookupFirst(cell.LeafKeyMax(), &m));
  // A key just outside misses.
  EXPECT_FALSE(act.LookupFirst(cell.LeafKeyMax() + 1, &m));
}

TEST(ActTest, BoundaryFlagRoundTrips) {
  ActIndex act(3);
  act.Insert(CellId::FromXY(4, 1, 1), 7, /*boundary=*/true);
  ActMatch m;
  ASSERT_TRUE(act.LookupFirst(CellId::FromXY(4, 1, 1).LeafKeyMin(), &m));
  EXPECT_TRUE(m.boundary);
}

TEST(ActTest, NonAlignedLevelsReplicateCorrectly) {
  // A cell whose level is inside a node span covers multiple slots; all
  // leaf keys under it must hit.
  ActIndex act(3);  // Node spans 3 quad levels.
  const CellId cell = CellId::FromXY(4, 3, 2);  // Level 4 = mid-node.
  act.Insert(cell, 9, false);
  // Probe many leaf keys across the cell's range.
  const uint64_t lo = cell.LeafKeyMin();
  const uint64_t hi = cell.LeafKeyMax();
  const uint64_t step = (hi - lo) / 37 + 1;
  ActMatch m;
  for (uint64_t k = lo; k <= hi; k += step) {
    ASSERT_TRUE(act.LookupFirst(k, &m)) << "key " << k;
    ASSERT_EQ(m.value, 9u);
  }
  EXPECT_FALSE(act.LookupFirst(lo - 1, &m));
}

class ActRadixWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(ActRadixWidthTest, AgreesWithHierarchicalRaster) {
  const int levels_per_node = GetParam();
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, 33);
  const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(star, grid, 4.0);

  ActIndex act(levels_per_node);
  for (const raster::HrCell& cell : hr.cells()) {
    act.Insert(cell.id, 1, cell.boundary);
  }

  for (const geom::Point& p :
       dbsa::testing::RandomPoints(geom::Box(10, 10, 246, 246), 3000, 77)) {
    const CellKind kind = raster::Classify(hr, p, grid);
    ActMatch m;
    const bool hit = act.LookupFirst(grid.LeafKey(p), &m);
    ASSERT_EQ(hit, kind != CellKind::kOutside)
        << "radix " << levels_per_node << " at " << p.x << "," << p.y;
    if (hit) {
      ASSERT_EQ(m.boundary, kind == CellKind::kBoundary);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RadixWidths, ActRadixWidthTest, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "bits" + std::to_string(2 * info.param);
                         });

TEST(ActTest, OverlappingPolygonsReturnAllMatches) {
  // Conservative boundary cells of adjacent polygons overlap; Lookup
  // returns every polygon claiming the cell.
  ActIndex act(3);
  const CellId cell = CellId::FromXY(8, 100, 100);
  act.Insert(cell, 1, true);
  act.Insert(cell, 2, true);
  act.Insert(cell.Parent(), 3, false);  // Coarser cell of a third polygon.
  std::vector<ActMatch> matches;
  act.Lookup(cell.LeafKeyMin(), &matches);
  ASSERT_EQ(matches.size(), 3u);
  std::vector<uint32_t> values;
  for (const ActMatch& m : matches) values.push_back(m.value);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(ActTest, CoarseCellsResolveNearRoot) {
  // Coarse interior cells must not force deep traversals: index one
  // level-2 cell; node count stays minimal.
  ActIndex act(3);
  act.Insert(CellId::FromXY(2, 1, 1), 5, false);
  EXPECT_EQ(act.NumNodes(), 1u);  // Root only: level 2 < 3 spans root node.
  ActMatch m;
  EXPECT_TRUE(act.LookupFirst(CellId::FromXY(2, 1, 1).LeafKeyMin() + 12345, &m));
}

TEST(ActTest, MemoryGrowsWithCells) {
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, 3);
  ActIndex coarse(3), fine(3);
  const HierarchicalRaster coarse_hr = HierarchicalRaster::BuildEpsilon(star, grid, 16.0);
  for (const raster::HrCell& c : coarse_hr.cells()) {
    coarse.Insert(c.id, 0, c.boundary);
  }
  const HierarchicalRaster fine_hr = HierarchicalRaster::BuildEpsilon(star, grid, 1.0);
  for (const raster::HrCell& c : fine_hr.cells()) {
    fine.Insert(c.id, 0, c.boundary);
  }
  EXPECT_GT(fine.MemoryBytes(), coarse.MemoryBytes());
}

TEST(ActTest, TilingRegionsPartitionLookups) {
  // Two adjacent rectangles with center-assigned cells: every probe hits
  // at most one region.
  const Grid grid({0, 0}, 64.0);
  const geom::Polygon left = MakeRectPolygon(8, 8, 32, 56);
  const geom::Polygon right = MakeRectPolygon(32, 8, 56, 56);
  ActIndex act(3);
  int inserted = 0;
  for (const auto* poly : {&left, &right}) {
    const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(*poly, grid, 2.0);
    for (const raster::HrCell& cell : hr.cells()) {
      if (cell.boundary && !poly->Contains(grid.CellBox(cell.id).Center())) continue;
      act.Insert(cell.id, poly == &left ? 0 : 1, cell.boundary);
      ++inserted;
    }
  }
  ASSERT_GT(inserted, 0);
  std::vector<ActMatch> matches;
  for (const geom::Point& p :
       dbsa::testing::RandomPoints(geom::Box(9, 9, 55, 55), 2000, 5)) {
    act.Lookup(grid.LeafKey(p), &matches);
    ASSERT_LE(matches.size(), 1u) << "at " << p.x << "," << p.y;
  }
}

}  // namespace
}  // namespace dbsa::index
