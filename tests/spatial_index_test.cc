// Property tests for the four spatial baselines of Figure 4 (R*-tree,
// STR R-tree, quadtree, kd-tree) and the grid index: box queries must
// agree with a linear scan on every size x distribution combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "spatial/grid_index.h"
#include "spatial/kdtree.h"
#include "spatial/quadtree.h"
#include "spatial/rstar_tree.h"
#include "spatial/str_rtree.h"
#include "test_util.h"

namespace dbsa::spatial {
namespace {

std::vector<geom::Point> MakePoints(const std::string& dist, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> pts;
  pts.reserve(n);
  if (dist == "uniform") {
    for (size_t i = 0; i < n; ++i) {
      pts.push_back({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
    }
  } else if (dist == "clustered") {
    for (size_t i = 0; i < n; ++i) {
      const double cx = 100.0 + 200.0 * static_cast<double>(rng.Below(4));
      const double cy = 100.0 + 200.0 * static_cast<double>(rng.Below(4));
      pts.push_back({std::clamp(rng.Gaussian(cx, 30.0), 0.0, 1000.0),
                     std::clamp(rng.Gaussian(cy, 30.0), 0.0, 1000.0)});
    }
  } else {  // "diagonal": degenerate correlated data.
    for (size_t i = 0; i < n; ++i) {
      const double t = rng.Uniform(0, 1000);
      pts.push_back({t, std::clamp(t + rng.Gaussian(0, 5.0), 0.0, 1000.0)});
    }
  }
  return pts;
}

std::vector<uint32_t> BruteForce(const std::vector<geom::Point>& pts,
                                 const geom::Box& q) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (q.Contains(pts[i])) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

// The ids an index visits for a box query.
template <typename Index>
std::vector<uint32_t> VisitedIds(const Index& index, const geom::Box& query) {
  std::vector<uint32_t> out;
  index.VisitBox(query, [&out](uint32_t id) { out.push_back(id); });
  return out;
}

// The grid index as the grid join uses it: the points of every cell in
// CellRange(query), filtered by an exact test.
std::vector<uint32_t> GridIds(const GridIndex& grid, const std::vector<geom::Point>& pts,
                              const geom::Box& query) {
  std::vector<uint32_t> out;
  uint32_t x0, y0, x1, y1;
  grid.CellRange(query, &x0, &y0, &x1, &y1);
  for (uint32_t cy = y0; cy <= y1; ++cy) {
    for (uint32_t cx = x0; cx <= x1; ++cx) {
      grid.VisitCell(cx, cy, [&](uint32_t id) {
        if (query.Contains(pts[id])) out.push_back(id);
      });
    }
  }
  return out;
}

void ExpectSameIds(std::vector<uint32_t> got, std::vector<uint32_t> want,
                   const char* label) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got, want) << label;
}

class SpatialIndexTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(SpatialIndexTest, AllIndexesAgreeWithScan) {
  const auto [dist, n] = GetParam();
  const auto pts = MakePoints(dist, n, 1234);
  const geom::Box universe(0, 0, 1000, 1000);

  RStarTree rstar;
  for (size_t i = 0; i < pts.size(); ++i) {
    rstar.Insert(geom::Box(pts[i], pts[i]), static_cast<uint32_t>(i));
  }
  std::vector<StrRTree::Item> items;
  for (size_t i = 0; i < pts.size(); ++i) {
    items.push_back({geom::Box(pts[i], pts[i]), static_cast<uint32_t>(i)});
  }
  const StrRTree str = StrRTree::Build(std::move(items));
  const QuadTree quad(pts.data(), pts.size(), universe);
  const KdTree kd(pts.data(), pts.size());
  const GridIndex grid(pts.data(), pts.size(), universe, 32);

  Rng rng(99);
  for (int q = 0; q < 40; ++q) {
    const double w = rng.Uniform(5, 300);
    const double h = rng.Uniform(5, 300);
    const double x0 = rng.Uniform(0, 1000 - w);
    const double y0 = rng.Uniform(0, 1000 - h);
    const geom::Box query(x0, y0, x0 + w, y0 + h);
    const auto want = BruteForce(pts, query);

    ExpectSameIds(VisitedIds(rstar, query), want, "rstar");
    ExpectSameIds(VisitedIds(str, query), want, "str");
    ExpectSameIds(VisitedIds(quad, query), want, "quad");
    ExpectSameIds(VisitedIds(kd, query), want, "kd");
    ExpectSameIds(GridIds(grid, pts, query), want, "grid");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpatialIndexTest,
    ::testing::Combine(::testing::Values("uniform", "clustered", "diagonal"),
                       ::testing::Values(100u, 2000u, 20000u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, size_t>>& info) {
      return std::get<0>(info.param) + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST(RStarTreeTest, BoxEntriesAndDuplicates) {
  RStarTree tree;
  // Duplicate boxes and overlapping rectangles.
  for (uint32_t i = 0; i < 500; ++i) {
    const double x = static_cast<double>(i % 10);
    tree.Insert(geom::Box(x, 0, x + 5, 5), i);
  }
  EXPECT_EQ(VisitedIds(tree, geom::Box(0, 0, 20, 5)).size(), 500u);
  EXPECT_TRUE(VisitedIds(tree, geom::Box(100, 100, 101, 101)).empty());
}

TEST(RStarTreeTest, ForcedReinsertOnOffEquivalence) {
  const auto pts = MakePoints("clustered", 5000, 7);
  RStarTree::Options no_reinsert;
  no_reinsert.forced_reinsert = false;
  RStarTree a;  // Default: reinsert on.
  RStarTree b(no_reinsert);
  for (size_t i = 0; i < pts.size(); ++i) {
    a.Insert(geom::Box(pts[i], pts[i]), static_cast<uint32_t>(i));
    b.Insert(geom::Box(pts[i], pts[i]), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(a.size(), b.size());
  const geom::Box q(100, 100, 400, 400);
  ExpectSameIds(VisitedIds(a, q), VisitedIds(b, q), "reinsert on vs off");
}

TEST(RStarTreeTest, HeightGrowsLogarithmically) {
  RStarTree tree;
  Rng rng(3);
  for (uint32_t i = 0; i < 20000; ++i) {
    const geom::Point p{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    tree.Insert(geom::Box(p, p), i);
  }
  EXPECT_LE(tree.height(), 6);
  EXPECT_GT(tree.MemoryBytes(), 0u);
}

TEST(StrRTreeTest, EmptyAndSingle) {
  const StrRTree empty = StrRTree::Build({});
  EXPECT_TRUE(VisitedIds(empty, geom::Box(0, 0, 1, 1)).empty());

  const StrRTree one = StrRTree::Build({{geom::Box(1, 1, 2, 2), 7}});
  EXPECT_EQ(VisitedIds(one, geom::Box(0, 0, 3, 3)), std::vector<uint32_t>{7});
}

TEST(QuadTreeTest, DeepClusterSafety) {
  // Many duplicate points would recurse forever without the depth cap.
  std::vector<geom::Point> pts(500, geom::Point{500, 500});
  const QuadTree quad(pts.data(), pts.size(), geom::Box(0, 0, 1000, 1000), 16, 12);
  EXPECT_EQ(VisitedIds(quad, geom::Box(499, 499, 501, 501)).size(), 500u);
}

TEST(KdTreeTest, DuplicateCoordinatesOnSplit) {
  std::vector<geom::Point> pts;
  for (int i = 0; i < 100; ++i) pts.push_back({50.0, static_cast<double>(i)});
  const KdTree kd(pts.data(), pts.size(), 4);
  EXPECT_EQ(VisitedIds(kd, geom::Box(50, 0, 50, 99)).size(), 100u);
}

TEST(GridIndexTest, CellAccessors) {
  const auto pts = MakePoints("uniform", 1000, 77);
  const GridIndex grid(pts.data(), pts.size(), geom::Box(0, 0, 1000, 1000), 10);
  size_t total = 0;
  for (uint32_t cy = 0; cy < 10; ++cy) {
    for (uint32_t cx = 0; cx < 10; ++cx) {
      total += grid.CellCount(cx, cy);
      grid.VisitCell(cx, cy, [&](uint32_t id) {
        EXPECT_TRUE(grid.CellBox(cx, cy).Contains(pts[id]));
      });
    }
  }
  EXPECT_EQ(total, pts.size());
}

}  // namespace
}  // namespace dbsa::spatial
