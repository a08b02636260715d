// Integration tests for the whole-state executors: end-to-end aggregation
// across all execution modes, exact-vs-approximate consistency, result
// ranges, the exact reroute of aggregates the point index cannot answer,
// and the motivating Figure 2 semantics.

#include <gtest/gtest.h>

#include "core/dbsa.h"
#include "geom/distance.h"
#include "test_util.h"

namespace dbsa::core {
namespace {

using query::ErrorBound;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 8192, 8192);
    points_ = data::GenerateTaxiPoints(30000, taxi_config);

    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 24;
    region_config.target_avg_vertices = 28;
    regions_ = data::GenerateRegions(region_config);

    state_ = BuildEngineState(points_, regions_);
  }

  data::PointSet points_;
  data::RegionSet regions_;
  std::shared_ptr<const EngineState> state_;
};

TEST_F(EngineTest, ExactModeMatchesBruteForce) {
  const AggregateAnswer exact = ExecuteAggregate(*state_, join::AggKind::kCount,
                                                 Attr::kNone, ErrorBound::Exact());
  EXPECT_EQ(exact.stats.plan, query::PlanKind::kExactRStar);
  double total = 0;
  for (const AggregateRow& row : exact.rows) total += row.value;
  EXPECT_NEAR(total, static_cast<double>(points_.size()), 1.0);
}

TEST_F(EngineTest, ApproxModesAgreeWithinBound) {
  const double eps = 8.0;
  const AggregateAnswer exact =
      ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone, ErrorBound::Exact());
  for (const Mode mode : {Mode::kAuto, Mode::kPointIndex}) {
    const AggregateAnswer approx =
        ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone,
                         ErrorBound::Absolute(eps), mode);
    ASSERT_EQ(approx.rows.size(), exact.rows.size());
    double total_err = 0, total = 0;
    for (size_t r = 0; r < exact.rows.size(); ++r) {
      total_err += std::fabs(approx.rows[r].value - exact.rows[r].value);
      total += exact.rows[r].value;
    }
    EXPECT_LT(total_err / total, 0.05) << "mode " << static_cast<int>(mode);
    EXPECT_LE(approx.stats.achieved_epsilon, eps * (1 + 1e-12));
  }
}

TEST_F(EngineTest, PointIndexModeReturnsValidRanges) {
  // Every approximate row's range contains the exact answer, under the
  // optimizer's choice as well as with the point index pinned.
  const struct {
    join::AggKind agg;
    Attr attr;
  } aggregates[] = {{join::AggKind::kCount, Attr::kNone},
                    {join::AggKind::kSum, Attr::kFare},
                    {join::AggKind::kAvg, Attr::kFare}};
  for (const auto& [agg, attr] : aggregates) {
    const AggregateAnswer exact =
        ExecuteAggregate(*state_, agg, attr, ErrorBound::Exact());
    for (const Mode mode : {Mode::kAuto, Mode::kPointIndex}) {
      for (const double eps : {1.0, 4.0, 16.0, 64.0}) {
        const std::string label = "agg " + std::to_string(static_cast<int>(agg)) + " mode " +
                                  std::to_string(static_cast<int>(mode)) + " eps " +
                                  std::to_string(eps);
        const AggregateAnswer ranged =
            ExecuteAggregate(*state_, agg, attr, ErrorBound::Absolute(eps), mode);
        if (mode == Mode::kAuto && eps == 64.0) {
          EXPECT_EQ(ranged.stats.plan, query::PlanKind::kPointIndexJoin) << label;
        }
        ASSERT_EQ(ranged.rows.size(), exact.rows.size()) << label;
        for (size_t r = 0; r < exact.rows.size(); ++r) {
          // The exact join sums naively, the index exactly: allow rounding.
          const double slack = 1e-9 * std::max(1.0, std::fabs(exact.rows[r].value));
          EXPECT_GE(exact.rows[r].value, ranged.rows[r].lo - slack)
              << label << " region " << r;
          EXPECT_LE(exact.rows[r].value, ranged.rows[r].hi + slack)
              << label << " region " << r;
          EXPECT_GE(ranged.rows[r].hi, ranged.rows[r].lo) << label << " region " << r;
        }
      }
    }
  }
}

TEST_F(EngineTest, SumAndAvgAggregates) {
  const AggregateAnswer exact_sum =
      ExecuteAggregate(*state_, join::AggKind::kSum, Attr::kFare, ErrorBound::Exact());
  const AggregateAnswer approx_sum =
      ExecuteAggregate(*state_, join::AggKind::kSum, Attr::kFare,
                       ErrorBound::Absolute(8.0), Mode::kPointIndex);
  const AggregateAnswer approx_avg =
      ExecuteAggregate(*state_, join::AggKind::kAvg, Attr::kFare,
                       ErrorBound::Absolute(8.0), Mode::kPointIndex);
  for (size_t r = 0; r < exact_sum.rows.size(); ++r) {
    if (exact_sum.rows[r].value > 1000) {
      EXPECT_NEAR(approx_sum.rows[r].value / exact_sum.rows[r].value, 1.0, 0.1);
    }
    EXPECT_GE(approx_avg.rows[r].value, 0.0);
  }
}

TEST_F(EngineTest, PointIndexPassengerSumReroutesToExact) {
  // The point index carries prefix sums of the fare column only; a
  // SUM/AVG over passengers must not silently aggregate fares. The engine
  // reroutes such queries — and MIN/MAX, which no prefix sum answers — to
  // the exact plan under every mode, and says why.
  const struct {
    join::AggKind agg;
    Attr attr;
  } unindexed[] = {{join::AggKind::kSum, Attr::kPassengers},
                   {join::AggKind::kAvg, Attr::kPassengers},
                   {join::AggKind::kMin, Attr::kFare},
                   {join::AggKind::kMax, Attr::kFare}};
  for (const auto& [agg, attr] : unindexed) {
    const AggregateAnswer exact =
        ExecuteAggregate(*state_, agg, attr, ErrorBound::Exact());
    for (const Mode mode : {Mode::kAuto, Mode::kPointIndex}) {
      const std::string label = "agg " + std::to_string(static_cast<int>(agg)) + " mode " +
                                std::to_string(static_cast<int>(mode));
      const AggregateAnswer rerouted =
          ExecuteAggregate(*state_, agg, attr, ErrorBound::Absolute(8.0), mode);
      EXPECT_EQ(rerouted.stats.plan, query::PlanKind::kExactRStar) << label;
      EXPECT_NE(rerouted.stats.explain.find("point index answers"), std::string::npos)
          << label << ": " << rerouted.stats.explain;
      EXPECT_EQ(rerouted.stats.achieved_epsilon, 0.0) << label;
      ASSERT_EQ(rerouted.rows.size(), exact.rows.size()) << label;
      for (size_t r = 0; r < exact.rows.size(); ++r) {
        EXPECT_EQ(rerouted.rows[r].value, exact.rows[r].value)
            << label << " region " << r;
        EXPECT_EQ(rerouted.rows[r].lo, exact.rows[r].lo) << label << " region " << r;
        EXPECT_EQ(rerouted.rows[r].hi, exact.rows[r].hi) << label << " region " << r;
      }
    }
  }
  // COUNT needs no attribute column and stays on the point index.
  const AggregateAnswer count =
      ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone,
                       ErrorBound::Absolute(8.0), Mode::kPointIndex);
  EXPECT_EQ(count.stats.plan, query::PlanKind::kPointIndexJoin);
}

TEST_F(EngineTest, AutoModePicksAPlanAndExplains) {
  const AggregateAnswer auto_run =
      ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone,
                       ErrorBound::Absolute(8.0), Mode::kAuto);
  EXPECT_FALSE(auto_run.stats.explain.empty());
  EXPECT_GT(auto_run.stats.elapsed_ms, 0.0);
}

TEST_F(EngineTest, CountRangeContainsExact) {
  const geom::Polygon query =
      dbsa::testing::MakeStarPolygon({4000, 4000}, 800, 1800, 20, 11);
  const size_t exact = dbsa::testing::BruteForceInside(points_.locs, query).size();
  for (const double eps : {64.0, 16.0, 4.0}) {
    const join::ResultRange range = ExecuteCount(*state_, query,
                                                 ErrorBound::Absolute(eps)).range;
    EXPECT_TRUE(range.Contains(static_cast<double>(exact)))
        << "eps " << eps << " range [" << range.lo << "," << range.hi << "] exact "
        << exact;
  }
}

TEST_F(EngineTest, SelectIsConservativeAndBounded) {
  const geom::Polygon query =
      dbsa::testing::MakeStarPolygon({4000, 4000}, 800, 1800, 20, 21);
  const double eps = 16.0;
  const std::vector<uint32_t> ids = ExecuteSelect(*state_, query,
                                                  ErrorBound::Absolute(eps)).ids;
  std::vector<bool> selected(points_.size(), false);
  for (const uint32_t id : ids) {
    ASSERT_LT(id, points_.size());
    selected[id] = true;
  }
  for (size_t i = 0; i < points_.size(); ++i) {
    const geom::Point& p = points_.locs[i];
    const bool exact = query.bounds().Contains(p) && query.Contains(p);
    if (exact) {
      ASSERT_TRUE(selected[i]) << "missed inside point " << i;
    } else if (selected[i]) {
      ASSERT_LE(geom::DistanceToPolygon(p, query), eps + 1e-9)
          << "false positive beyond the bound";
    }
  }
}

TEST_F(EngineTest, Figure2Semantics) {
  // The motivating example: MBR-based filtering counts far-away points;
  // the distance-bounded approximation's false positives all lie near the
  // region. Reproduce with one concave query region.
  const geom::Polygon query =
      dbsa::testing::MakeStarPolygon({4000, 4000}, 600, 2000, 12, 13);
  // MBR count (what a pure-filter baseline returns).
  size_t mbr_count = 0, exact = 0;
  for (const geom::Point& p : points_.locs) {
    if (query.bounds().Contains(p)) {
      ++mbr_count;
      if (query.Contains(p)) ++exact;
    }
  }
  const double eps = 32.0;
  const join::ResultRange ur_range = ExecuteCount(*state_, query,
                                                  ErrorBound::Absolute(eps)).range;
  // The raster count is within its guaranteed range and much closer to
  // exact than the MBR count for concave regions.
  EXPECT_TRUE(ur_range.Contains(static_cast<double>(exact)));
  EXPECT_LT(std::fabs(ur_range.approx - static_cast<double>(exact)),
            std::fabs(static_cast<double>(mbr_count) - static_cast<double>(exact)));
}

TEST(EngineLifecycleTest, StatesAnswerForTheirOwnRegionTables) {
  data::TaxiConfig config;
  config.universe = geom::Box(0, 0, 1024, 1024);
  const data::PointSet points = data::GenerateTaxiPoints(1000, config);
  data::RegionConfig rc;
  rc.universe = config.universe;
  rc.num_polygons = 4;
  const auto a = BuildEngineState(points, data::GenerateRegions(rc));
  ASSERT_EQ(ExecuteAggregate(*a, join::AggKind::kCount, Attr::kNone,
                             query::ErrorBound::Absolute(4.0))
                .rows.size(),
            4u);

  // A state over a different region set answers with its own rows.
  rc.num_polygons = 9;
  rc.seed = 99;
  const auto b = BuildEngineState(points, data::GenerateRegions(rc));
  ASSERT_EQ(ExecuteAggregate(*b, join::AggKind::kCount, Attr::kNone,
                             query::ErrorBound::Absolute(4.0))
                .rows.size(),
            9u);
}

}  // namespace
}  // namespace dbsa::core
