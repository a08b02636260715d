// Run-to-run determinism: the byte-identity contract restated ACROSS
// process-internal runs, not just across execution paths. The envelope
// suite (query_envelope_test.cc) proves engine == pooled == sharded ==
// transport within one run; this suite proves the other axis the
// determinism gates defend (scripts/check_determinism.sh,
// util/determinism.h):
//
//   * the same mixed workload executed twice through FRESH, always-traced
//     service stacks — different heap addresses, different hash-table
//     layouts — produces payloads bit-identical to each other and to the
//     untraced core executors;
//   * a shard server's reply FRAMES are byte-identical across repeated
//     calls and across independently constructed server instances
//     (serialization cannot owe a single bit to construction history);
//   * MetricRegistry::RenderText orders families by name, not by
//     registration/insertion history.
//
// A hash-seeded iteration feeding a merge, an address-keyed container,
// or a padding byte reaching an encoder shows up here as a bit diff.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/dbsa.h"
#include "envelope_util.h"
#include "service/query_service.h"
#include "service/shard_server.h"
#include "service/transport.h"
#include "telemetry/metrics.h"
#include "test_util.h"

namespace dbsa::service {
namespace {

using dbsa::testing::ExecuteAll;
using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using dbsa::testing::Submission;
using query::ErrorBound;

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 4096, 4096);
    data::PointSet points = data::GenerateTaxiPoints(8000, taxi_config);
    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 12;
    region_config.target_avg_vertices = 20;
    region_config.multi_fraction = 0.2;
    data::RegionSet regions = data::GenerateRegions(region_config);
    state_ = core::BuildEngineState(std::move(points), std::move(regions));
  }

  /// Mixed workload: every query kind, approximate and exact regimes,
  /// aggregates pinned to the point index so they probe every path.
  std::vector<Submission> Workload() const {
    std::vector<Submission> subs;
    const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
    const geom::Polygon rect = MakeRectPolygon(600, 700, 1800, 1500);
    for (const ErrorBound& bound :
         {ErrorBound::Absolute(8.0), ErrorBound::AtLevel(7),
          ErrorBound::Exact()}) {
      ExecOptions options;
      options.bound = bound;
      options.mode = core::Mode::kPointIndex;
      subs.push_back({Query::Aggregate(join::AggKind::kCount), options,
                      "count-agg " + bound.ToString()});
      subs.push_back(
          {Query::Aggregate(join::AggKind::kSum, core::Attr::kFare), options,
           "sum-agg " + bound.ToString()});
      subs.push_back({Query::Count(star), options, "count " + bound.ToString()});
      subs.push_back({Query::Select(rect), options,
                      "select " + bound.ToString()});
    }
    return subs;
  }

  /// One complete service lifetime: fresh pool, fresh shard servers,
  /// fresh caches, fresh transport — only `state_` is shared (it is
  /// immutable after build). The service traces every query.
  std::vector<Result> RunOnce() const {
    ServiceOptions options;
    options.num_threads = 4;
    options.num_shards = 5;
    options.use_transport = true;
    QueryService service(state_, options);
    return ExecuteAll(service, Workload());
  }

  /// Bit-level equality on the payload-carrying fields. EXPECT_EQ on
  /// doubles is exact comparison — one ulp of drift fails, as it must:
  /// the wire carries these very bits.
  static void ExpectBitIdentical(const Result& got, const Result& want,
                                 const std::string& label) {
    ASSERT_TRUE(got.ok() && want.ok()) << label;
    ASSERT_EQ(got.kind, want.kind) << label;
    switch (want.kind) {
      case QueryKind::kAggregate: {
        ASSERT_EQ(got.aggregate.rows.size(), want.aggregate.rows.size()) << label;
        for (size_t r = 0; r < want.aggregate.rows.size(); ++r) {
          EXPECT_EQ(got.aggregate.rows[r].region, want.aggregate.rows[r].region)
              << label << " region " << r;
          EXPECT_EQ(got.aggregate.rows[r].value, want.aggregate.rows[r].value)
              << label << " region " << r;
          EXPECT_EQ(got.aggregate.rows[r].lo, want.aggregate.rows[r].lo)
              << label << " region " << r;
          EXPECT_EQ(got.aggregate.rows[r].hi, want.aggregate.rows[r].hi)
              << label << " region " << r;
        }
        break;
      }
      case QueryKind::kCount:
        EXPECT_EQ(got.range.estimate, want.range.estimate) << label;
        EXPECT_EQ(got.range.lo, want.range.lo) << label;
        EXPECT_EQ(got.range.hi, want.range.hi) << label;
        break;
      case QueryKind::kSelect:
        ASSERT_EQ(got.ids, want.ids) << label;
        break;
    }
    EXPECT_EQ(got.bound.epsilon_achieved, want.bound.epsilon_achieved) << label;
    EXPECT_EQ(got.bound.hr_level, want.bound.hr_level) << label;
  }

  std::shared_ptr<const core::EngineState> state_;
};

// The tentpole property: two full lifetimes of the always-traced service
// answer the mixed workload with payloads bit-identical to the core
// executors run with default, untraced hooks — so the comparison covers
// both "telemetry on vs off" and "same config, different run".
TEST_F(DeterminismTest, MixedWorkloadBitIdenticalAcrossRunsAndTelemetry) {
  const std::vector<Submission> workload = Workload();
  const std::vector<Result> traced = RunOnce();
  const std::vector<Result> traced_again = RunOnce();
  ASSERT_EQ(traced.size(), workload.size());
  ASSERT_EQ(traced_again.size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const Result untraced = dbsa::testing::Reference(*state_, workload[i]);
    ExpectBitIdentical(traced[i], untraced,
                       "telemetry on vs off: " + workload[i].label);
    ExpectBitIdentical(traced_again[i], traced[i],
                       "rerun vs first run: " + workload[i].label);
  }
}

// Wire-level restatement: a shard's reply frames are byte-identical
// across repeated Handle() calls (first call builds caches, second
// serves from them — the FRAME must not care) and across a second,
// independently constructed server instance over the same slice.
TEST_F(DeterminismTest, ShardReplyFramesByteIdenticalAcrossInstances) {
  const auto sharded = core::ShardedState::Build(state_, {3});
  const core::ShardedState::Shard& slice = sharded->shard(0);
  ShardServer first(slice.state, slice.global_ids, ShardServer::Options());
  ShardServer second(slice.state, slice.global_ids, ShardServer::Options());

  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, state_->grid, 8.0);

  std::vector<ScatterRequest> requests;
  ScatterRequest aggregate;
  aggregate.kind = ScatterRequest::Kind::kAggregateCells;
  aggregate.level = 7;
  aggregate.has_cells = true;
  aggregate.cells = hr.cells();
  requests.push_back(aggregate);
  ScatterRequest select = aggregate;
  select.kind = ScatterRequest::Kind::kSelectIds;
  requests.push_back(select);

  for (const ScatterRequest& request : requests) {
    const std::string frame = request.Encode();
    // Identical descriptions must encode identically, full stop.
    EXPECT_EQ(frame, request.Encode());
    const std::string cold = first.Handle(frame);
    const std::string warm = first.Handle(frame);
    const std::string other = second.Handle(frame);
    EXPECT_EQ(cold, warm)
        << "cache warm-up changed reply bytes, kind="
        << static_cast<int>(request.kind);
    EXPECT_EQ(cold, other)
        << "server construction history changed reply bytes, kind="
        << static_cast<int>(request.kind);
    GatherPartial partial;
    ASSERT_TRUE(GatherPartial::Decode(cold, &partial).ok());
    ASSERT_EQ(partial.status, GatherPartial::Disposition::kOk);
  }
}

// RenderText exposes families in name order because the registry keys
// its directory with an ordered map — scrape diffs across processes (or
// restarts) are meaningful. Registering the same metrics in opposite
// orders must render the same text.
TEST_F(DeterminismTest, RenderTextStableAcrossRegistrationOrder) {
  telemetry::MetricRegistry forward;
  forward.GetCounter("dbsa_test_requests_total")->Add(7);
  forward.GetGauge("dbsa_test_depth")->Set(3.5);
  forward.GetHistogram("dbsa_test_latency_ms")->Record(12.0);

  telemetry::MetricRegistry reversed;
  reversed.GetHistogram("dbsa_test_latency_ms")->Record(12.0);
  reversed.GetGauge("dbsa_test_depth")->Set(3.5);
  reversed.GetCounter("dbsa_test_requests_total")->Add(7);

  EXPECT_EQ(forward.RenderText(), reversed.RenderText());

  // And the order is the NAME order, not luck: the counter renders
  // before the gauge renders before the histogram.
  const std::string text = forward.RenderText();
  const size_t depth_at = text.find("dbsa_test_depth");
  const size_t latency_at = text.find("dbsa_test_latency_ms");
  const size_t requests_at = text.find("dbsa_test_requests_total");
  ASSERT_NE(depth_at, std::string::npos);
  ASSERT_NE(latency_at, std::string::npos);
  ASSERT_NE(requests_at, std::string::npos);
  EXPECT_LT(depth_at, latency_at);
  EXPECT_LT(latency_at, requests_at);
}

}  // namespace
}  // namespace dbsa::service
