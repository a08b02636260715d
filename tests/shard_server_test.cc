// Tests for the shard-server message seam: LoopbackTransport execution
// must return results BYTE-IDENTICAL to the in-process ShardedState
// engine for all three query kinds at every (shard count, thread count)
// combination, including queries that prune to zero shards —
// serialization must not cost a single bit. Plus the per-shard HR cache:
// shard-aware WarmCache routing, reference-request hits, eviction and
// checksum-mismatch fallbacks, and malformed-message hardening. And the
// batched scatter: one frame per surviving shard per wave, wave 2 only
// for the entries that missed, splits at the byte cap, the ascending
// fold under any completion order, per-entry epoch checks and the order
// in which errors surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dbsa.h"
#include "envelope_util.h"
#include "service/query_service.h"
#include "service/shard_server.h"
#include "service/thread_pool.h"
#include "service/transport.h"
#include "test_util.h"

namespace dbsa::service {
namespace {

using dbsa::testing::AggregateAt;
using dbsa::testing::CountAt;
using dbsa::testing::ExecuteAll;
using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using dbsa::testing::Reference;
using dbsa::testing::SelectAt;
using dbsa::testing::Submission;
using query::ErrorBound;

void ExpectRowsIdentical(const core::AggregateAnswer& got,
                         const core::AggregateAnswer& want,
                         const std::string& label) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    EXPECT_EQ(got.rows[r].region, want.rows[r].region) << label << " region " << r;
    EXPECT_EQ(got.rows[r].value, want.rows[r].value) << label << " region " << r;
    EXPECT_EQ(got.rows[r].lo, want.rows[r].lo) << label << " region " << r;
    EXPECT_EQ(got.rows[r].hi, want.rows[r].hi) << label << " region " << r;
  }
}

/// A complete in-process deployment of the seam: shard servers behind a
/// loopback transport plus the router driving them.
struct Seam {
  std::shared_ptr<const core::ShardedState> sharded;
  std::vector<std::shared_ptr<ShardServer>> servers;
  /// What the transport records its dbsa_loopback_* counters into.
  std::shared_ptr<telemetry::MetricRegistry> registry =
      std::make_shared<telemetry::MetricRegistry>();
  std::shared_ptr<LoopbackTransport> transport;
  std::unique_ptr<ShardRouter> router;
};

/// One of the loopback transport's counters ("messages",
/// "request_bytes", "response_bytes"), read through its registry.
uint64_t LoopbackCounter(telemetry::MetricRegistry& registry,
                         const std::string& name) {
  return registry.GetCounter("dbsa_loopback_" + name + "_total")->Value();
}

/// Shard `s`'s per-shard cache metric `family` as its ShardServer records
/// it into a shared registry (the loopback deployment of QueryService).
std::string ShardMetric(const std::string& family, size_t s) {
  return family + "{shard=\"" + std::to_string(s) + "\"}";
}

/// Reference requests served from the per-shard caches of shards [0, k).
uint64_t ShardCacheHits(telemetry::MetricRegistry& registry, size_t k) {
  uint64_t hits = 0;
  for (size_t s = 0; s < k; ++s) {
    hits += registry.GetCounter(ShardMetric("dbsa_shard_cache_hits_total", s))->Value();
  }
  return hits;
}

/// `poly`'s approximation `hr` probed through the router's batch probe as
/// the only entry — an ad-hoc polygon, keyed by its fingerprint.
join::CellAggregate ProbeOne(const ShardRouter& router,
                             const raster::HierarchicalRaster& hr,
                             const geom::Polygon& poly, int level,
                             const ErrorBound& bound) {
  return router
      .ProbeCells({core::Probe{hr, core::kAdHocPolygon, poly, bound, level, nullptr}},
                  {})
      .at(0);
}

Seam MakeSeam(const std::shared_ptr<const core::EngineState>& base, size_t k,
              size_t cache_budget_bytes = size_t{8} << 20) {
  Seam seam;
  seam.sharded = core::ShardedState::Build(base, {k});
  ShardServer::Options options;
  options.cell_cache_budget_bytes = cache_budget_bytes;
  std::vector<LoopbackTransport::Handler> handlers;
  for (size_t s = 0; s < seam.sharded->num_shards(); ++s) {
    const core::ShardedState::Shard& shard = seam.sharded->shard(s);
    seam.servers.push_back(
        std::make_shared<ShardServer>(shard.state, shard.global_ids, options));
    handlers.push_back([server = seam.servers.back()](const std::string& request) {
      return server->Handle(request);
    });
  }
  seam.transport =
      std::make_shared<LoopbackTransport>(std::move(handlers), seam.registry);
  seam.router = std::make_unique<ShardRouter>(seam.sharded, seam.transport);
  return seam;
}

class ShardServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 4096, 4096);
    data::PointSet points = data::GenerateTaxiPoints(20000, taxi_config);
    // Dyadic fares: SUM/AVG partials exact in double, so the merge
    // identity holds bit-for-bit (see sharded_state_test.cc).
    for (double& f : points.fare) f = std::round(f * 64.0) / 64.0;

    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 24;
    region_config.target_avg_vertices = 24;
    region_config.multi_fraction = 0.2;
    data::RegionSet regions = data::GenerateRegions(region_config);

    base_ = core::BuildEngineState(std::move(points), std::move(regions));
  }

  std::shared_ptr<const core::EngineState> base_;
};

// The acceptance stress: loopback execution vs the in-process sharded
// engine, every query kind, K x threads, zero-surviving included.
TEST_F(ShardServerTest, LoopbackByteMatchesInProcessShardedEverywhere) {
  const geom::Polygon star1 = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon star2 = MakeStarPolygon({1200, 2800}, 300, 700, 12, 23);
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  const std::vector<geom::Polygon> polys = {star1, star2, corner};
  const std::vector<double> epsilons = {4.0, 16.0};

  for (const size_t k : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
    Seam seam = MakeSeam(base_, k);
    for (const size_t threads : {size_t{0}, size_t{4}, size_t{8}}) {
      std::unique_ptr<ThreadPool> pool;
      core::ExecHooks hooks;
      if (threads > 0) {
        pool = std::make_unique<ThreadPool>(threads);
        hooks.parallel_for = [&pool](size_t n,
                                     const std::function<void(size_t)>& fn) {
          pool->ParallelFor(n, fn);
        };
      }
      const std::string label =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);

      for (const double eps : epsilons) {
        ExpectRowsIdentical(
            ExecuteAggregate(*seam.router, join::AggKind::kCount, core::Attr::kNone,
                             ErrorBound::Absolute(eps), core::Mode::kPointIndex,
                             hooks),
            core::ExecuteAggregate(*seam.sharded, join::AggKind::kCount,
                                   core::Attr::kNone, ErrorBound::Absolute(eps),
                                   core::Mode::kPointIndex, hooks),
            label + " count eps=" + std::to_string(eps));
        ExpectRowsIdentical(
            ExecuteAggregate(*seam.router, join::AggKind::kSum, core::Attr::kFare,
                             ErrorBound::Absolute(eps), core::Mode::kPointIndex,
                             hooks),
            core::ExecuteAggregate(*seam.sharded, join::AggKind::kSum,
                                   core::Attr::kFare, ErrorBound::Absolute(eps),
                                   core::Mode::kPointIndex, hooks),
            label + " sum eps=" + std::to_string(eps));
        ExpectRowsIdentical(
            ExecuteAggregate(*seam.router, join::AggKind::kAvg, core::Attr::kFare,
                             ErrorBound::Absolute(eps), core::Mode::kPointIndex,
                             hooks),
            core::ExecuteAggregate(*seam.sharded, join::AggKind::kAvg,
                                   core::Attr::kFare, ErrorBound::Absolute(eps),
                                   core::Mode::kPointIndex, hooks),
            label + " avg eps=" + std::to_string(eps));

        for (size_t p = 0; p < polys.size(); ++p) {
          const ErrorBound bound = ErrorBound::Absolute(eps);
          const join::ResultRange got =
              ExecuteCount(*seam.router, polys[p], bound, hooks).range;
          const join::ResultRange want =
              core::ExecuteCount(*seam.sharded, polys[p], bound, hooks).range;
          EXPECT_EQ(got.estimate, want.estimate) << label << " poly " << p;
          EXPECT_EQ(got.lo, want.lo) << label << " poly " << p;
          EXPECT_EQ(got.hi, want.hi) << label << " poly " << p;
          EXPECT_EQ(ExecuteSelect(*seam.router, polys[p], bound, hooks).ids,
                    core::ExecuteSelect(*seam.sharded, polys[p], bound, hooks).ids)
              << label << " poly " << p;
        }
      }

      // The exact plan delegates beneath the seam unchanged: the reroute
      // of an aggregate the point index cannot answer, and exact bounds.
      ExpectRowsIdentical(
          ExecuteAggregate(*seam.router, join::AggKind::kMin, core::Attr::kFare,
                           ErrorBound::Absolute(8.0), core::Mode::kAuto, hooks),
          core::ExecuteAggregate(*seam.sharded, join::AggKind::kMin,
                                 core::Attr::kFare, ErrorBound::Exact(),
                                 core::Mode::kExact, hooks),
          label + " delegated MIN");
      ExpectRowsIdentical(
          ExecuteAggregate(*seam.router, join::AggKind::kCount, core::Attr::kNone,
                           ErrorBound::Exact(), core::Mode::kExact, hooks),
          core::ExecuteAggregate(*seam.sharded, join::AggKind::kCount,
                                 core::Attr::kNone, ErrorBound::Exact(),
                                 core::Mode::kExact, hooks),
          label + " delegated exact");
    }
  }
}

TEST_F(ShardServerTest, ZeroSurvivingShardsAnswersZeroAcrossTheSeam) {
  // Points confined to the left half; the query polygon sits in the
  // right half: the scatter set is empty and the (empty) gather must
  // still byte-match the in-process engine's zeros.
  data::TaxiConfig config;
  config.universe = geom::Box(0, 0, 2000, 4096);
  data::PointSet points = data::GenerateTaxiPoints(5000, config);
  data::RegionConfig region_config;
  region_config.universe = geom::Box(0, 0, 4096, 4096);
  region_config.num_polygons = 8;
  data::RegionSet regions = data::GenerateRegions(region_config);
  const auto base = core::BuildEngineState(std::move(points), std::move(regions));

  Seam seam = MakeSeam(base, 4);
  const geom::Polygon far_poly = MakeRectPolygon(3000, 1000, 3800, 2000);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(far_poly, base->grid, 8.0);
  ASSERT_TRUE(seam.sharded->PlanScatter(hr, nullptr).shards.empty());

  const ErrorBound bound = ErrorBound::Absolute(8.0);
  const join::ResultRange got = ExecuteCount(*seam.router, far_poly, bound).range;
  const join::ResultRange want = core::ExecuteCount(*base, far_poly, bound).range;
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.lo, want.lo);
  EXPECT_EQ(got.hi, want.hi);
  EXPECT_EQ(got.estimate, 0.0);
  EXPECT_TRUE(ExecuteSelect(*seam.router, far_poly, bound).ids.empty());
  // No messages at all crossed the transport for the empty scatter set.
  EXPECT_EQ(LoopbackCounter(*seam.registry, "messages"), 0u);
}

TEST_F(ShardServerTest, TransportServiceByteMatchesUnshardedEngine) {
  // End-to-end through QueryService with the seam on: 8 shard servers x
  // 8 threads, workload duplicated so the second half runs on warm
  // central + per-shard caches (reference requests).
  std::vector<Submission> workload;
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  for (const double eps : {4.0, 8.0}) {
    workload.push_back(AggregateAt(join::AggKind::kCount, core::Attr::kNone, eps,
                                   core::Mode::kPointIndex));
    workload.push_back(AggregateAt(join::AggKind::kSum, core::Attr::kFare, eps,
                                   core::Mode::kPointIndex));
    workload.push_back(CountAt(star, eps));
    workload.push_back(CountAt(corner, eps));
    workload.push_back(SelectAt(star, eps));
  }
  // Duplicate through an explicit copy: self-range insert invalidates the
  // source iterators when the vector reallocates (it silently corrupted
  // the duplicated half of earlier versions of this idiom).
  const std::vector<Submission> first_pass = workload;
  workload.insert(workload.end(), first_pass.begin(), first_pass.end());

  ServiceOptions options;
  options.num_threads = 8;
  options.num_shards = 8;
  options.use_transport = true;
  QueryService service(base_, options);
  ASSERT_NE(service.sharded(), nullptr);
  ASSERT_EQ(service.sharded()->num_shards(), 8u);

  const std::vector<Result> results = ExecuteAll(service, workload);
  ASSERT_EQ(results.size(), workload.size());
  EXPECT_GT(LoopbackCounter(*service.registry(), "messages"), 0u);

  for (size_t i = 0; i < results.size(); ++i) {
    dbsa::testing::ExpectSamePayload(results[i], Reference(*base_, workload[i]),
                                     "request " + std::to_string(i));
  }

  // The duplicated half was served by reference: at least one shard
  // answered from its per-shard cache.
  EXPECT_GT(ShardCacheHits(*service.registry(), 8), 0u);
}

TEST_F(ShardServerTest, ReferenceRequestsShipFewerBytesOnRepeat) {
  Seam seam = MakeSeam(base_, 8);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 4.0);
  const int level = base_->grid.LevelForEpsilon(4.0);
  const ErrorBound bound = ErrorBound::Absolute(4.0);

  const join::CellAggregate cold = ProbeOne(*seam.router, hr, star, level, bound);
  const uint64_t cold_messages = LoopbackCounter(*seam.registry, "messages");
  const uint64_t cold_bytes = LoopbackCounter(*seam.registry, "request_bytes");
  const join::CellAggregate warm = ProbeOne(*seam.router, hr, star, level, bound);
  const uint64_t all_messages = LoopbackCounter(*seam.registry, "messages");
  const uint64_t all_bytes = LoopbackCounter(*seam.registry, "request_bytes");

  // Identical partials either way (the cached slice is the pruned slice).
  EXPECT_EQ(warm.count, cold.count);
  EXPECT_EQ(warm.sum, cold.sum);
  EXPECT_EQ(warm.boundary_count, cold.boundary_count);
  EXPECT_EQ(warm.boundary_sum, cold.boundary_sum);
  // The repeat pass referenced the per-shard caches: same message count,
  // far fewer request bytes (no cell payloads).
  EXPECT_EQ(all_messages, 2 * cold_messages);
  EXPECT_LT(all_bytes - cold_bytes, cold_bytes / 4);
  size_t hits = 0;
  for (const auto& server : seam.servers) hits += server->stats().cache_hits;
  EXPECT_EQ(hits, cold_messages);  // Every repeat probe was a hit.
}

TEST_F(ShardServerTest, EvictedSliceFallsBackToInlineShipping) {
  // Budget 0: servers never retain a slice, so every reference request
  // answers kNotCached and the router re-ships inline — results must be
  // unaffected.
  Seam seam = MakeSeam(base_, 8, /*cache_budget_bytes=*/0);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 4.0);
  const int level = base_->grid.LevelForEpsilon(4.0);
  const ErrorBound bound = ErrorBound::Absolute(4.0);

  const join::CellAggregate first = ProbeOne(*seam.router, hr, star, level, bound);
  const join::CellAggregate second = ProbeOne(*seam.router, hr, star, level, bound);
  EXPECT_EQ(second.count, first.count);
  EXPECT_EQ(second.sum, first.sum);
  size_t misses = 0, entries = 0;
  for (const auto& server : seam.servers) {
    misses += server->stats().cache_misses;
    entries += server->stats().cache_entries;
  }
  EXPECT_GT(misses, 0u);   // The second pass hit the kNotCached path.
  EXPECT_EQ(entries, 0u);  // Nothing is ever retained at budget 0.
}

TEST_F(ShardServerTest, ChecksumMismatchInvalidatesCachedSlice) {
  Seam seam = MakeSeam(base_, 1);
  ASSERT_EQ(seam.servers.size(), 1u);
  ShardServer& server = *seam.servers[0];

  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 8.0);
  ScatterRequest warm;
  warm.kind = ScatterRequest::Kind::kWarm;
  warm.level = 7;
  warm.checksum = ApproxChecksum(hr.cells().data(), hr.cells().size());
  warm.has_object = true;
  warm.object = ObjectKey(0x8000000000000000ull, 99);
  warm.has_cells = true;
  warm.cells = hr.cells();
  GatherPartial partial;
  ASSERT_TRUE(GatherPartial::Decode(server.Handle(warm.Encode()), &partial).ok());
  ASSERT_EQ(partial.status, GatherPartial::Disposition::kOk);
  EXPECT_EQ(server.stats().cache_entries, 1u);

  // A reference with the right checksum hits...
  ScatterRequest reference;
  reference.kind = ScatterRequest::Kind::kAggregateCells;
  reference.level = warm.level;
  reference.checksum = warm.checksum;
  reference.has_object = true;
  reference.object = warm.object;
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(reference.Encode()), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kOk);

  // ...but a different checksum under the same key (a stale or colliding
  // entry) answers kNotCached and drops the entry.
  reference.checksum ^= 1;
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(reference.Encode()), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kNotCached);
  EXPECT_EQ(server.stats().cache_entries, 0u);
}

TEST_F(ShardServerTest, MalformedRequestYieldsErrorPartialNotUb) {
  Seam seam = MakeSeam(base_, 1);
  ShardServer& server = *seam.servers[0];
  GatherPartial partial;
  // Unframed garbage — the decoder's typed code survives the round trip.
  ASSERT_TRUE(GatherPartial::Decode(server.Handle("garbage"), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
  EXPECT_EQ(partial.code, StatusCode::kInvalidArgument);
  // A version-1 frame is rejected as kUnimplemented, never decoded.
  std::string v1_frame = ScatterRequest().Encode();
  v1_frame[6] = 1;  // Version byte.
  ASSERT_TRUE(GatherPartial::Decode(server.Handle(v1_frame), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
  EXPECT_EQ(partial.code, StatusCode::kUnimplemented);
  // A request that carries neither cells nor an object reference.
  ScatterRequest empty;
  empty.kind = ScatterRequest::Kind::kAggregateCells;
  ASSERT_TRUE(GatherPartial::Decode(server.Handle(empty.Encode()), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
  // A warm request without cells.
  ScatterRequest bad_warm;
  bad_warm.kind = ScatterRequest::Kind::kWarm;
  bad_warm.has_object = true;
  bad_warm.object = ObjectKey(3);
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(bad_warm.Encode()), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
  EXPECT_EQ(server.stats().parse_errors, 2u);  // Garbage + v1 frame.
  EXPECT_EQ(server.stats().requests, 4u);
}

TEST_F(ShardServerTest, SlowHandleEmitsTraceJoinedLine) {
  // Server-side slow-query diagnostics: a Handle() call over the
  // threshold emits one SLOW_SHARD line carrying the request's WIRE
  // trace id — the join key between a client's SLOW_QUERY record and the
  // shard that was slow. Zero trace fields render as "untraced".
  Seam seam = MakeSeam(base_, 1);
  const core::ShardedState::Shard& slice = seam.sharded->shard(0);
  ShardServer::Options options;
  options.shard_index = 3;
  options.slow_handle_ms = 1e-6;  // Everything is "slow".
  std::vector<std::string> lines;
  options.slow_handle_sink = [&lines](const std::string& line) {
    lines.push_back(line);
  };
  ShardServer server(slice.state, slice.global_ids, options);

  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 8.0);
  ScatterRequest request;
  request.kind = ScatterRequest::Kind::kAggregateCells;
  request.level = 7;
  request.trace_hi = 0x00c0ffee00000001ull;
  request.trace_lo = 0xdeadbeef00000002ull;
  request.span_id = 0x42;
  request.has_cells = true;
  request.cells = hr.cells();
  GatherPartial partial;
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(request.Encode()), &partial).ok());
  ASSERT_EQ(partial.status, GatherPartial::Disposition::kOk);

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("SLOW_SHARD"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("trace=00c0ffee00000001deadbeef00000002"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("shard=3"), std::string::npos) << lines[0];

  // Untraced requests log too (slowness is slowness), marked as such.
  request.trace_hi = request.trace_lo = request.span_id = 0;
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(request.Encode()), &partial).ok());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("trace=untraced"), std::string::npos) << lines[1];

  // The server's handle-latency histogram recorded both calls under its
  // shard label.
  EXPECT_EQ(server.registry()
                ->GetHistogram("dbsa_shard_handle_ms{shard=\"3\"}")
                ->Snapshot()
                .count,
            2u);
}

// ---- shard-aware WarmCache --------------------------------------------

TEST_F(ShardServerTest, WarmCacheWarmsOnlyRoutedRegionsPerShard) {
  for (const size_t k : {size_t{1}, size_t{2}, size_t{7}}) {
    ServiceOptions options;
    options.num_threads = 4;
    options.num_shards = k;
    options.use_transport = true;
    QueryService service(std::shared_ptr<const core::EngineState>(base_), options);
    ASSERT_EQ(service.sharded()->num_shards(), k);
    telemetry::MetricRegistry& registry = *service.registry();

    const double eps = 8.0;
    service.WarmCache(eps);
    const int level = base_->grid.LevelForEpsilon(eps);

    // Expected: exactly the regions whose HR cells route to each shard,
    // by the scatter plan every query uses.
    std::vector<size_t> expected(k, 0);
    for (const geom::Polygon& poly : base_->regions->polys) {
      const raster::HierarchicalRaster hr =
          raster::HierarchicalRaster::BuildLevel(poly, base_->grid, level);
      for (const uint32_t s : service.sharded()->PlanScatter(hr, nullptr).shards) {
        ++expected[s];
      }
    }
    // Each shard holds one cached slice per routed region and nothing
    // else: no other region, key or level.
    for (size_t s = 0; s < k; ++s) {
      EXPECT_EQ(registry.GetGauge(ShardMetric("dbsa_shard_cache_entries", s))->Value(),
                static_cast<double>(expected[s]))
          << "k=" << k << " shard " << s;
    }

    // ...and those slices are the routed regions': a point-index region
    // COUNT at the warmed bound sends every shard one reference request
    // per routed region, and each is served from the cache. A routed
    // region that was not warmed would answer kNotCached (a miss) or ship
    // its cells inline (no hit).
    const Result counted =
        service
            .Execute(Query::Aggregate(join::AggKind::kCount),
                     dbsa::testing::Options(ErrorBound::Absolute(eps),
                                            core::Mode::kPointIndex))
            .get();
    ASSERT_TRUE(counted.ok()) << counted.status.ToString();
    for (size_t s = 0; s < k; ++s) {
      EXPECT_EQ(registry.GetCounter(ShardMetric("dbsa_shard_cache_hits_total", s))
                    ->Value(),
                expected[s])
          << "k=" << k << " shard " << s;
      EXPECT_EQ(registry.GetCounter(ShardMetric("dbsa_shard_cache_misses_total", s))
                    ->Value(),
                0u)
          << "k=" << k << " shard " << s;
    }
  }
}

// A loopback shard server shares its slice's position-ordered base ids
// with the service's sharded state instead of building a second copy.
TEST_F(ShardServerTest, LoopbackServersShareTheSliceIds) {
  for (const size_t k : {size_t{1}, size_t{7}}) {
    ServiceOptions options;
    options.num_threads = 2;
    options.num_shards = k;
    options.use_transport = true;
    QueryService service(std::shared_ptr<const core::EngineState>(base_), options);
    ASSERT_EQ(service.sharded()->num_shards(), k);
    for (size_t s = 0; s < k; ++s) {
      const std::shared_ptr<const std::vector<uint32_t>>& ids =
          service.sharded()->shard(s).ids_by_position;
      ASSERT_NE(ids, nullptr) << "k=" << k << " shard " << s;
      ASSERT_FALSE(ids->empty()) << "k=" << k << " shard " << s;
      EXPECT_GE(ids.use_count(), 2) << "k=" << k << " shard " << s;
    }
  }
}

TEST_F(ShardServerTest, WarmAndColdResultsByteIdentical) {
  std::vector<Submission> workload;
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  for (const double eps : {4.0, 8.0}) {
    workload.push_back(AggregateAt(join::AggKind::kCount, core::Attr::kNone, eps,
                                   core::Mode::kPointIndex));
    workload.push_back(AggregateAt(join::AggKind::kSum, core::Attr::kFare, eps,
                                   core::Mode::kPointIndex));
    workload.push_back(CountAt(star, eps));
    workload.push_back(SelectAt(star, eps));
  }

  for (const size_t k : {size_t{1}, size_t{2}, size_t{7}}) {
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      ServiceOptions options;
      options.num_threads = threads;
      options.num_shards = k;
      options.use_transport = true;

      QueryService cold(std::shared_ptr<const core::EngineState>(base_), options);
      QueryService warm(std::shared_ptr<const core::EngineState>(base_), options);
      warm.WarmCache(4.0);
      warm.WarmCache(8.0);

      const std::vector<Result> cold_results = ExecuteAll(cold, workload);
      const std::vector<Result> warm_results = ExecuteAll(warm, workload);
      ASSERT_EQ(cold_results.size(), workload.size());
      ASSERT_EQ(warm_results.size(), workload.size());
      const std::string label =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      for (size_t i = 0; i < workload.size(); ++i) {
        ASSERT_TRUE(cold_results[i].ok())
            << label << " " << cold_results[i].status.ToString();
        dbsa::testing::ExpectSamePayload(warm_results[i], cold_results[i],
                                         label + " request " + std::to_string(i));
      }
      // The warm service's aggregates found every region HR in the
      // central cache and (for point-index plans) the routed slices in
      // the per-shard caches.
      EXPECT_GT(ShardCacheHits(*warm.registry(), k), 0u) << label;
    }
  }
}

// ---- the batched scatter ------------------------------------------------

/// A region table of 500 polygons, non-dyadic fares: the shape of a
/// dashboard's region aggregate, and sums whose association order would
/// round differently if the gather did not keep it canonical.
class BatchScatterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 4096, 4096);
    data::PointSet points = data::GenerateTaxiPoints(20000, taxi_config);
    for (size_t i = 0; i < points.fare.size(); ++i) {
      points.fare[i] = 2.5 + 0.1 * static_cast<double>(i % 97) + 1.0 / 3.0;
    }
    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 500;
    region_config.target_avg_vertices = 12;
    base_ = core::BuildEngineState(std::move(points),
                                   data::GenerateRegions(region_config));
    // Each region HR is built once per level and shared by every
    // execution below, as the serving layer's cache shares them.
    hooks_.hr_provider = [this](size_t j, const geom::Polygon& poly, double eps) {
      const int level = base_->grid.LevelForEpsilon(eps);
      dbsa::MutexLock lock(hrs_mu_);
      auto& hr = hrs_[{j, level}];
      if (hr == nullptr) {
        hr = std::make_shared<raster::HierarchicalRaster>(
            raster::HierarchicalRaster::BuildLevel(poly, base_->grid, level));
      }
      return hr;
    };
  }

  /// Loopback counters and per-shard server counters, summed.
  struct Traffic {
    uint64_t messages = 0;
    uint64_t requests = 0;  ///< Entries the servers handled.
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  static Traffic Read(const Seam& seam) {
    Traffic t;
    t.messages = LoopbackCounter(*seam.registry, "messages");
    for (const auto& server : seam.servers) {
      const ShardServer::Stats stats = server->stats();
      t.requests += stats.requests;
      t.hits += stats.cache_hits;
      t.misses += stats.cache_misses;
    }
    return t;
  }

  /// (entry, shard) pairs a region aggregate at `eps` scatters, and the
  /// distinct shards it reaches.
  std::pair<size_t, size_t> Survivors(const core::ShardedState& sharded,
                                      double eps) const {
    size_t pairs = 0;
    std::set<uint32_t> shards;
    const std::vector<geom::Polygon>& polys = base_->regions->polys;
    for (size_t j = 0; j < polys.size(); ++j) {
      const auto hr = hooks_.hr_provider(j, polys[j], eps);
      for (const uint32_t s : sharded.PlanScatter(*hr, nullptr).shards) {
        ++pairs;
        shards.insert(s);
      }
    }
    return {pairs, shards.size()};
  }

  core::AggregateAnswer Aggregate(const core::ShardSource& source,
                                  join::AggKind agg, double eps) const {
    return core::ExecuteAggregate(
        source, agg, agg == join::AggKind::kCount ? core::Attr::kNone : core::Attr::kFare,
        ErrorBound::Absolute(eps), core::Mode::kPointIndex, hooks_);
  }

  std::shared_ptr<const core::EngineState> base_;
  core::ExecHooks hooks_;
  dbsa::Mutex hrs_mu_;
  std::map<std::pair<size_t, int>, std::shared_ptr<const raster::HierarchicalRaster>>
      hrs_ DBSA_GUARDED_BY(hrs_mu_);
};

TEST_F(BatchScatterTest, AggregateSendsOneFramePerSurvivingShardPerWave) {
  const double eps = 16.0;
  for (const size_t k : {size_t{2}, size_t{7}}) {
    Seam seam = MakeSeam(base_, k);
    const auto [pairs, shards] = Survivors(*seam.sharded, eps);
    ASSERT_GT(pairs, base_->regions->polys.size()) << "k=" << k;
    // Cold: every entry inline, all in wave 1 — one frame per shard.
    const core::AggregateAnswer cold = Aggregate(*seam.router, join::AggKind::kCount, eps);
    const Traffic after_cold = Read(seam);
    EXPECT_EQ(cold.stats.shards_probed, shards) << "k=" << k;
    EXPECT_EQ(after_cold.messages, shards) << "k=" << k;
    EXPECT_EQ(after_cold.requests, pairs) << "k=" << k;
    // Warm: every entry a reference, every reference a hit — still one
    // frame per shard, and no second wave.
    const core::AggregateAnswer warm = Aggregate(*seam.router, join::AggKind::kCount, eps);
    const Traffic after_warm = Read(seam);
    EXPECT_EQ(after_warm.messages - after_cold.messages, shards) << "k=" << k;
    EXPECT_EQ(after_warm.hits, pairs) << "k=" << k;
    EXPECT_EQ(after_warm.misses, 0u) << "k=" << k;
    ExpectRowsIdentical(warm, cold, "k=" + std::to_string(k) + " warm");
  }
}

TEST_F(BatchScatterTest, RowsByteMatchInProcessShardedAndUnsharded) {
  for (const size_t k : {size_t{2}, size_t{7}}) {
    Seam seam = MakeSeam(base_, k);
    ThreadPool pool(4);
    core::ExecHooks pooled = hooks_;
    pooled.parallel_for = [&pool](size_t n, const std::function<void(size_t)>& fn) {
      pool.ParallelFor(n, fn);
    };
    for (const auto agg : {join::AggKind::kCount, join::AggKind::kSum, join::AggKind::kAvg}) {
      for (const double eps : {4.0, 16.0}) {
        const std::string label = "k=" + std::to_string(k) + " agg=" +
                                  std::to_string(static_cast<int>(agg)) +
                                  " eps=" + std::to_string(eps);
        const core::AggregateAnswer want = Aggregate(*base_, agg, eps);
        ExpectRowsIdentical(Aggregate(*seam.router, agg, eps), want, label + " loopback");
        ExpectRowsIdentical(Aggregate(*seam.sharded, agg, eps), want, label + " sharded");
        const core::Attr attr =
            agg == join::AggKind::kCount ? core::Attr::kNone : core::Attr::kFare;
        ExpectRowsIdentical(
            core::ExecuteAggregate(*seam.router, agg, attr, ErrorBound::Absolute(eps),
                                   core::Mode::kPointIndex, pooled),
            want, label + " loopback pooled");
      }
    }
  }
}

TEST_F(BatchScatterTest, WaveTwoResendsExactlyTheEntriesThatMissed) {
  const double eps = 16.0;
  for (const size_t k : {size_t{2}, size_t{7}}) {
    // A slice cache that holds about half of its shard's routed slices.
    const auto sharded = core::ShardedState::Build(base_, {k});
    std::vector<size_t> routed_bytes(k, 0);
    const std::vector<geom::Polygon>& polys = base_->regions->polys;
    for (size_t j = 0; j < polys.size(); ++j) {
      const auto hr = hooks_.hr_provider(j, polys[j], eps);
      const core::ShardedState::Scatter plan = sharded->PlanScatter(*hr, nullptr);
      for (const uint32_t s : plan.shards) {
        routed_bytes[s] += sharded->PruneCellsForShard(s, hr->cells().data(),
                                                       plan.routes.data(),
                                                       hr->cells().size())
                               .size() *
                           sizeof(raster::HrCell);
      }
    }
    const size_t budget =
        *std::min_element(routed_bytes.begin(), routed_bytes.end()) / 2;
    Seam seam = MakeSeam(base_, k, budget);
    const auto [pairs, shards] = Survivors(*seam.sharded, eps);

    const core::AggregateAnswer cold = Aggregate(*seam.router, join::AggKind::kSum, eps);
    const Traffic before = Read(seam);
    ASSERT_EQ(before.messages, shards) << "k=" << k;
    // The repeat references every slice; the evicted ones miss and go
    // again, inline, in ONE more frame per shard at most.
    const core::AggregateAnswer again = Aggregate(*seam.router, join::AggKind::kSum, eps);
    const Traffic after = Read(seam);
    const uint64_t misses = after.misses - before.misses;
    EXPECT_GT(misses, 0u) << "k=" << k;
    EXPECT_GT(after.hits - before.hits, 0u) << "k=" << k;
    EXPECT_EQ(after.hits - before.hits + misses, pairs) << "k=" << k;
    EXPECT_EQ(after.requests - before.requests, pairs + misses) << "k=" << k;
    EXPECT_GT(after.messages - before.messages, shards) << "k=" << k;
    EXPECT_LE(after.messages - before.messages, 2 * shards) << "k=" << k;
    ExpectRowsIdentical(again, cold, "k=" + std::to_string(k));
    ExpectRowsIdentical(again, Aggregate(*base_, join::AggKind::kSum, eps),
                        "k=" + std::to_string(k) + " unsharded");
  }
}

TEST_F(BatchScatterTest, EntriesOverTheByteCapSplitAcrossFrames) {
  // At ε 1 the inline slices of one wave pass kMaxBatchBytes per shard.
  const double eps = 1.0;
  for (const size_t k : {size_t{2}, size_t{7}}) {
    Seam seam = MakeSeam(base_, k);
    // Every frame the servers receive, by size.
    auto sizes = std::make_shared<std::vector<size_t>>();
    auto sizes_mu = std::make_shared<dbsa::Mutex>();
    std::vector<LoopbackTransport::Handler> handlers;
    for (const auto& server : seam.servers) {
      handlers.push_back([server, sizes, sizes_mu](const std::string& request) {
        {
          dbsa::MutexLock lock(*sizes_mu);
          sizes->push_back(request.size());
        }
        return server->Handle(request);
      });
    }
    auto transport = std::make_shared<LoopbackTransport>(std::move(handlers));
    ShardRouter router(seam.sharded, transport);
    const auto [pairs, shards] = Survivors(*seam.sharded, eps);

    const core::AggregateAnswer got = Aggregate(router, join::AggKind::kSum, eps);
    EXPECT_GT(sizes->size(), shards) << "k=" << k;  // Some shard split.
    size_t entries = 0;
    for (const auto& server : seam.servers) entries += server->stats().requests;
    EXPECT_EQ(entries, pairs) << "k=" << k;  // Each entry sent once.
    for (const size_t size : *sizes) {
      EXPECT_LE(size, kMaxBatchBytes + kWireEnvelopeSize) << "k=" << k;
    }
    const std::string label = "k=" + std::to_string(k);
    ExpectRowsIdentical(got, Aggregate(*seam.sharded, join::AggKind::kSum, eps), label);
    ExpectRowsIdentical(got, Aggregate(*base_, join::AggKind::kSum, eps),
                        label + " unsharded");
  }
}

TEST_F(BatchScatterTest, EveryBatchedEntryIsEpochChecked) {
  for (const size_t k : {size_t{2}, size_t{7}}) {
    const auto sharded = core::ShardedState::Build(base_, {k});
    std::vector<std::shared_ptr<ShardServer>> servers;
    std::vector<LoopbackTransport::Handler> handlers;
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      ShardServer::Options options;
      options.serving_epoch = 7;
      servers.push_back(std::make_shared<ShardServer>(
          sharded->shard(s).state, sharded->shard(s).global_ids, options));
      handlers.push_back([server = servers.back()](const std::string& request) {
        return server->Handle(request);
      });
    }
    ShardRouter router(sharded, std::make_shared<LoopbackTransport>(std::move(handlers)));
    const auto [pairs, shards] = Survivors(*sharded, 16.0);

    router.set_epoch(8);  // Another generation: every entry is rejected.
    try {
      Aggregate(router, join::AggKind::kCount, 16.0);
      ADD_FAILURE() << "k=" << k << ": an epoch-skewed aggregate answered";
    } catch (const StatusException& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kFailedPrecondition) << "k=" << k;
    }
    uint64_t rejects = 0;
    for (const auto& server : servers) rejects += server->stats().epoch_rejects;
    EXPECT_EQ(rejects, pairs) << "k=" << k;

    router.set_epoch(7);  // The served generation answers.
    ExpectRowsIdentical(Aggregate(router, join::AggKind::kCount, 16.0),
                        Aggregate(*base_, join::AggKind::kCount, 16.0),
                        "k=" + std::to_string(k));
  }
}

/// A transport over scripted shard handlers: `failing` shards complete
/// with kUnavailable, and with `reverse` every completion fires on its
/// own thread, later the lower its shard, so replies land in descending
/// shard order. Records the order completions fired in.
class ScriptedTransport : public Transport {
 public:
  using Handler = LoopbackTransport::Handler;
  ScriptedTransport(std::vector<Handler> handlers, std::set<size_t> failing,
                    bool reverse)
      : handlers_(std::move(handlers)), failing_(std::move(failing)),
        reverse_(reverse) {}
  ~ScriptedTransport() override {
    for (std::thread& t : threads_) t.join();
  }

  size_t num_shards() const override { return handlers_.size(); }
  uint64_t Send(size_t shard, std::string request, Done done) override {
    const auto complete = [this, shard, request = std::move(request),
                           done = std::move(done)]() {
      {
        dbsa::MutexLock lock(mu_);
        completed_.push_back(shard);
      }
      if (failing_.count(shard) != 0) {
        done(Status::Unavailable("scripted outage"));
      } else {
        done(handlers_[shard](request));
      }
    };
    if (!reverse_) {
      complete();
    } else {
      threads_.emplace_back([complete, delay = handlers_.size() - shard]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(20 * delay));
        complete();
      });
    }
    return 0;
  }

  std::vector<size_t> completed() const {
    dbsa::MutexLock lock(mu_);
    return completed_;
  }

 private:
  std::vector<Handler> handlers_;
  std::set<size_t> failing_;
  bool reverse_;
  std::vector<std::thread> threads_;  ///< Only the sending thread appends.
  mutable dbsa::Mutex mu_;
  std::vector<size_t> completed_ DBSA_GUARDED_BY(mu_);
};

/// A shard that answers each request of a frame — bare or batched — with
/// `answer(request)`, in the frame's shape.
LoopbackTransport::Handler ScriptedShard(
    std::function<GatherPartial(const ScatterRequest&)> answer) {
  return [answer](const std::string& frame) {
    ScatterBatch batch;
    if (ScatterBatch::Decode(frame, &batch).ok()) {
      GatherBatch reply;
      for (const ScatterRequest& request : batch.requests) {
        reply.partials.push_back(answer(request));
      }
      return reply.Encode();
    }
    ScatterRequest request;
    EXPECT_TRUE(ScatterRequest::Decode(frame, &request).ok());
    return answer(request).Encode();
  };
}

/// `n` probes of one approximation that covers every shard, keyed as
/// regions 0..n-1.
struct EverywhereProbes {
  EverywhereProbes(const core::EngineState& base, size_t n)
      : poly(MakeRectPolygon(0, 0, 4096, 4096)),
        hr(raster::HierarchicalRaster::BuildEpsilon(poly, base.grid, 64.0)),
        level(base.grid.LevelForEpsilon(64.0)) {
    for (size_t j = 0; j < n; ++j) {
      probes.push_back(core::Probe{hr, j, poly, bound, level, nullptr});
    }
  }
  geom::Polygon poly;
  raster::HierarchicalRaster hr;
  int level;
  ErrorBound bound = ErrorBound::Absolute(64.0);
  std::vector<core::Probe> probes;
};

TEST_F(BatchScatterTest, FoldsInAscendingShardOrderWhateverTheCompletionOrder) {
  // Counts 2^53, 1, 1 on shards 0, 1, 2: the ascending fold rounds each
  // +1 away (2^53), the reverse fold keeps them (2^53 + 2) — so the sum
  // shows which order the gather folded in.
  const double big = 9007199254740992.0;  // 2^53.
  const auto sharded = core::ShardedState::Build(base_, {3});
  std::vector<LoopbackTransport::Handler> handlers;
  for (size_t s = 0; s < 3; ++s) {
    handlers.push_back(ScriptedShard([s, big](const ScatterRequest& request) {
      GatherPartial partial;
      partial.kind = request.kind;
      partial.aggregate.count = s == 0 ? big : 1.0;
      return partial;
    }));
  }
  for (const size_t n : {size_t{1}, size_t{4}}) {
    auto transport = std::make_shared<ScriptedTransport>(handlers, std::set<size_t>{},
                                                         /*reverse=*/true);
    ShardRouter router(sharded, transport);
    const EverywhereProbes everywhere(*base_, n);
    const std::vector<join::CellAggregate> got =
        router.ProbeCells(everywhere.probes, {});
    ASSERT_EQ(transport->completed(), (std::vector<size_t>{2, 1, 0})) << "n=" << n;
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i].count, big) << "n=" << n << " probe " << i;
    }
  }
}

TEST_F(BatchScatterTest, ErrorsSurfaceTransportFirstThenProbeOrderThenShard) {
  const auto sharded = core::ShardedState::Build(base_, {2});
  const EverywhereProbes everywhere(*base_, 4);
  // Shard s fails region j with the code `poison[{s, j}]`.
  const auto run = [&](std::map<std::pair<size_t, uint64_t>, StatusCode> poison,
                       std::set<size_t> outage) -> Status {
    std::vector<LoopbackTransport::Handler> handlers;
    for (size_t s = 0; s < 2; ++s) {
      handlers.push_back(ScriptedShard([s, poison](const ScatterRequest& request) {
        const auto it = poison.find({s, request.object.lo});
        if (it == poison.end()) {
          GatherPartial partial;
          partial.kind = request.kind;
          return partial;
        }
        return GatherPartial::FromStatus(
            request.kind, GatherPartial::Disposition::kError,
            Status(it->second, "poisoned region " + std::to_string(request.object.lo)));
      }));
    }
    ShardRouter router(sharded, std::make_shared<ScriptedTransport>(
                                    std::move(handlers), std::move(outage),
                                    /*reverse=*/false));
    try {
      router.ProbeCells(everywhere.probes, {});
    } catch (const StatusException& e) {
      return e.status();
    }
    return Status::OK();
  };
  // Two entries fail: the earlier probe wins, though its shard is higher.
  Status status = run({{{1, 1}, StatusCode::kInternal}, {{0, 3}, StatusCode::kNotFound}}, {});
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("shard 1: poisoned region 1"), std::string::npos)
      << status.ToString();
  // One entry fails on both shards: the lower shard wins.
  status = run({{{1, 2}, StatusCode::kInternal}, {{0, 2}, StatusCode::kNotFound}}, {});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("shard 0: poisoned region 2"), std::string::npos)
      << status.ToString();
  // A transport failure comes before any entry error.
  status = run({{{0, 0}, StatusCode::kNotFound}}, {1});
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("shard 1"), std::string::npos) << status.ToString();
  // Without poison, every probe answers.
  EXPECT_TRUE(run({}, {}).ok());
}

TEST_F(BatchScatterTest, BatchUnawarePeerAnswersTypedNeverWrong) {
  // A peer that predates batches rejects the frame type with one error
  // partial, as its frame parser does for any unknown type; every entry
  // of that frame takes the error. Bare frames still serve.
  const auto sharded = core::ShardedState::Build(base_, {2});
  std::vector<LoopbackTransport::Handler> handlers;
  for (size_t s = 0; s < 2; ++s) {
    handlers.push_back([](const std::string& frame) {
      if (static_cast<uint8_t>(frame[kWireTypeOffset]) ==
          static_cast<uint8_t>(MessageType::kScatterBatch)) {
        return GatherPartial::FromStatus(
                   ScatterRequest::Kind::kAggregateCells,
                   GatherPartial::Disposition::kError,
                   Status::InvalidArgument("bad request: unknown message type 5"))
            .Encode();
      }
      GatherPartial partial;
      partial.aggregate.count = 1.0;
      return partial.Encode();
    });
  }
  ShardRouter router(sharded, std::make_shared<LoopbackTransport>(std::move(handlers)));
  const EverywhereProbes many(*base_, 3);
  try {
    router.ProbeCells(many.probes, {});
    ADD_FAILURE() << "a batch-unaware peer produced an answer";
  } catch (const StatusException& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(e.status().message().find("unknown message type"), std::string::npos);
  }
  const EverywhereProbes one(*base_, 1);
  EXPECT_EQ(router.ProbeCells(one.probes, {}).at(0).count, 2.0);
}

}  // namespace
}  // namespace dbsa::service
