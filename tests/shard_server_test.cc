// Tests for the shard-server message seam: LoopbackTransport execution
// must return results BYTE-IDENTICAL to the in-process ShardedState
// engine for all three query kinds at every (shard count, thread count)
// combination, including queries that prune to zero shards —
// serialization must not cost a single bit. Plus the per-shard HR cache:
// shard-aware WarmCache routing, reference-request hits, eviction and
// checksum-mismatch fallbacks, and malformed-message hardening.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
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
  const ObjectKey object = PolygonFingerprint(star);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 4.0);
  const int level = base_->grid.LevelForEpsilon(4.0);

  const join::CellAggregate cold =
      seam.router->ScatterGather(hr, &object, level,
                                 query::ErrorBound::Absolute(4.0), {}, nullptr);
  const uint64_t cold_messages = LoopbackCounter(*seam.registry, "messages");
  const uint64_t cold_bytes = LoopbackCounter(*seam.registry, "request_bytes");
  const join::CellAggregate warm =
      seam.router->ScatterGather(hr, &object, level,
                                 query::ErrorBound::Absolute(4.0), {}, nullptr);
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
  const ObjectKey object = PolygonFingerprint(star);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 4.0);
  const int level = base_->grid.LevelForEpsilon(4.0);

  const join::CellAggregate first =
      seam.router->ScatterGather(hr, &object, level,
                                 query::ErrorBound::Absolute(4.0), {}, nullptr);
  const join::CellAggregate second =
      seam.router->ScatterGather(hr, &object, level,
                                 query::ErrorBound::Absolute(4.0), {}, nullptr);
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

}  // namespace
}  // namespace dbsa::service
