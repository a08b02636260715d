// Cluster conformance: a snapshot-loaded cluster is indistinguishable
// from a rebuild-from-scratch cluster — byte for byte, across the full
// acceptance matrix, through failover.
//
//   * MATRIX: K in {1,2,7,16} x threads {serial,4,8} x bounds {Absolute,
//     AtLevel, Exact} x every query kind: the state assembled from
//     snapshot files (client + K slices, via AssembleClusterState)
//     answers byte-identically to the state built from the dataset —
//     in-process AND through a loopback shard cluster whose servers are
//     pinned to the snapshot's epoch.
//   * FAILOVER: a socket cluster where primaries and replicas serve the
//     same snapshot-loaded slices at epoch E; a mid-query primary kill
//     fails over to the replica and the payload does not change by a
//     bit — read-your-epoch across the switch.
//   * SKEW: a client pinned to epoch E' != E gets a TYPED
//     kFailedPrecondition from an epoch-E server (never a silent answer
//     from the wrong dataset generation); the wildcard (epoch 0) on
//     either side keeps legacy configurations serving.
//
// docs/snapshot-format.md (epoch policy) and docs/wire-format.md (v5
// epoch fields) are the contracts pinned here.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/dbsa.h"
#include "data/cluster_demo.h"
#include "envelope_util.h"
#include "service/query_service.h"
#include "service/shard_server.h"
#include "service/socket_cluster.h"
#include "service/socket_transport.h"
#include "service/thread_pool.h"
#include "service/transport.h"
#include "snapshot/snapshot.h"
#include "test_util.h"
#include "transport_util.h"

namespace dbsa::service {
namespace {

using dbsa::testing::ExecuteAll;
using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using dbsa::testing::Roundtrip;
using dbsa::testing::Submission;

constexpr uint64_t kEpoch = 7;

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

void ExpectRangeIdentical(const join::ResultRange& got,
                          const join::ResultRange& want,
                          const std::string& label) {
  EXPECT_EQ(got.estimate, want.estimate) << label;
  EXPECT_EQ(got.lo, want.lo) << label;
  EXPECT_EQ(got.hi, want.hi) << label;
}

/// Round-trips `sharded` through the snapshot interchange: encode the
/// client file + every slice file, parse them back, assemble. What a
/// snapshot-loaded cluster actually serves from.
std::shared_ptr<const core::ShardedState> ThroughSnapshots(
    const core::ShardedState& sharded, uint64_t epoch) {
  StatusOr<snapshot::SnapshotReader> client =
      snapshot::SnapshotReader::Parse(snapshot::EncodeClientSnapshot(sharded, epoch));
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  std::vector<snapshot::SnapshotReader> slices;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    StatusOr<snapshot::SnapshotReader> slice = snapshot::SnapshotReader::Parse(
        snapshot::EncodeShardSnapshot(sharded, s, epoch));
    EXPECT_TRUE(slice.ok()) << slice.status().ToString();
    slices.push_back(*slice);
  }
  StatusOr<std::shared_ptr<const core::ShardedState>> assembled =
      snapshot::AssembleClusterState(*client, slices);
  EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
  return *assembled;
}

/// Loopback shard cluster over `sharded` with every server pinned to
/// `epoch`, and a router pinned the same way.
struct EpochedLoopback {
  std::vector<std::shared_ptr<ShardServer>> servers;
  std::shared_ptr<LoopbackTransport> transport;
  std::unique_ptr<ShardRouter> router;
};

EpochedLoopback MakeEpochedLoopback(
    const std::shared_ptr<const core::ShardedState>& sharded, uint64_t epoch) {
  EpochedLoopback seam;
  std::vector<LoopbackTransport::Handler> handlers;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    const core::ShardedState::Shard& shard = sharded->shard(s);
    ShardServer::Options options;
    options.shard_index = s;
    options.serving_epoch = epoch;
    seam.servers.push_back(
        std::make_shared<ShardServer>(shard.state, shard.global_ids, options));
    handlers.push_back([server = seam.servers.back()](const std::string& request) {
      return server->Handle(request);
    });
  }
  seam.transport = std::make_shared<LoopbackTransport>(std::move(handlers));
  seam.router = std::make_unique<ShardRouter>(sharded, seam.transport);
  seam.router->set_epoch(epoch);
  return seam;
}

class ClusterConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::ClusterDemoConfig config;  // 20000 points, 24 regions, 4096^2.
    base_ = core::BuildEngineState(data::ClusterDemoPoints(config),
                                   data::ClusterDemoRegions(config));
  }

  std::shared_ptr<const core::EngineState> base_;
};

// ---- the acceptance matrix --------------------------------------------
// Snapshot-loaded must be byte-identical to rebuilt at every (K, threads,
// bound, kind) — in-process scatter-gather AND through epoch-pinned
// loopback servers. Mode pinned to kPointIndex for aggregates so that
// every one of them probes the shards (kAuto may resolve to the exact
// plan, which never leaves the client).
TEST_F(ClusterConformanceTest, SnapshotLoadedMatchesRebuiltEverywhere) {
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  // Prunes to zero shards at every K: a snapshot-loaded cluster must
  // serialize nothing identically too.
  const geom::Polygon empty_rect = MakeRectPolygon(4000.5, 4000.5, 4095.0, 4095.0);
  const std::vector<geom::Polygon> polys = {star, corner, empty_rect};
  const std::vector<query::ErrorBound> bounds = {
      query::ErrorBound::Absolute(8.0), query::ErrorBound::AtLevel(6),
      query::ErrorBound::Exact()};

  for (const size_t k : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
    core::ShardingOptions sharding;
    sharding.num_shards = k;
    const auto rebuilt = core::ShardedState::Build(base_, sharding);
    const auto loaded = ThroughSnapshots(*rebuilt, kEpoch);
    ASSERT_NE(loaded, nullptr);
    ASSERT_TRUE(loaded->has_slices());
    EpochedLoopback loop = MakeEpochedLoopback(loaded, kEpoch);

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
      for (const query::ErrorBound& bound : bounds) {
        const std::string label =
            "k=" + std::to_string(k) + " threads=" + std::to_string(threads) +
            " bound=" + std::string(query::BoundKindName(bound.kind));

        for (const join::AggKind agg : {join::AggKind::kCount, join::AggKind::kSum}) {
          const core::Attr attr =
              agg == join::AggKind::kSum ? core::Attr::kFare : core::Attr::kNone;
          const core::AggregateAnswer want = core::ExecuteAggregate(
              *rebuilt, agg, attr, bound, core::Mode::kPointIndex, hooks);
          const core::AggregateAnswer in_process = core::ExecuteAggregate(
              *loaded, agg, attr, bound, core::Mode::kPointIndex, hooks);
          const core::AggregateAnswer over_loopback = ExecuteAggregate(
              *loop.router, agg, attr, bound, core::Mode::kPointIndex, hooks);
          ExpectRowsIdentical(in_process, want, label + " agg(loaded vs rebuilt)");
          ExpectRowsIdentical(over_loopback, want,
                              label + " agg(epoch-pinned loopback vs rebuilt)");
        }

        for (size_t p = 0; p < polys.size(); ++p) {
          const std::string poly_label = label + " poly=" + std::to_string(p);
          const core::CountAnswer count_want =
              core::ExecuteCount(*rebuilt, polys[p], bound, hooks);
          const core::CountAnswer count_loaded =
              core::ExecuteCount(*loaded, polys[p], bound, hooks);
          const core::CountAnswer count_loopback =
              ExecuteCount(*loop.router, polys[p], bound, hooks);
          ExpectRangeIdentical(count_loaded.range, count_want.range,
                               poly_label + " count(loaded vs rebuilt)");
          ExpectRangeIdentical(count_loopback.range, count_want.range,
                               poly_label + " count(loopback vs rebuilt)");

          const core::SelectAnswer select_want =
              core::ExecuteSelect(*rebuilt, polys[p], bound, hooks);
          const core::SelectAnswer select_loaded =
              core::ExecuteSelect(*loaded, polys[p], bound, hooks);
          const core::SelectAnswer select_loopback =
              ExecuteSelect(*loop.router, polys[p], bound, hooks);
          EXPECT_EQ(select_loaded.ids, select_want.ids)
              << poly_label << " select(loaded vs rebuilt)";
          EXPECT_EQ(select_loopback.ids, select_want.ids)
              << poly_label << " select(loopback vs rebuilt)";
        }
      }
    }
  }
}

// ---- failover at one epoch --------------------------------------------
// Primaries and replicas serve the same snapshot-loaded slices at epoch
// E. A mid-query primary kill must fail over to the replica with the
// payload unchanged — the epoch pin guarantees the replica answer comes
// from the same dataset generation, not merely the same shard index.
TEST_F(ClusterConformanceTest, MidQueryPrimaryKillFailsOverAtTheSameEpoch) {
  const size_t k = 4;
  core::ShardingOptions sharding;
  sharding.num_shards = k;
  const auto rebuilt = core::ShardedState::Build(base_, sharding);
  const auto loaded = ThroughSnapshots(*rebuilt, kEpoch);

  std::vector<std::shared_ptr<std::atomic<bool>>> drop_primary;
  InProcessShardClusterOptions options;
  options.with_replicas = true;
  options.serving_epoch = kEpoch;
  options.wrap_primary = [&drop_primary](size_t, ShardListener::Handler inner) {
    drop_primary.push_back(std::make_shared<std::atomic<bool>>(false));
    const auto drop = drop_primary.back();
    return ShardListener::Handler([inner, drop](const std::string& request) {
      if (drop->load()) return std::string();  // Drop the connection.
      return inner(request);
    });
  };
  InProcessShardCluster cluster =
      MakeInProcessShardClusterFromState(loaded, options);
  auto transport = std::make_shared<SocketTransport>(cluster.placement,
                                                     SocketTransport::Options{});
  ShardRouter router(cluster.sharded, transport);
  router.set_epoch(kEpoch);

  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 500, 1100, 14, 3);
  const query::ErrorBound bound = query::ErrorBound::Absolute(8.0);
  const core::CountAnswer want = core::ExecuteCount(*rebuilt, star, bound, {});
  const core::CountAnswer before = ExecuteCount(router, star, bound, {});
  ExpectRangeIdentical(before.range, want.range, "healthy snapshot cluster");

  // Every primary now reads the request and kills the connection — the
  // client must fail over to the snapshot-loaded replica, and the answer
  // must not change by a bit.
  for (const auto& drop : drop_primary) drop->store(true);
  const core::CountAnswer after = ExecuteCount(router, star, bound, {});
  ExpectRangeIdentical(after.range, want.range, "served by replicas");
  EXPECT_GE(transport->stats().failovers, 1u);
  EXPECT_EQ(transport->stats().transport_errors, 0u);

  // The epoch guarantee is effective, not incidental: the replicas are
  // REJECTING other generations while serving ours.
  ScatterRequest stale;
  stale.kind = ScatterRequest::Kind::kAggregateCells;
  stale.has_cells = true;
  stale.epoch = kEpoch + 1;
  try {
    std::string response = Roundtrip(*transport, 0, stale.Encode());
    GatherPartial partial;
    ASSERT_TRUE(GatherPartial::Decode(response, &partial).ok());
    EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
    EXPECT_EQ(partial.code, StatusCode::kFailedPrecondition);
    EXPECT_EQ(partial.epoch, kEpoch) << "rejection must name the serving epoch";
  } catch (const StatusException& e) {
    FAIL() << "skew must be a typed partial, not a transport error: "
           << e.status().ToString();
  }
}

// ---- epoch semantics on the wire --------------------------------------

TEST_F(ClusterConformanceTest, EpochSkewIsTypedAndWildcardsKeepServing) {
  core::ShardingOptions sharding;
  sharding.num_shards = 2;
  const auto loaded = ThroughSnapshots(*core::ShardedState::Build(base_, sharding),
                                       kEpoch);

  // Server pinned to kEpoch.
  const core::ShardedState::Shard& shard = loaded->shard(0);
  ShardServer::Options pinned;
  pinned.serving_epoch = kEpoch;
  ShardServer server(shard.state, shard.global_ids, pinned);

  ScatterRequest request;
  request.kind = ScatterRequest::Kind::kAggregateCells;
  request.has_cells = true;

  // Matching pin: served, and the partial echoes the serving epoch.
  request.epoch = kEpoch;
  {
    GatherPartial partial;
    ASSERT_TRUE(GatherPartial::Decode(server.Handle(request.Encode()), &partial).ok());
    EXPECT_EQ(partial.status, GatherPartial::Disposition::kOk);
    EXPECT_EQ(partial.epoch, kEpoch);
  }

  // Wildcard request (epoch 0): served by a pinned server — the legacy
  // client shape keeps working against snapshot-loaded deployments.
  request.epoch = 0;
  {
    GatherPartial partial;
    ASSERT_TRUE(GatherPartial::Decode(server.Handle(request.Encode()), &partial).ok());
    EXPECT_EQ(partial.status, GatherPartial::Disposition::kOk);
    EXPECT_EQ(partial.epoch, kEpoch) << "every partial carries the serving epoch";
  }

  // Pinned to another generation: TYPED rejection naming both epochs.
  request.epoch = kEpoch + 3;
  {
    GatherPartial partial;
    ASSERT_TRUE(GatherPartial::Decode(server.Handle(request.Encode()), &partial).ok());
    EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
    EXPECT_EQ(partial.code, StatusCode::kFailedPrecondition);
    EXPECT_EQ(partial.epoch, kEpoch);
    EXPECT_EQ(server.stats().epoch_rejects, 1u);
  }

  // Wildcard server (epoch 0, the rebuild-from-flags shape): serves any
  // pin, echoes epoch 0.
  ShardServer wildcard(shard.state, shard.global_ids, ShardServer::Options());
  request.epoch = kEpoch + 3;
  {
    GatherPartial partial;
    ASSERT_TRUE(
        GatherPartial::Decode(wildcard.Handle(request.Encode()), &partial).ok());
    EXPECT_EQ(partial.status, GatherPartial::Disposition::kOk);
    EXPECT_EQ(partial.epoch, 0u);
  }

  // Through the router: a client pinned to the wrong generation gets the
  // typed failure end to end (StatusException from the gather).
  EpochedLoopback seam = MakeEpochedLoopback(loaded, kEpoch);
  seam.router->set_epoch(kEpoch + 1);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 500, 1100, 14, 3);
  try {
    ExecuteCount(*seam.router, star, query::ErrorBound::Absolute(8.0), {});
    FAIL() << "expected StatusException";
  } catch (const StatusException& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kFailedPrecondition)
        << e.status().ToString();
  }
}

// ---- the serving layer ------------------------------------------------
// QueryService over a preassembled snapshot state: results byte-identical
// to a service that rebuilt from the dataset, while every shard request
// carries the pinned epoch.
TEST_F(ClusterConformanceTest, QueryServiceOverSnapshotStateMatchesRebuilt) {
  const size_t k = 4;
  core::ShardingOptions sharding;
  sharding.num_shards = k;
  const auto rebuilt = core::ShardedState::Build(base_, sharding);
  const auto loaded = ThroughSnapshots(*rebuilt, kEpoch);

  ServiceOptions rebuilt_options;
  rebuilt_options.num_threads = 4;
  rebuilt_options.num_shards = k;
  rebuilt_options.use_transport = true;
  QueryService rebuilt_service(base_, rebuilt_options);

  ServiceOptions snapshot_options = rebuilt_options;
  snapshot_options.serving_epoch = kEpoch;
  QueryService snapshot_service(loaded, snapshot_options);

  const geom::Polygon star = MakeStarPolygon({1400, 2600}, 300, 800, 12, 5);
  ExecOptions abs;
  abs.bound = query::ErrorBound::Absolute(8.0);
  abs.mode = core::Mode::kPointIndex;
  ExecOptions exact;
  exact.bound = query::ErrorBound::Exact();
  std::vector<Submission> workload;
  for (const ExecOptions& options : {abs, exact}) {
    workload.push_back(
        {Query::Aggregate(join::AggKind::kSum, core::Attr::kFare), options, "sum"});
    workload.push_back({Query::Count(star), options, "count"});
    workload.push_back({Query::Select(star), options, "select"});
  }
  const std::vector<Result> got = ExecuteAll(snapshot_service, workload);
  const std::vector<Result> want = ExecuteAll(rebuilt_service, workload);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << i << ": " << got[i].status.ToString();
    ASSERT_TRUE(want[i].ok()) << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    switch (want[i].kind) {
      case QueryKind::kAggregate:
        ExpectRowsIdentical(got[i].aggregate, want[i].aggregate,
                            "query " + std::to_string(i));
        break;
      case QueryKind::kCount:
        ExpectRangeIdentical(got[i].range, want[i].range,
                             "query " + std::to_string(i));
        break;
      case QueryKind::kSelect:
        EXPECT_EQ(got[i].ids, want[i].ids) << i;
        break;
    }
  }
}

}  // namespace
}  // namespace dbsa::service
