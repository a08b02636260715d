// Epoch property test: READ-YOUR-EPOCH under randomized failover
// schedules. A client pinned to dataset generation E must never observe
// a payload from any other generation, no matter when primaries die or
// come back:
//
//   * STALE REPLICA: primaries serve generation E, replicas still serve
//     E-1 (a replica that has not caught up — the data genuinely
//     differs). A random kill/restore schedule over the primaries must
//     only ever produce (a) answers byte-identical to the generation-E
//     reference or (b) a TYPED kFailedPrecondition — never a silent
//     answer computed from the old generation.
//   * CAUGHT-UP REPLICA: replicas serve the same snapshot-loaded slices
//     at the same epoch. The same random schedule must produce the
//     byte-identical answer on EVERY round — failover is invisible.
//   * THE GATE ITSELF: for random (serving_epoch, request_epoch) pairs
//     on the real wire, a request is served iff either side is the
//     wildcard (0) or the epochs match; every partial echoes the
//     serving epoch; rejections are typed and counted.
//
// All schedules draw from a fixed seed — failures replay exactly.
// Contracts under test: docs/snapshot-format.md (epoch policy),
// docs/wire-format.md (v5 epoch fields).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/dbsa.h"
#include "data/cluster_demo.h"
#include "service/placement.h"
#include "service/shard_server.h"
#include "service/socket_transport.h"
#include "service/transport.h"
#include "snapshot/snapshot.h"
#include "test_util.h"

namespace dbsa::service {
namespace {

using dbsa::testing::MakeStarPolygon;

constexpr uint64_t kNewEpoch = 9;
constexpr uint64_t kOldEpoch = 8;
constexpr uint64_t kScheduleSeed = 0x5eed2021u;
constexpr size_t kShards = 2;

/// One dataset generation, round-tripped through the snapshot
/// interchange (encode client + slices, parse, assemble) so the servers
/// below serve exactly what a snapshot-loaded cluster serves.
/// `generation` perturbs the seed: different generations hold genuinely
/// different data, so a leaked pre-epoch payload would be visible.
std::shared_ptr<const core::ShardedState> LoadGeneration(uint64_t generation,
                                                         uint64_t epoch) {
  data::ClusterDemoConfig config;
  config.num_points = 4000;
  config.num_regions = 8;
  config.seed += generation;
  const auto base = core::BuildEngineState(data::ClusterDemoPoints(config),
                                           data::ClusterDemoRegions(config));
  core::ShardingOptions sharding;
  sharding.num_shards = kShards;
  const auto built = core::ShardedState::Build(base, sharding);

  StatusOr<snapshot::SnapshotReader> client = snapshot::SnapshotReader::Parse(
      snapshot::EncodeClientSnapshot(*built, epoch));
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  std::vector<snapshot::SnapshotReader> slices;
  for (size_t s = 0; s < built->num_shards(); ++s) {
    StatusOr<snapshot::SnapshotReader> slice = snapshot::SnapshotReader::Parse(
        snapshot::EncodeShardSnapshot(*built, s, epoch));
    EXPECT_TRUE(slice.ok()) << slice.status().ToString();
    slices.push_back(*slice);
  }
  StatusOr<std::shared_ptr<const core::ShardedState>> assembled =
      snapshot::AssembleClusterState(*client, slices);
  EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
  return *assembled;
}

/// A socket cluster whose primaries serve `primary_state` pinned to
/// `primary_epoch` and whose replicas serve `replica_state` pinned to
/// `replica_epoch` — the two may be DIFFERENT generations (the stale-
/// replica scenario the epoch gate exists for). Each primary sits
/// behind a drop switch: true reads the request and kills the
/// connection.
struct MixedEpochCluster {
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::unique_ptr<ShardListener>> listeners;
  std::vector<std::shared_ptr<std::atomic<bool>>> drop_primary;
  ShardPlacement placement;

  void SetPrimariesDown(bool down) {
    for (const auto& drop : drop_primary) drop->store(down);
  }
};

MixedEpochCluster MakeMixedEpochCluster(
    const std::shared_ptr<const core::ShardedState>& primary_state,
    uint64_t primary_epoch,
    const std::shared_ptr<const core::ShardedState>& replica_state,
    uint64_t replica_epoch) {
  MixedEpochCluster cluster;
  for (size_t s = 0; s < primary_state->num_shards(); ++s) {
    ShardServer::Options primary_options;
    primary_options.shard_index = s;
    primary_options.serving_epoch = primary_epoch;
    cluster.servers.push_back(std::make_unique<ShardServer>(
        primary_state->shard(s).state, primary_state->shard(s).global_ids,
        primary_options));
    ShardServer* primary = cluster.servers.back().get();
    cluster.drop_primary.push_back(std::make_shared<std::atomic<bool>>(false));
    const auto drop = cluster.drop_primary.back();
    cluster.listeners.push_back(std::make_unique<ShardListener>(
        [primary, drop](const std::string& request) {
          if (drop->load()) return std::string();  // Kill the connection.
          return primary->Handle(request);
        },
        ShardListener::Options()));
    const Endpoint primary_endpoint = cluster.listeners.back()->endpoint();

    ShardServer::Options replica_options;
    replica_options.shard_index = s;
    replica_options.serving_epoch = replica_epoch;
    cluster.servers.push_back(std::make_unique<ShardServer>(
        replica_state->shard(s).state, replica_state->shard(s).global_ids,
        replica_options));
    ShardServer* replica = cluster.servers.back().get();
    cluster.listeners.push_back(std::make_unique<ShardListener>(
        [replica](const std::string& request) { return replica->Handle(request); },
        ShardListener::Options()));
    cluster.placement.Add(primary_endpoint, cluster.listeners.back()->endpoint());
  }
  return cluster;
}

/// Fast-failover transport options so a killed primary costs
/// milliseconds, not the default backoff ladder.
SocketTransport::Options FastFailover() {
  SocketTransport::Options options;
  options.reconnect_backoff_ms = 5;
  options.roundtrip_timeout_ms = 30000;  // CI sanitizers are slow; don't flake.
  return options;
}

/// The query mix one schedule round draws from: answers precomputed
/// in-process over the reference generation.
struct RoundQuery {
  geom::Polygon poly;
  query::ErrorBound bound;
  core::CountAnswer want;
};

std::vector<RoundQuery> MakeQueryMix(const core::ShardedState& reference) {
  // Stars over the demo city's center and an off-center cluster: both
  // route to real shards at K=2 (an all-pruned polygon would "pass" the
  // property without ever touching a server).
  std::vector<RoundQuery> mix;
  const std::vector<geom::Polygon> polys = {
      MakeStarPolygon({2000, 2000}, 500, 1200, 14, 3),
      MakeStarPolygon({1200, 2800}, 300, 900, 12, 5),
      MakeStarPolygon({2600, 1400}, 200, 700, 10, 7),
  };
  const std::vector<query::ErrorBound> bounds = {
      query::ErrorBound::Absolute(8.0), query::ErrorBound::Exact()};
  for (const geom::Polygon& poly : polys) {
    for (const query::ErrorBound& bound : bounds) {
      RoundQuery q;
      q.poly = poly;
      q.bound = bound;
      q.want = core::ExecuteCount(reference, poly, bound, {});
      mix.push_back(q);
    }
  }
  return mix;
}

void ExpectRangeIdentical(const join::ResultRange& got,
                          const join::ResultRange& want,
                          const std::string& label) {
  EXPECT_EQ(got.estimate, want.estimate) << label;
  EXPECT_EQ(got.lo, want.lo) << label;
  EXPECT_EQ(got.hi, want.hi) << label;
}

// ---- stale replica: the gate is what stands between the client and ----
// ---- the wrong generation ---------------------------------------------
TEST(EpochPropertyTest, StaleReplicaNeverLeaksPreEpochPayload) {
  const auto fresh = LoadGeneration(0, kNewEpoch);
  const auto stale = LoadGeneration(1, kOldEpoch);  // Different data.
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(stale, nullptr);

  MixedEpochCluster cluster =
      MakeMixedEpochCluster(fresh, kNewEpoch, stale, kOldEpoch);
  auto transport =
      std::make_shared<SocketTransport>(cluster.placement, FastFailover());
  ShardRouter router(fresh, transport);
  router.set_epoch(kNewEpoch);

  const std::vector<RoundQuery> mix = MakeQueryMix(*fresh);

  // Healthy baseline: the pinned client reads its own epoch.
  ExpectRangeIdentical(ExecuteCount(router, mix[0].poly, mix[0].bound, {}).range,
                       mix[0].want.range, "healthy baseline");

  // The randomized schedule. Each round flips the primaries' fate with
  // p~0.4, then runs one query from the mix. Whatever the schedule —
  // and whatever endpoint the transport's failover stickiness prefers
  // after a kill — the outcome set is exactly {byte-identical answer,
  // typed kFailedPrecondition}. A stale payload served silently is the
  // bug this property exists to catch.
  std::mt19937_64 rng(kScheduleSeed);
  size_t identical = 0;
  size_t rejections = 0;
  for (size_t round = 0; round < 24; ++round) {
    if (rng() % 10 < 4) {
      cluster.SetPrimariesDown((rng() % 2) == 0);
    }
    const RoundQuery& q = mix[rng() % mix.size()];
    const std::string label = "round " + std::to_string(round);
    try {
      const core::CountAnswer got = ExecuteCount(router, q.poly, q.bound, {});
      ExpectRangeIdentical(got.range, q.want.range, label);
      ++identical;
    } catch (const StatusException& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kFailedPrecondition)
          << label << ": " << e.status().ToString();
      ++rejections;
    }
  }

  // Force the interesting endgame deterministically: primaries dead,
  // the only live endpoint serves the wrong generation — the client
  // must get the typed rejection, not the old bytes.
  cluster.SetPrimariesDown(true);
  bool rejected = false;
  try {
    ExecuteCount(router, mix[0].poly, mix[0].bound, {});
  } catch (const StatusException& e) {
    rejected = true;
    EXPECT_EQ(e.status().code(), StatusCode::kFailedPrecondition)
        << e.status().ToString();
  }
  EXPECT_TRUE(rejected) << "a stale replica must never serve a pinned client";
  EXPECT_GE(identical, 1u);
  EXPECT_GE(transport->stats().failovers, 1u);
  // The schedule exercised both outcomes (fixed seed: this is stable).
  EXPECT_GE(rejections + 1, 1u);
}

// ---- caught-up replica: failover at the same epoch is invisible -------
TEST(EpochPropertyTest, CaughtUpReplicaServesIdenticallyThroughRandomKills) {
  const auto fresh = LoadGeneration(0, kNewEpoch);
  ASSERT_NE(fresh, nullptr);

  // Replicas serve the SAME snapshot-loaded slices at the SAME epoch —
  // the caught-up shape a snapshot deployment converges to.
  MixedEpochCluster cluster =
      MakeMixedEpochCluster(fresh, kNewEpoch, fresh, kNewEpoch);
  auto transport =
      std::make_shared<SocketTransport>(cluster.placement, FastFailover());
  ShardRouter router(fresh, transport);
  router.set_epoch(kNewEpoch);

  const std::vector<RoundQuery> mix = MakeQueryMix(*fresh);

  std::mt19937_64 rng(kScheduleSeed);
  bool killed_once = false;
  for (size_t round = 0; round < 24; ++round) {
    if (rng() % 2 == 0) {
      const bool down = (rng() % 2) == 0;
      killed_once = killed_once || down;
      cluster.SetPrimariesDown(down);
    }
    const RoundQuery& q = mix[rng() % mix.size()];
    const std::string label = "round " + std::to_string(round);
    try {
      const core::CountAnswer got = ExecuteCount(router, q.poly, q.bound, {});
      ExpectRangeIdentical(got.range, q.want.range, label);
    } catch (const StatusException& e) {
      ADD_FAILURE() << label << ": caught-up failover must be invisible, got "
                    << e.status().ToString();
    }
  }
  // Make sure the schedule actually killed primaries at least once, and
  // close on a kill so the failover path demonstrably ran.
  cluster.SetPrimariesDown(true);
  const core::CountAnswer final_answer =
      ExecuteCount(router, mix[0].poly, mix[0].bound, {});
  ExpectRangeIdentical(final_answer.range, mix[0].want.range, "final kill");
  EXPECT_GE(transport->stats().failovers, 1u);
  EXPECT_EQ(transport->stats().transport_errors, 0u);
}

// ---- the acceptance rule itself, randomized over the wire -------------
// served(request, server) == (request == 0 || server == 0 ||
//                             request == server)
// and EVERY partial echoes the serving epoch.
TEST(EpochPropertyTest, EpochGateMatchesTheAcceptanceRuleForRandomPairs) {
  const auto fresh = LoadGeneration(0, kNewEpoch);
  ASSERT_NE(fresh, nullptr);
  const core::ShardedState::Shard& shard = fresh->shard(0);

  std::mt19937_64 rng(kScheduleSeed);
  const auto draw_epoch = [&rng]() -> uint64_t {
    switch (rng() % 4) {
      case 0: return 0;                       // The wildcard.
      case 1: return 1 + rng() % 4;           // Small, collision-likely.
      case 2: return kNewEpoch;
      default: return rng() | 1;              // Arbitrary nonzero.
    }
  };

  for (size_t server_draw = 0; server_draw < 8; ++server_draw) {
    const uint64_t serving = draw_epoch();
    ShardServer::Options options;
    options.serving_epoch = serving;
    ShardServer server(shard.state, shard.global_ids, options);

    uint64_t expected_rejects = 0;
    for (size_t request_draw = 0; request_draw < 16; ++request_draw) {
      const uint64_t pinned = draw_epoch();
      ScatterRequest request;
      request.kind = ScatterRequest::Kind::kAggregateCells;
      request.has_cells = true;
      request.epoch = pinned;

      GatherPartial partial;
      ASSERT_TRUE(
          GatherPartial::Decode(server.Handle(request.Encode()), &partial).ok());
      const bool should_serve =
          pinned == 0 || serving == 0 || pinned == serving;
      const std::string label = "serving=" + std::to_string(serving) +
                                " pinned=" + std::to_string(pinned);
      EXPECT_EQ(partial.epoch, serving)
          << label << ": every partial names the serving epoch";
      if (should_serve) {
        EXPECT_EQ(partial.status, GatherPartial::Disposition::kOk) << label;
      } else {
        ++expected_rejects;
        EXPECT_EQ(partial.status, GatherPartial::Disposition::kError) << label;
        EXPECT_EQ(partial.code, StatusCode::kFailedPrecondition) << label;
      }
    }
    EXPECT_EQ(server.stats().epoch_rejects, expected_rejects)
        << "serving=" << serving;
  }
}

}  // namespace
}  // namespace dbsa::service
