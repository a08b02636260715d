// Socket cluster demo: the shard seam over REAL TCP connections.
//
// Two modes, one client:
//
//   self-contained (default)    spawns a 4-shard cluster inside this
//       process — each shard's ShardServer behind a ShardListener on an
//       ephemeral localhost port, plus a replica listener per shard —
//       then queries it through a QueryService in socket mode and
//       proves the results byte-identical to the loopback seam. Finally
//       it KILLS one shard's primary listener and repeats the queries:
//       the transport fails over to the replica, results unchanged.
//
//   --placement=FILE            connects to an EXTERNAL cluster (one
//       shard_server_main process per line of the placement file; see
//       docs/operations.md). Dataset flags must match the servers'.
//       This is the client half of scripts/run_socket_cluster_smoke.sh.
//
// Exit code 0 iff every query succeeded AND every socket-mode payload
// was byte-identical to the loopback reference — so CI can run this as
// the end-to-end socket smoke.
//
// Build & run:  ./build/example_socket_cluster_demo

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/dbsa.h"
#include "data/cluster_demo.h"
#include "service/query_service.h"
#include "service/socket_cluster.h"
#include "service/socket_transport.h"
#include "telemetry/trace.h"
#include "util/flags.h"

namespace {

using dbsa::util::FlagValue;

/// The demo workload: every query kind under every bound regime.
std::vector<uint64_t> SubmitWorkload(dbsa::service::QueryService& service,
                                     const dbsa::geom::Polygon& viewport) {
  using namespace dbsa;
  std::vector<uint64_t> tickets;
  service::ExecOptions within_8;
  within_8.bound = query::ErrorBound::Absolute(8.0);
  // Pin the point index so every aggregate crosses the shard seam (kAuto
  // may resolve to the exact plan, which never leaves the client).
  within_8.mode = core::Mode::kPointIndex;
  service::ExecOptions at_level = within_8;
  at_level.bound = query::ErrorBound::AtLevel(6);
  service::ExecOptions exact;
  exact.bound = query::ErrorBound::Exact();

  for (const service::ExecOptions& options : {within_8, at_level, exact}) {
    tickets.push_back(service.Submit(
        service::Query::Aggregate(join::AggKind::kCount), options));
    tickets.push_back(service.Submit(
        service::Query::Aggregate(join::AggKind::kSum, core::Attr::kFare),
        options));
    tickets.push_back(service.Submit(service::Query::Count(viewport), options));
    tickets.push_back(service.Submit(service::Query::Select(viewport), options));
  }
  return tickets;
}

/// Byte-level equality of two Result payloads (aggregate rows, count
/// ranges, selection ids — exactly the contract the seam guarantees).
bool SameResult(const dbsa::service::Result& got, const dbsa::service::Result& want,
                std::string* why) {
  using namespace dbsa;
  if (!got.ok() || !want.ok()) {
    *why = "status " + got.status.ToString() + " vs " + want.status.ToString();
    return got.ok() == want.ok() && got.status.code() == want.status.code();
  }
  if (got.kind != want.kind) {
    *why = "kind mismatch";
    return false;
  }
  switch (got.kind) {
    case service::QueryKind::kAggregate: {
      const auto& g = got.aggregate.rows;
      const auto& w = want.aggregate.rows;
      if (g.size() != w.size()) {
        *why = "row count";
        return false;
      }
      for (size_t r = 0; r < w.size(); ++r) {
        if (g[r].region != w[r].region || g[r].value != w[r].value ||
            g[r].lo != w[r].lo || g[r].hi != w[r].hi) {
          *why = "row " + std::to_string(r);
          return false;
        }
      }
      return true;
    }
    case service::QueryKind::kCount:
      if (got.range.estimate != want.range.estimate ||
          got.range.lo != want.range.lo || got.range.hi != want.range.hi) {
        *why = "count range";
        return false;
      }
      return true;
    case service::QueryKind::kSelect:
      if (got.ids != want.ids) {
        *why = "selection ids";
        return false;
      }
      return true;
  }
  *why = "unknown kind";
  return false;
}

/// Runs the workload on both services and compares ticket by ticket.
bool RunAndCompare(dbsa::service::QueryService& socket_service,
                   dbsa::service::QueryService& loopback_service,
                   const dbsa::geom::Polygon& viewport, const char* label) {
  SubmitWorkload(socket_service, viewport);
  SubmitWorkload(loopback_service, viewport);
  const auto got = socket_service.Drain();
  const auto want = loopback_service.Drain();
  if (got.size() != want.size()) {
    std::printf("[%s] DRAIN SIZE MISMATCH %zu vs %zu\n", label, got.size(),
                want.size());
    return false;
  }
  size_t identical = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    std::string why;
    if (!got[i].ok()) {
      std::printf("[%s] query %zu failed: %s\n", label, i,
                  got[i].status.ToString().c_str());
      return false;
    }
    if (!SameResult(got[i], want[i], &why)) {
      std::printf("[%s] query %zu DIVERGED (%s)\n", label, i, why.c_str());
      return false;
    }
    ++identical;
  }
  std::printf("[%s] %zu/%zu results byte-identical to the loopback seam\n",
              label, identical, want.size());
  if (!got.empty()) {
    // Every query minted a trace id (identity travels to every shard in
    // the v3 frames); print one so an operator can grep it out of a
    // SLOW_QUERY / SLOW_SHARD line on the servers.
    std::printf("[%s] sample trace id: %s\n", label,
                dbsa::telemetry::TraceIdHex(got.front().bound.trace_hi,
                                            got.front().bound.trace_lo)
                    .c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbsa;

  if (!util::KnownFlagsOnly(argc, argv,
                            {"placement", "shards", "points", "regions",
                             "universe", "seed", "hilbert_level", "epoch"})) {
    std::fprintf(stderr,
                 "usage: %s [--placement=FILE] [--shards=4] [--points=20000]\n"
                 "          [--regions=24] [--universe=4096] [--seed=20210111]\n"
                 "          [--hilbert_level=16] [--epoch=0]\n"
                 "--epoch=E pins every socket query to serving epoch E\n"
                 "(snapshot-loaded clusters; 0 = wildcard, accept any).\n",
                 argv[0]);
    return 2;
  }

  const data::ClusterDemoConfig dataset =
      data::ClusterDemoConfigFromFlags(argc, argv);
  const size_t num_shards =
      static_cast<size_t>(util::UintFlag(argc, argv, "shards", 4));

  std::printf("building the demo city (%zu points, %zu regions)...\n",
              dataset.num_points, dataset.num_regions);
  const auto base = core::BuildEngineState(data::ClusterDemoPoints(dataset),
                                           data::ClusterDemoRegions(dataset));

  const geom::Polygon viewport =
      geom::ParseWktPolygon(
          "POLYGON ((600 600, 3000 900, 3400 3000, 1800 2600, 600 3200, 600 600))")
          .value();

  // The reference: the same snapshot behind the loopback seam (same
  // shard count, same wire format, in-process handlers).
  service::ServiceOptions loopback_options;
  loopback_options.num_threads = 4;
  loopback_options.num_shards = num_shards;
  loopback_options.shard_hilbert_level = dataset.hilbert_level;
  loopback_options.use_transport = true;
  service::QueryService loopback_service(base, loopback_options);

  // The cluster: external (--placement) or spawned in-process.
  service::ShardPlacement placement;
  std::vector<std::unique_ptr<service::ShardServer>> servers;
  std::vector<std::unique_ptr<service::ShardListener>> primaries;
  std::vector<std::unique_ptr<service::ShardListener>> replicas;
  std::string placement_path;
  const bool external = FlagValue(argc, argv, "placement", &placement_path);
  if (external) {
    StatusOr<service::ShardPlacement> loaded =
        service::ShardPlacement::Load(placement_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    placement = std::move(loaded.value());
    if (dataset.num_points < placement.num_shards()) {
      // ShardedState::Build clamps the shard count to the point count;
      // a routing build at the clamped K could never match the cluster.
      std::fprintf(stderr,
                   "error: --points=%zu is fewer than the placement's %zu shards\n",
                   dataset.num_points, placement.num_shards());
      return 1;
    }
    std::printf("connecting to an external %zu-shard cluster (%s)\n",
                placement.num_shards(), placement_path.c_str());
  } else {
    // Spawn the cluster in-process: a primary AND a replica listener per
    // shard, each serving the shard's slice over real localhost TCP.
    service::InProcessShardClusterOptions cluster_options;
    cluster_options.with_replicas = true;
    cluster_options.hilbert_level = dataset.hilbert_level;
    service::InProcessShardCluster cluster =
        service::MakeInProcessShardCluster(base, num_shards, cluster_options);
    servers = std::move(cluster.servers);
    primaries = std::move(cluster.primaries);
    replicas = std::move(cluster.replicas);
    placement = std::move(cluster.placement);
    for (size_t s = 0; s < servers.size(); ++s) {
      std::printf("shard %zu: primary %s, replica %s (%zu points)\n", s,
                  primaries[s]->endpoint().ToString().c_str(),
                  replicas[s]->endpoint().ToString().c_str(),
                  servers[s]->num_points());
    }
  }

  service::ServiceOptions socket_options = loopback_options;
  socket_options.transport_kind = service::TransportKind::kSocket;
  socket_options.placement = placement;
  if (external) {
    // The placement file is the deployment truth for the shard count; the
    // --shards flag only sizes the in-process reference cluster. Results
    // stay byte-identical to the loopback reference at any K.
    socket_options.num_shards = 0;
  }
  socket_options.socket_options.roundtrip_timeout_ms = 30000;
  // Pin queries to a snapshot generation (read-your-epoch). The loopback
  // reference serves at the wildcard epoch, so pinning only the socket
  // side keeps the byte-identity comparison intact.
  socket_options.serving_epoch = util::UintFlag(argc, argv, "epoch", 0);
  service::QueryService socket_service(base, socket_options);

  bool ok = RunAndCompare(socket_service, loopback_service, viewport, "tcp");

  if (!external && ok && !primaries.empty()) {
    // Failover: kill shard 1's primary (its port stops answering and its
    // live connections die); the next queries must be served by the
    // replica, byte-identical, with a clean Status — no hang, no error.
    const size_t victim = primaries.size() > 1 ? 1 : 0;
    std::printf("killing shard %zu's primary listener...\n", victim);
    primaries[victim]->Stop();
    ok = RunAndCompare(socket_service, loopback_service, viewport, "failover") && ok;
  }

  const service::SocketTransport* transport = socket_service.socket_transport();
  const service::SocketTransport::Stats stats = transport->stats();
  std::printf(
      "socket transport: %llu messages (%llu req bytes, %llu resp bytes), "
      "%llu dials, %llu reconnects, %llu failovers, %llu timeouts\n",
      static_cast<unsigned long long>(stats.messages),
      static_cast<unsigned long long>(stats.request_bytes),
      static_cast<unsigned long long>(stats.response_bytes),
      static_cast<unsigned long long>(stats.dials),
      static_cast<unsigned long long>(stats.reconnects),
      static_cast<unsigned long long>(stats.failovers),
      static_cast<unsigned long long>(stats.timeouts));

  std::printf(ok ? "OK: socket execution is byte-identical to the loopback seam\n"
                 : "FAILED\n");
  return ok ? 0 : 1;
}
