// In-process socket-cluster scaffolding: the Build-sharded ->
// ShardServer-per-shard -> ShardListener-per-endpoint -> ShardPlacement
// bootstrap shared by the demo client (examples/socket_cluster_demo.cpp)
// and the transport tests. One definition so every consumer stands up
// the SAME cluster shape — drift here would silently test a different
// deployment than the one docs/operations.md documents. Real deployments
// use one shard_server_main process per endpoint instead (same seam,
// external processes).

#ifndef DBSA_SERVICE_SOCKET_CLUSTER_H_
#define DBSA_SERVICE_SOCKET_CLUSTER_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/sharded_state.h"
#include "service/placement.h"
#include "service/shard_server.h"
#include "service/socket_transport.h"

namespace dbsa::service {

/// A complete in-process cluster: shard servers behind real TCP
/// listeners on ephemeral localhost ports (optionally with a replica
/// listener per shard serving the same slice) and a placement naming
/// them. Destruction stops every listener.
struct InProcessShardCluster {
  std::shared_ptr<const core::ShardedState> sharded;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::unique_ptr<ShardListener>> primaries;
  /// Empty unless with_replicas was set.
  std::vector<std::unique_ptr<ShardListener>> replicas;
  ShardPlacement placement;
};

struct InProcessShardClusterOptions {
  /// Add a replica listener per shard (same server, failover port).
  bool with_replicas = false;
  /// Hilbert ordering granularity for the shard cuts (must match the
  /// client's routing build — ShardingOptions::hilbert_level).
  int hilbert_level = 16;
  /// Every server's ShardServer::Options::serving_epoch: 0 serves any
  /// request; nonzero pins the cluster to one dataset generation (the
  /// snapshot-loaded shape — src/snapshot/snapshot.h).
  uint64_t serving_epoch = 0;
  /// Optional wrapper around shard s's PRIMARY handler — the fault
  /// injection seam (tests drop connections / stall shards through it).
  /// Replicas always get the plain handler.
  std::function<ShardListener::Handler(size_t, ShardListener::Handler)>
      wrap_primary;
};

/// Stands the cluster up over an ALREADY-BUILT sharded state (slices
/// materialized) — the seam for snapshot-loaded clusters, where the
/// state comes from snapshot::AssembleClusterState instead of a build.
inline InProcessShardCluster MakeInProcessShardClusterFromState(
    std::shared_ptr<const core::ShardedState> sharded,
    const InProcessShardClusterOptions& options = {}) {
  InProcessShardCluster cluster;
  cluster.sharded = std::move(sharded);
  for (size_t s = 0; s < cluster.sharded->num_shards(); ++s) {
    // One registry per server, served by its listener's kStatsRequest
    // path — the same shape as a real shard_server_main process, so a
    // wire-level scrape of this cluster exercises the production seam.
    ShardServer::Options server_options;
    server_options.shard_index = s;
    server_options.serving_epoch = options.serving_epoch;
    cluster.servers.push_back(
        std::make_unique<ShardServer>(cluster.sharded->shard(s), server_options));
    ShardServer* server = cluster.servers.back().get();
    const ShardListener::Handler handler =
        [server](const std::string& request) { return server->Handle(request); };
    ShardListener::Options listen_options;
    listen_options.registry = server->registry();
    cluster.primaries.push_back(std::make_unique<ShardListener>(
        options.wrap_primary ? options.wrap_primary(s, handler) : handler,
        listen_options));
    if (options.with_replicas) {
      cluster.replicas.push_back(
          std::make_unique<ShardListener>(handler, listen_options));
      cluster.placement.Add(cluster.primaries.back()->endpoint(),
                            cluster.replicas.back()->endpoint());
    } else {
      cluster.placement.Add(cluster.primaries.back()->endpoint());
    }
  }
  return cluster;
}

inline InProcessShardCluster MakeInProcessShardCluster(
    const std::shared_ptr<const core::EngineState>& base, size_t num_shards,
    const InProcessShardClusterOptions& options = {}) {
  core::ShardingOptions sharding;
  sharding.num_shards = num_shards;
  sharding.hilbert_level = options.hilbert_level;
  return MakeInProcessShardClusterFromState(
      core::ShardedState::Build(base, sharding), options);
}

}  // namespace dbsa::service

#endif  // DBSA_SERVICE_SOCKET_CLUSTER_H_
