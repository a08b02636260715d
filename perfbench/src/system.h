// The serving system under test, stood up the way each workload deploys
// it: the pooled unsharded QueryService (explore_cold), the in-process
// sharded one (dashboard_warm), or a socket cluster of shard listeners
// loaded from epoch-stamped snapshot images plus a QueryService client
// over TCP (cluster_scatter). Set-up is what setup_s times.

#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/query_service.h"
#include "service/shard_server.h"
#include "service/socket_transport.h"
#include "workload.h"

namespace perfbench {

inline constexpr uint64_t kEpoch = 12;
/// Each shard server's slice-cache budget: a quarter of the ShardServer default,
/// so cluster_scatter's routed slices are about twice what a shard holds.
inline constexpr size_t kShardCacheBytes = size_t{2} << 20;

/// Snapshot images of the cluster, encoded once per run off the clock.
struct SnapshotImages {
  std::string client;
  std::vector<std::string> slices;
};

SnapshotImages EncodeSnapshots(const Dataset& data);

/// Seconds spent in each set-up step (0 where a workload has no such step).
struct SetupTimes {
  double state_build_s = 0.0;
  double shard_build_s = 0.0;
  double snapshot_load_s = 0.0;
  double warm_s = 0.0;
  double total_s = 0.0;
};

/// Wraps shard s's request handler (cluster_scatter), e.g. to time it.
using HandlerWrap = std::function<dbsa::service::ShardListener::Handler(
    size_t, dbsa::service::ShardListener::Handler)>;

struct System {
  std::shared_ptr<const dbsa::core::EngineState> base;
  /// kSharded: the full sharded state; kTransport: the client's
  /// routing-only state.
  std::shared_ptr<const dbsa::core::ShardedState> sharded;
  /// kTransport: the servers' slice states and global-id maps.
  std::vector<std::shared_ptr<const dbsa::core::EngineState>> slices;
  std::vector<std::vector<uint32_t>> slice_ids;
  std::vector<std::unique_ptr<dbsa::service::ShardServer>> servers;
  std::vector<std::unique_ptr<dbsa::service::ShardListener>> listeners;
  dbsa::service::ShardPlacement placement;
  /// Declared last: destroyed first, while the listeners still serve.
  std::unique_ptr<dbsa::service::QueryService> service;
};

/// Stands the system up from the generated tables (moved in) and, for
/// the cluster, the snapshot images; runs the workload's warm-up. The
/// clock covers everything after the inputs exist.
std::unique_ptr<System> BuildSystem(const Workload& workload, Dataset data,
                                    const SnapshotImages* images, const HandlerWrap& wrap,
                                    SetupTimes* times);

/// Executes one query on the system's service and waits for its Result.
dbsa::service::Result Serve(System& system, const BenchQuery& q);

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
