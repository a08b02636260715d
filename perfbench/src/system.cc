#include "system.h"

#include <chrono>
#include <stdexcept>

#include "core/sharded_state.h"
#include "snapshot/snapshot.h"

namespace perfbench {

namespace service = dbsa::service;
namespace snapshot = dbsa::snapshot;

namespace {

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

template <typename T>
T Unwrap(dbsa::StatusOr<T> v, const char* what) {
  if (!v.ok()) throw std::runtime_error(std::string(what) + ": " + v.status().ToString());
  return std::move(v).value();
}

service::ServiceOptions BaseOptions() {
  service::ServiceOptions options;
  options.num_threads = kPoolThreads;
  return options;
}

}  // namespace

SnapshotImages EncodeSnapshots(const Dataset& data) {
  const std::shared_ptr<const dbsa::core::EngineState> base =
      dbsa::core::BuildEngineState(data.points, data.regions);
  dbsa::core::ShardingOptions sharding;
  sharding.num_shards = kShards;
  const std::shared_ptr<const dbsa::core::ShardedState> sharded =
      dbsa::core::ShardedState::Build(base, sharding);
  SnapshotImages images;
  images.client = snapshot::EncodeClientSnapshot(*sharded, kEpoch);
  for (size_t s = 0; s < kShards; ++s) {
    images.slices.push_back(snapshot::EncodeShardSnapshot(*sharded, s, kEpoch));
  }
  return images;
}

service::Result Serve(System& system, const BenchQuery& q) {
  return system.service->Execute(q.query, q.options).get();
}

std::unique_ptr<System> BuildSystem(const Workload& workload, Dataset data,
                                    const SnapshotImages* images, const HandlerWrap& wrap,
                                    SetupTimes* times) {
  *times = SetupTimes{};
  // The snapshot files' bytes, read before the clock starts.
  SnapshotImages files;
  if (workload.path == service::ExecPath::kTransport) files = *images;

  auto system = std::make_unique<System>();
  const auto start = std::chrono::steady_clock::now();
  auto step = start;
  switch (workload.path) {
    case service::ExecPath::kLocal:
    case service::ExecPath::kSharded: {
      system->base = dbsa::core::BuildEngineState(std::move(data.points),
                                                  std::move(data.regions));
      times->state_build_s = Since(step);
      step = std::chrono::steady_clock::now();
      service::ServiceOptions options = BaseOptions();
      if (workload.path == service::ExecPath::kSharded) options.num_shards = kShards;
      system->service = std::make_unique<service::QueryService>(system->base, options);
      system->sharded = system->service->sharded() != nullptr
                            ? std::shared_ptr<const dbsa::core::ShardedState>(
                                  system->service->sharded(),
                                  [](const dbsa::core::ShardedState*) {})
                            : nullptr;
      times->shard_build_s = Since(step);
      break;
    }
    case service::ExecPath::kTransport: {
      const snapshot::SnapshotReader client =
          Unwrap(snapshot::SnapshotReader::Parse(std::move(files.client)), "client snapshot");
      system->base = Unwrap(client.AssembleEngineState(), "client state");
      system->sharded = Unwrap(client.AssembleRoutingState(system->base), "routing state");
      for (std::string& image : files.slices) {
        const snapshot::SnapshotReader slice =
            Unwrap(snapshot::SnapshotReader::Parse(std::move(image)), "slice snapshot");
        system->slices.push_back(Unwrap(slice.AssembleEngineState(), "slice state"));
        system->slice_ids.push_back(Unwrap(slice.DecodeShardIds(), "slice ids"));
      }
      times->snapshot_load_s = Since(step);
      step = std::chrono::steady_clock::now();
      for (size_t s = 0; s < system->slices.size(); ++s) {
        service::ShardServer::Options server_options;
        server_options.shard_index = s;
        server_options.serving_epoch = kEpoch;
        server_options.cell_cache_budget_bytes = kShardCacheBytes;
        system->servers.push_back(std::make_unique<service::ShardServer>(
            system->slices[s], system->slice_ids[s], server_options));
        service::ShardServer* server = system->servers.back().get();
        service::ShardListener::Handler handler =
            [server](const std::string& request) { return server->Handle(request); };
        service::ShardListener::Options listen;
        listen.handler_threads = 1;
        listen.registry = server->registry();
        system->listeners.push_back(std::make_unique<service::ShardListener>(
            wrap ? wrap(s, std::move(handler)) : std::move(handler), listen));
        system->placement.Add(system->listeners.back()->endpoint());
      }
      times->shard_build_s = Since(step);
      step = std::chrono::steady_clock::now();
      service::ServiceOptions options = BaseOptions();
      options.use_transport = true;
      options.num_shards = 0;  // From the placement.
      options.transport_kind = service::TransportKind::kSocket;
      options.placement = system->placement;
      options.serving_epoch = kEpoch;
      system->service = std::make_unique<service::QueryService>(system->sharded, options);
      times->state_build_s = Since(step);
      break;
    }
  }
  step = std::chrono::steady_clock::now();
  for (const double eps : workload.warm_epsilons) system->service->WarmCache(eps);
  for (const uint32_t row : workload.warm_rows) {
    const service::Result r = Serve(*system, workload.table[row]);
    if (!r.ok()) throw std::runtime_error("warm-up query failed: " + r.status.ToString());
  }
  times->warm_s = Since(step);
  times->total_s = Since(start);
  return system;
}

}  // namespace perfbench
