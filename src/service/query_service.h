// QueryService — the concurrent serving layer over one immutable engine
// snapshot (core::EngineState), speaking the v2 query envelope
// (service/query.h): clients submit Query descriptors with per-query
// ExecOptions (typed distance bound, mode hint) and get Results carrying
// the payload, the ACHIEVED side of the distance-bound contract
// (BoundReport), the query's trace id and a typed Status.
// A fixed thread pool executes queries; a memory-budgeted LRU cache
// shares the HR approximations across queries, sessions and threads.
//
// One way in: Execute(query, options) returns one std::future<Result>
// per query. Every future resolves to a Result (failures as statuses),
// so a poisoned query never loses its neighbours' answers.
//
// Every query runs through the core executors over ONE shard source fixed
// at construction (core::ShardSource): the whole snapshot, its in-process
// shards, or a ShardRouter over the message seam (see ServiceOptions
// below and core/sharded_state.h, service/shard_server.h).
//
// Determinism: a service run with any thread count, shard count and
// deployment path (in-process, sharded, transport seam) returns
// payloads byte-identical to the single-threaded engine on the same
// workload under every mode — per-query floating-point accumulation order
// is fixed (ExecHooks in core/engine_state.h; compensated SUM merges in
// join/point_index_join.h), only scheduling varies. Tested over the
// envelope in tests/query_envelope_test.cc.

#ifndef DBSA_SERVICE_QUERY_SERVICE_H_
#define DBSA_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "core/engine_state.h"
#include "core/sharded_state.h"
#include "service/approx_cache.h"
#include "service/placement.h"
#include "service/query.h"
#include "service/shard_server.h"
#include "service/socket_transport.h"
#include "service/thread_pool.h"
#include "service/transport.h"

namespace dbsa::service {

/// Which Transport carries the shard messages when the seam is active
/// (ServiceOptions::use_transport).
enum class TransportKind : uint8_t {
  /// In-process: shard servers owned by the service, requests handed to
  /// them as function calls (every byte still crosses the wire format).
  kLoopback = 0,
  /// Real RPC: shard servers are EXTERNAL processes (shard_server_main)
  /// reached over TCP per ServiceOptions::placement. The service owns
  /// only the client half (routing metadata + SocketTransport).
  kSocket = 1,
};

struct ServiceOptions {
  /// 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Budget for the shared approximation cache (HR bytes).
  size_t cache_budget_bytes = size_t{64} << 20;
  /// > 1 partitions the point table into this many Hilbert-contiguous
  /// spatial shards (core::ShardedState); point-index queries scatter
  /// across the shards that survive pruning and gather byte-identical
  /// results. 1 = serve the snapshot unsharded.
  size_t num_shards = 1;
  /// Grid level of the Hilbert ordering used by the partitioner.
  int shard_hilbert_level = 16;
  /// Serve the shards through the shard-server message seam: every shard
  /// probe crosses the serialized wire format of service/transport.h via
  /// an in-process LoopbackTransport (the multi-node rehearsal — a real
  /// RPC transport drops in without touching execution). Effective at any
  /// num_shards >= 1 (one shard server is the degenerate deployment).
  /// Results stay byte-identical to the in-process engine; each
  /// ShardServer additionally keeps a per-shard HR cache of its routed
  /// cell slices (see WarmCache) at ShardServer::Options' default budget.
  bool use_transport = false;
  /// Which transport carries the seam (use_transport only).
  TransportKind transport_kind = TransportKind::kLoopback;
  /// kSocket only: where each shard (and its optional failover replica)
  /// listens. When `num_shards` is left at its default (<= 1) the shard
  /// count is taken from the placement; otherwise the two must agree.
  ShardPlacement placement;
  /// kSocket only: connection timeouts and reconnect backoff — see
  /// socket_transport.h.
  SocketTransport::Options socket_options;

  // ---- epoch-stamped snapshots (src/snapshot/) ----------------------
  /// Dataset generation this service serves. Non-zero (the snapshot
  /// deployment: state loaded from epoch-stamped files): every outgoing
  /// ScatterRequest is pinned to it and every loopback shard server
  /// rejects other epochs typed (kFailedPrecondition) — see
  /// ShardServer::Options::serving_epoch. Zero (default): queries carry
  /// the wildcard epoch and accept any serving generation.
  uint64_t serving_epoch = 0;

  // ---- telemetry (src/telemetry/) -----------------------------------
  // Every query is traced: the service mints a TraceContext per query and
  // records per-stage spans (admission, cache lookup, HR build, route,
  // per-shard roundtrip, execute, merge, gather), propagated to shard
  // servers on the wire. Observe-only: payloads are byte-identical to the
  // untraced core executors.
  /// > 0: a query whose end-to-end latency exceeds this emits one
  /// structured SLOW_QUERY line (trace id, kind, bound, achieved epsilon,
  /// per-stage span table) to `slow_query_sink`.
  double slow_query_ms = 0.0;
  /// Destination of SLOW_QUERY lines; null -> stderr.
  std::function<void(const std::string&)> slow_query_sink;
};

class QueryService {
 public:
  /// Serves the given snapshot. The snapshot is immutable and shared —
  /// several services (or a service plus single-threaded engines) may
  /// serve the same one.
  explicit QueryService(std::shared_ptr<const core::EngineState> state,
                        const ServiceOptions& options = {});

  /// Serves a PREASSEMBLED sharded state (snapshot load, src/snapshot/):
  /// the service adopts `sharded` — base + routing (+ slices, loopback)
  /// — instead of re-partitioning the dataset. Shard count and (socket
  /// mode) placement must agree with the assembled state; loopback mode
  /// requires has_slices(). Pair with ServiceOptions::serving_epoch so
  /// queries pin to the snapshot's generation.
  QueryService(std::shared_ptr<const core::ShardedState> sharded,
               const ServiceOptions& options);

  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // ---- the v2 envelope ----------------------------------------------
  /// One query, one future: the query runs on the pool, never on the
  /// caller. The Result is always delivered (failures as statuses); the
  /// future never stores an exception.
  std::future<Result> Execute(Query query, ExecOptions options = {});

  // ---- cache management ---------------------------------------------
  /// Builds the HR approximations of ALL region polygons at the given
  /// epsilon in parallel across the pool (the cache-miss path of a full
  /// region aggregation, without running a query). Blocks until warm.
  /// Shard-aware: with the transport seam active, each shard server's
  /// per-shard cache is additionally warmed with the routed cell slices
  /// of exactly the regions whose cells route to that shard — the HRs
  /// are looked up in parallel, then one warm batch carries every slice
  /// (one frame per shard, ShardRouter::Warm).
  void WarmCache(double epsilon);

  ApproxCache::Stats cache_stats() const { return cache_.stats(); }

  /// The metric registry this service owns and every component of it
  /// records into (cache, transports, loopback shard servers, per-query
  /// latencies) — RenderText() it to scrape.
  const std::shared_ptr<telemetry::MetricRegistry>& registry() const {
    return registry_;
  }

  /// Non-null iff the shard-aware execution path is active
  /// (options.num_shards > 1, or options.use_transport). In socket mode
  /// this is a ROUTING-ONLY build (has_slices() == false): curve runs and
  /// pruning metadata, no local slice states.
  const core::ShardedState* sharded() const { return sharded_.get(); }
  size_t num_threads() const { return pool_.size(); }
  /// The deployment path Results will report (BoundReport::path).
  ExecPath exec_path() const;

  /// Non-null iff the seam runs over TCP (TransportKind::kSocket):
  /// connection/failover/timeout counters and the placement in use.
  const SocketTransport* socket_transport() const { return socket_.get(); }

 private:
  /// The one real constructor: `preassembled`, when non-null, is adopted
  /// as the sharded state instead of partitioning `state`.
  QueryService(std::shared_ptr<const core::EngineState> state,
               std::shared_ptr<const core::ShardedState> preassembled,
               const ServiceOptions& options);

  /// Builds the cache-backed exec hooks for one query. When the counter
  /// pointers are non-null they receive this query's hit/miss tallies;
  /// they must outlive every Execute* call using the hooks. `trace`, when
  /// non-null, is threaded through the hooks (cache_lookup / hr_build
  /// spans, shard roundtrip spans downstream).
  core::ExecHooks MakeHooks(std::atomic<size_t>* query_hits = nullptr,
                            std::atomic<size_t>* query_misses = nullptr,
                            telemetry::QueryTrace* trace = nullptr);

  /// The one execution funnel: admission (ValidateQuery), dispatch on
  /// the spec visitor, BoundReport assembly, telemetry (latency
  /// histograms, stage spans, slow-query log), and the exception->Status
  /// boundary. Runs on a pool worker; never throws.
  Result RunQuery(const Query& query, const ExecOptions& options);

  void RunSpec(const AggregateSpec& spec, const ExecOptions& options,
               telemetry::QueryTrace* trace, Result* result);
  void RunSpec(const CountSpec& spec, const ExecOptions& options,
               telemetry::QueryTrace* trace, Result* result);
  void RunSpec(const SelectSpec& spec, const ExecOptions& options,
               telemetry::QueryTrace* trace, Result* result);

  /// Shared per-spec scaffolding: builds the counter-wired hooks, runs
  /// the executor, copies the cache tallies into its stats and lifts the
  /// achieved bound onto the Result. `run(hooks)` returns the answer
  /// (AggregateAnswer / CountAnswer / SelectAnswer — anything with a
  /// `stats` member).
  template <typename RunFn>
  auto RunWithStats(telemetry::QueryTrace* trace, Result* result, RunFn&& run);

  /// End-of-query telemetry: latency/stage histograms, query counters,
  /// the slow-query log. Called once per RunQuery, success or failure.
  void FinishQueryTelemetry(const Result& result,
                            const telemetry::QueryTrace& trace, double total_ms);

  std::shared_ptr<const core::EngineState> state_;
  std::shared_ptr<const core::ShardedState> sharded_;  ///< Null when unsharded.
  /// The message seam (null unless options.use_transport): the router
  /// over either a loopback transport to in-process shard servers (the
  /// router owns the transport, its handlers own the servers) or the
  /// socket transport to external servers, kept here for its counters.
  std::shared_ptr<SocketTransport> socket_;
  std::unique_ptr<ShardRouter> router_;
  /// What every query executes over: router_, else sharded_, else state_.
  const core::ShardSource* source_ = nullptr;
  ServiceOptions options_;
  /// Declared before cache_: the cache (and every other component)
  /// records into it.
  std::shared_ptr<telemetry::MetricRegistry> registry_;
  /// Pre-resolved per-kind metrics (indexed by QueryKind) so the query
  /// path never takes the registry lock.
  telemetry::Counter* queries_total_[3] = {};
  telemetry::Histogram* query_latency_ms_[3] = {};
  telemetry::Counter* slow_queries_total_ = nullptr;
  ApproxCache cache_;
  ThreadPool pool_;  ///< Last member: workers die before cache/state.
};

}  // namespace dbsa::service

#endif  // DBSA_SERVICE_QUERY_SERVICE_H_
