#include "service/query_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <vector>

#include "util/check.h"
#include "util/timer.h"

namespace dbsa::service {

QueryService::QueryService(std::shared_ptr<const core::EngineState> state,
                           const ServiceOptions& options)
    : QueryService(std::move(state), nullptr, options) {}

QueryService::QueryService(std::shared_ptr<const core::ShardedState> sharded,
                           const ServiceOptions& options)
    // `sharded` is COPIED into the delegate, not moved: argument
    // evaluation order is unspecified, and a move could empty it before
    // the base_ptr() argument reads it.
    : QueryService(sharded != nullptr ? sharded->base_ptr() : nullptr, sharded,
                   options) {}

QueryService::QueryService(std::shared_ptr<const core::EngineState> state,
                           std::shared_ptr<const core::ShardedState> preassembled,
                           const ServiceOptions& options)
    : state_(std::move(state)),
      options_(options),
      registry_(std::make_shared<telemetry::MetricRegistry>()),
      cache_(options.cache_budget_bytes, registry_),
      pool_(options.num_threads) {
  DBSA_CHECK(state_ != nullptr);
  // Per-kind query metrics, resolved once so recording never takes the
  // registry lock on the query path.
  for (const QueryKind kind :
       {QueryKind::kAggregate, QueryKind::kCount, QueryKind::kSelect}) {
    const std::string label = std::string("{kind=\"") + QueryKindName(kind) + "\"}";
    const size_t k = static_cast<size_t>(kind);
    queries_total_[k] = registry_->GetCounter("dbsa_queries_total" + label);
    query_latency_ms_[k] =
        registry_->GetHistogram("dbsa_query_latency_ms" + label);
  }
  slow_queries_total_ = registry_->GetCounter("dbsa_slow_queries_total");
  const bool socket_mode =
      options.use_transport && options.transport_kind == TransportKind::kSocket;
  if (!options.use_transport) {
    // A socket transport_kind without use_transport would otherwise be
    // silently ignored: the service would build the full local engine
    // and answer every query in-process while the external cluster sits
    // idle. Reject the misconfiguration at construction.
    DBSA_CHECK(options.transport_kind == TransportKind::kLoopback);
  }
  if (!socket_mode) {
    // Same trap one notch later: a placement with use_transport but the
    // default kLoopback transport_kind would be ignored too.
    DBSA_CHECK(options.placement.num_shards() == 0);
  }
  size_t num_shards = std::max<size_t>(options.num_shards, 1);
  if (socket_mode) {
    DBSA_CHECK(options.placement.num_shards() > 0);
    if (options.num_shards <= 1) {
      // Unspecified shard count: the placement is the deployment truth.
      num_shards = options.placement.num_shards();
    } else {
      DBSA_CHECK(num_shards == options.placement.num_shards());
    }
    // A placement larger than the point table can never be served:
    // ShardedState::Build would silently clamp K and the router would
    // then abort on an opaque shard-count mismatch. Fail here, where
    // the cause is nameable.
    DBSA_CHECK(num_shards <= state_->points->locs.size());
  }
  if (preassembled != nullptr) {
    // Snapshot deployment: adopt the assembled state instead of
    // re-partitioning. The same misconfigurations the build path rejects
    // are rejected here — and loopback servers below need slices.
    DBSA_CHECK(num_shards <= 1 || preassembled->num_shards() == num_shards);
    if (socket_mode) {
      DBSA_CHECK(preassembled->num_shards() == options.placement.num_shards());
    } else {
      DBSA_CHECK(options.use_transport);  // preassembly exists to serve a seam
      DBSA_CHECK(preassembled->has_slices());
    }
    sharded_ = std::move(preassembled);
  } else if (num_shards > 1 || options.use_transport) {
    core::ShardingOptions sharding;
    sharding.num_shards = num_shards;
    sharding.hilbert_level = options.shard_hilbert_level;
    // A socket client routes and prunes but never executes shard-locally:
    // skip the slice copies and per-shard index builds entirely.
    sharding.build_slices = !socket_mode;
    sharded_ = core::ShardedState::Build(state_, sharding);
  }
  if (socket_mode) {
    // Real RPC deployment: the service is a pure client — it keeps only
    // the routing metadata (sharded_ is a routing-only build: curve
    // runs, key ranges, bounds; no slice states) and a socket transport
    // to the external shard servers named by the placement. The shard
    // slices live in those processes (shard_server_main), not here.
    SocketTransport::Options socket_options = options.socket_options;
    socket_options.registry = registry_;
    socket_ = std::make_shared<SocketTransport>(options.placement, socket_options);
    router_ = std::make_unique<ShardRouter>(sharded_, socket_);
  } else if (options.use_transport) {
    // The distribution rehearsal: one ShardServer per shard (each sharing
    // its slice and position-ordered ids with sharded_, and owning its
    // per-shard cell cache) behind a loopback transport; every shard probe
    // crosses the serialized wire format. All shards record into the
    // service registry, distinguished by their {shard="N"} label.
    ShardServer::Options server_options;
    server_options.registry = registry_;
    server_options.serving_epoch = options.serving_epoch;
    std::vector<LoopbackTransport::Handler> handlers;
    handlers.reserve(sharded_->num_shards());
    for (size_t s = 0; s < sharded_->num_shards(); ++s) {
      server_options.shard_index = s;
      auto server = std::make_shared<ShardServer>(sharded_->shard(s), server_options);
      handlers.push_back([server](const std::string& request) {
        return server->Handle(request);
      });
    }
    router_ = std::make_unique<ShardRouter>(
        sharded_, std::make_shared<LoopbackTransport>(std::move(handlers), registry_));
  }
  if (router_ != nullptr) {
    // Pin every outgoing scatter to the serving generation (wire v5
    // epoch; 0 stays the wildcard for epoch-less deployments).
    router_->set_epoch(options.serving_epoch);
    source_ = router_.get();
  } else if (sharded_ != nullptr) {
    source_ = sharded_.get();
  } else {
    source_ = state_.get();
  }
}

QueryService::~QueryService() = default;

ExecPath QueryService::exec_path() const {
  if (router_ != nullptr) return ExecPath::kTransport;
  if (sharded_ != nullptr) return ExecPath::kSharded;
  return ExecPath::kLocal;
}

core::ExecHooks QueryService::MakeHooks(std::atomic<size_t>* query_hits,
                                        std::atomic<size_t>* query_misses,
                                        telemetry::QueryTrace* trace) {
  core::ExecHooks hooks;
  hooks.trace = trace;
  hooks.hr_provider = [this, query_hits, query_misses, trace](
                          size_t poly_index, const geom::Polygon& poly,
                          double epsilon) {
    // Span stage depends on the OUTCOME (hit -> cache_lookup, miss ->
    // hr_build), so the span is recorded manually after the call.
    const double span_start_ms = trace != nullptr ? trace->ElapsedMs() : 0.0;
    const int level = state_->grid.LevelForEpsilon(epsilon);
    const bool ad_hoc = poly_index == core::kAdHocPolygon;
    const ObjectKey object_id =
        ad_hoc ? PolygonFingerprint(poly) : ObjectKey(static_cast<uint64_t>(poly_index));
    bool built = false;
    // Ad-hoc polygons are identified only by their fingerprint, so their
    // hits are verified against the geometry; region-table entries are
    // keyed by table index and cannot collide.
    ApproxCache::HrPtr hr = cache_.GetOrBuild(
        object_id, level,
        [&]() {
          return raster::HierarchicalRaster::BuildLevel(poly, state_->grid, level);
        },
        &built, ad_hoc ? &poly : nullptr);
    if (query_hits != nullptr && query_misses != nullptr) {
      (built ? *query_misses : *query_hits).fetch_add(1, std::memory_order_relaxed);
    }
    if (trace != nullptr) {
      trace->Record(built ? "hr_build" : "cache_lookup", span_start_ms,
                    trace->ElapsedMs() - span_start_ms);
    }
    return hr;
  };
  if (pool_.size() > 1) {
    hooks.parallel_for = [this](size_t n, const std::function<void(size_t)>& fn) {
      pool_.ParallelFor(n, fn);
    };
  }
  return hooks;
}

namespace {

/// The achieved side of the contract, lifted off the execution report
/// (BoundReport::requested and ::path are set by RunQuery).
void FillBoundReport(const core::ExecStats& stats, Result* result) {
  result->bound.epsilon_achieved = stats.achieved_epsilon;
  result->bound.hr_level = stats.hr_level;
  result->bound.cells_touched = stats.query_cells;
  result->bound.hr_cache_hits = stats.hr_cache_hits;
  result->bound.hr_cache_misses = stats.hr_cache_misses;
  result->bound.shards_probed = stats.shards_probed;
}

}  // namespace

template <typename RunFn>
auto QueryService::RunWithStats(telemetry::QueryTrace* trace, Result* result,
                                RunFn&& run) {
  std::atomic<size_t> query_hits{0};
  std::atomic<size_t> query_misses{0};
  const core::ExecHooks hooks = MakeHooks(&query_hits, &query_misses, trace);
  auto answer = [&]() {
    telemetry::SpanTimer span(trace, "execute");
    return run(hooks);
  }();
  answer.stats.hr_cache_hits = query_hits.load(std::memory_order_relaxed);
  answer.stats.hr_cache_misses = query_misses.load(std::memory_order_relaxed);
  FillBoundReport(answer.stats, result);
  return answer;
}

void QueryService::RunSpec(const AggregateSpec& spec, const ExecOptions& options,
                           telemetry::QueryTrace* trace, Result* result) {
  result->aggregate =
      RunWithStats(trace, result, [&](const core::ExecHooks& hooks) {
        return core::ExecuteAggregate(*source_, spec.agg, spec.attr, options.bound,
                                      options.mode, hooks);
      });
}

void QueryService::RunSpec(const CountSpec& spec, const ExecOptions& options,
                           telemetry::QueryTrace* trace, Result* result) {
  result->range =
      RunWithStats(trace, result, [&](const core::ExecHooks& hooks) {
        return core::ExecuteCount(*source_, spec.poly, options.bound, hooks);
      }).range;
}

void QueryService::RunSpec(const SelectSpec& spec, const ExecOptions& options,
                           telemetry::QueryTrace* trace, Result* result) {
  result->ids = std::move(
      RunWithStats(trace, result, [&](const core::ExecHooks& hooks) {
        return core::ExecuteSelect(*source_, spec.poly, options.bound, hooks);
      }).ids);
}

void QueryService::FinishQueryTelemetry(const Result& result,
                                        const telemetry::QueryTrace& trace,
                                        double total_ms) {
  const size_t k = static_cast<size_t>(result.kind);
  queries_total_[k]->Add(1);
  query_latency_ms_[k]->Record(total_ms);
  std::vector<telemetry::TraceSpan> spans = trace.spans();
  // Per-stage latency distributions: one histogram family keyed by the
  // stage label. The stage set is tiny and closed, so the registry
  // lookups here (post-query, not on the execution path) stay cheap.
  for (const telemetry::TraceSpan& s : spans) {
    registry_->GetHistogram("dbsa_stage_ms{stage=\"" + s.stage + "\"}")
        ->Record(s.duration_ms);
  }
  if (options_.slow_query_ms > 0.0 && total_ms > options_.slow_query_ms) {
    slow_queries_total_->Add(1);
    const std::string line = telemetry::FormatSlowQueryLine(
        trace.ctx(), QueryKindName(result.kind), result.bound.requested.ToString(),
        result.bound.epsilon_achieved, result.status.ToString(), total_ms,
        std::move(spans));
    if (options_.slow_query_sink) {
      options_.slow_query_sink(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
}

Result QueryService::RunQuery(const Query& query, const ExecOptions& options) {
  Timer timer;
  telemetry::QueryTrace trace(telemetry::NewTraceContext());
  Result result;
  result.kind = query.kind();
  result.bound.requested = options.bound;
  result.bound.path = exec_path();
  result.bound.trace_hi = trace.ctx().trace_hi;
  result.bound.trace_lo = trace.ctx().trace_lo;

  // Admission: a malformed envelope, or a bound the grid cannot honour,
  // answers its typed status without running.
  const Status admitted = [&]() {
    telemetry::SpanTimer span(&trace, "admission");
    return ValidateQuery(query, options, state_->grid);
  }();
  if (!admitted.ok()) {
    result.status = admitted;
    FinishQueryTelemetry(result, trace, timer.Millis());
    return result;
  }

  // Failures become Status results HERE: a future never stores an
  // exception, so one poisoned query can neither throw into its caller's
  // get() nor share exception state across threads.
  try {
    // The service's ONE spec dispatch: the generic lambda resolves to the
    // RunSpec overload set, so a new variant alternative without its
    // RunSpec overload fails right here — the assert makes the failure a
    // named instruction instead of an overload-resolution spew.
    static_assert(std::variant_size_v<QuerySpec> == kQueryKindCount,
                  "new query kind: add a RunSpec overload, then audit the "
                  "shard seam (ScatterRequest::Kind) and BaselineSpec in "
                  "the envelope tests");
    query.Visit([&](const auto& spec) { RunSpec(spec, options, &trace, &result); });
    result.status = Status::OK();
  } catch (const StatusException& e) {
    result.status = e.status();  // Typed codes survive (wire errors etc.).
  } catch (const std::exception& e) {
    result.status =
        Status::Internal(e.what()[0] != '\0' ? e.what() : "query failed");
  } catch (...) {
    result.status = Status::Internal("query failed with a non-standard exception");
  }
  FinishQueryTelemetry(result, trace, timer.Millis());
  return result;
}

std::future<Result> QueryService::Execute(Query query, ExecOptions options) {
  return pool_.Async([this, query = std::move(query), options = std::move(options)]() {
    return RunQuery(query, options);
  });
}

void QueryService::WarmCache(double epsilon) {
  const core::ExecHooks hooks = MakeHooks();
  const std::vector<geom::Polygon>& polys = state_->regions->polys;
  std::vector<ApproxCache::HrPtr> hrs(polys.size());
  pool_.ParallelFor(polys.size(), [&](size_t j) {
    hrs[j] = hooks.hr_provider(j, polys[j], epsilon);
  });
  if (router_ == nullptr) return;
  // Shard-aware warm, one batch per shard: each region's routed cell
  // slice goes to exactly the shards its cells route to — every other
  // shard's cache stays untouched by this region.
  const int level = state_->grid.LevelForEpsilon(epsilon);
  const query::ErrorBound bound = query::ErrorBound::AtLevel(level);
  std::vector<core::Probe> probes;
  probes.reserve(polys.size());
  for (size_t j = 0; j < polys.size(); ++j) {
    probes.push_back(core::Probe{*hrs[j], j, polys[j], bound, level, nullptr});
  }
  router_->Warm(probes, hooks);
}

}  // namespace dbsa::service
