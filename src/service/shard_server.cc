#include "service/shard_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "telemetry/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace dbsa::service {

uint64_t ApproxChecksum(const raster::HrCell* cells, size_t num_cells) {
  // FNV-1a over the cell ids and boundary flags: order-sensitive, so any
  // structural difference between two approximations changes it.
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(num_cells);
  for (size_t i = 0; i < num_cells; ++i) {
    mix(cells[i].id.id() | (cells[i].boundary ? (uint64_t{1} << 63) : 0));
  }
  return h;
}

// ------------------------------------------------------------ ShardServer

namespace {

/// dbsa_<family>{shard="N"} — the per-shard label scheme of every shard
/// metric, so loopback servers sharing a registry stay distinguishable.
std::string ShardMetric(const char* family, size_t shard) {
  return std::string(family) + "{shard=\"" + std::to_string(shard) + "\"}";
}

}  // namespace

ShardServer::ShardServer(std::shared_ptr<const core::EngineState> state,
                         std::vector<uint32_t> global_ids, const Options& options)
    : state_(std::move(state)),
      global_ids_(std::move(global_ids)),
      cache_budget_bytes_(options.cell_cache_budget_bytes),
      options_(options),
      registry_(options.registry
                    ? options.registry
                    : std::make_shared<telemetry::MetricRegistry>()),
      requests_(registry_->GetCounter(
          ShardMetric("dbsa_shard_scatter_requests_total", options.shard_index))),
      parse_errors_(registry_->GetCounter(
          ShardMetric("dbsa_shard_parse_errors_total", options.shard_index))),
      epoch_rejects_(registry_->GetCounter(
          ShardMetric("dbsa_shard_epoch_rejects_total", options.shard_index))),
      cache_hits_(registry_->GetCounter(
          ShardMetric("dbsa_shard_cache_hits_total", options.shard_index))),
      cache_misses_(registry_->GetCounter(
          ShardMetric("dbsa_shard_cache_misses_total", options.shard_index))),
      cache_evictions_(registry_->GetCounter(
          ShardMetric("dbsa_shard_cache_evictions_total", options.shard_index))),
      cache_entries_gauge_(registry_->GetGauge(
          ShardMetric("dbsa_shard_cache_entries", options.shard_index))),
      cache_bytes_gauge_(registry_->GetGauge(
          ShardMetric("dbsa_shard_cache_bytes", options.shard_index))),
      handle_ms_(registry_->GetHistogram(
          ShardMetric("dbsa_shard_handle_ms", options.shard_index))) {
  DBSA_CHECK(state_ == nullptr || state_->points->size() == global_ids_.size());
}

std::string ShardServer::Handle(const std::string& request_bytes) {
  Timer timer;
  requests_->Add(1);
  ScatterRequest request;
  GatherPartial partial;
  const Status parsed = ScatterRequest::Decode(request_bytes, &request);
  if (!parsed.ok()) {
    // The decoder's code travels back typed: a version-skewed frame
    // answers kUnimplemented, corruption answers kInvalidArgument.
    parse_errors_->Add(1);
    partial = GatherPartial::FromStatus(
        ScatterRequest::Kind::kAggregateCells, GatherPartial::Disposition::kError,
        Status(parsed.code(), "bad request: " + parsed.message()));
  } else if (options_.serving_epoch != 0 && request.epoch != 0 &&
             request.epoch != options_.serving_epoch) {
    // Read-your-epoch: a request pinned to another dataset generation is
    // rejected typed, never answered from the wrong data. The rejection
    // still echoes OUR serving epoch (below), so the client can tell
    // which generation this server holds.
    epoch_rejects_->Add(1);
    partial = GatherPartial::FromStatus(
        request.kind, GatherPartial::Disposition::kError,
        Status::FailedPrecondition(
            "epoch mismatch: request pinned to epoch " +
            std::to_string(request.epoch) + ", serving epoch " +
            std::to_string(options_.serving_epoch)));
  } else {
    partial = Dispatch(request);
  }
  // EVERY partial — ok, error, not-cached — carries the serving epoch.
  partial.epoch = options_.serving_epoch;
  std::string encoded = partial.Encode();
  // Echo the request's correlation id: on a multiplexed connection the
  // id — not stream position — pairs this reply with its request.
  PatchCorrelation(&encoded, PeekCorrelation(request_bytes));
  const double elapsed_ms = timer.Millis();
  handle_ms_->Record(elapsed_ms);
  if (options_.slow_handle_ms > 0.0 && elapsed_ms > options_.slow_handle_ms) {
    // The server-side half of the distributed trace: one line keyed by
    // the WIRE trace id, so it joins the client's slow-query record.
    char buf[192];
    std::snprintf(
        buf, sizeof(buf), "SLOW_SHARD trace=%s shard=%zu kind=%u ms=%.3f",
        telemetry::TraceIdHex(request.trace_hi, request.trace_lo).c_str(),
        options_.shard_index, static_cast<unsigned>(request.kind), elapsed_ms);
    if (options_.slow_handle_sink) {
      options_.slow_handle_sink(buf);
    } else {
      std::fprintf(stderr, "%s\n", buf);
    }
  }
  return encoded;
}

GatherPartial ShardServer::Dispatch(const ScatterRequest& request) {
  GatherPartial out;
  out.kind = request.kind;

  if (request.kind == ScatterRequest::Kind::kWarm) {
    if (!request.has_object || !request.has_cells) {
      return GatherPartial::FromStatus(
          request.kind, GatherPartial::Disposition::kError,
          Status::InvalidArgument("warm request needs an object key and cells"));
    }
    out.cells_cached = request.cells.size();
    CachePut({request.object, request.level}, request.checksum, request.cells);
    return out;
  }

  // Resolve the cell slice: shipped inline (and cached under the object
  // key for later reference requests), or referenced from the cache.
  CellsPtr cached;
  const raster::HrCell* cells = nullptr;
  size_t num_cells = 0;
  if (request.has_cells) {
    cells = request.cells.data();
    num_cells = request.cells.size();
    if (request.has_object) {
      CachePut({request.object, request.level}, request.checksum, request.cells);
    }
  } else if (request.has_object) {
    cached = CacheGet({request.object, request.level}, request.checksum);
    if (cached == nullptr) {
      return GatherPartial::FromStatus(request.kind,
                                       GatherPartial::Disposition::kNotCached,
                                       Status::NotFound("slice not cached"));
    }
    cells = cached->data();
    num_cells = cached->size();
  } else {
    return GatherPartial::FromStatus(
        request.kind, GatherPartial::Disposition::kError,
        Status::InvalidArgument(
            "request carries neither cells nor an object reference"));
  }

  if (state_ == nullptr || !state_->point_index.has_value() || num_cells == 0) {
    return out;  // Empty shard or empty slice: zero partial.
  }
  static_assert(ScatterRequest::kKindCount == 3,
                "new scatter kind: execute it against the shard slice below");
  switch (request.kind) {
    case ScatterRequest::Kind::kAggregateCells: {
      out.aggregate = state_->point_index->QueryCells(
          cells, num_cells, join::SearchStrategy::kRadixSpline);
      break;
    }
    case ScatterRequest::Kind::kSelectIds: {
      out.probe_cells = num_cells;
      // Keys from the slice's own index (the base grid's leaf keys), ids
      // remapped to base rows: the router merges the runs with no point
      // data.
      out.keyed_ids = core::SelectKeyedIds(*state_, global_ids_, cells, num_cells);
      break;
    }
    case ScatterRequest::Kind::kWarm:
      break;  // Handled above.
  }
  return out;
}

void ShardServer::CachePut(const CacheKey& key, uint64_t checksum,
                           std::vector<raster::HrCell> cells) {
  const size_t bytes = cells.size() * sizeof(raster::HrCell) + sizeof(CacheEntry);
  if (bytes > cache_budget_bytes_) return;  // Never cache a budget-buster.
  CellsPtr shared =
      std::make_shared<const std::vector<raster::HrCell>>(std::move(cells));
  dbsa::MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    cache_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }
  lru_.push_front(CacheEntry{key, checksum, std::move(shared), bytes});
  map_[key] = lru_.begin();
  cache_bytes_ += bytes;
  while (cache_bytes_ > cache_budget_bytes_ && lru_.size() > 1) {
    const CacheEntry& victim = lru_.back();
    cache_bytes_ -= victim.bytes;
    map_.erase(victim.key);
    lru_.pop_back();
    cache_evictions_->Add(1);
  }
  cache_entries_gauge_->Set(static_cast<double>(map_.size()));
  cache_bytes_gauge_->Set(static_cast<double>(cache_bytes_));
}

ShardServer::CellsPtr ShardServer::CacheGet(const CacheKey& key,
                                            uint64_t checksum) {
  dbsa::MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || it->second->checksum != checksum) {
    // A checksum mismatch means the key now identifies a different
    // approximation (fingerprint collision or level re-use); drop the
    // stale slice so the router's re-ship replaces it.
    if (it != map_.end()) {
      cache_bytes_ -= it->second->bytes;
      lru_.erase(it->second);
      map_.erase(it);
      cache_entries_gauge_->Set(static_cast<double>(map_.size()));
      cache_bytes_gauge_->Set(static_cast<double>(cache_bytes_));
    }
    cache_misses_->Add(1);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Promote.
  cache_hits_->Add(1);
  return it->second->cells;  // Shared, immutable: no copy under the lock.
}

ShardServer::Stats ShardServer::stats() const {
  Stats s;
  s.requests = requests_->Value();
  s.parse_errors = parse_errors_->Value();
  s.epoch_rejects = epoch_rejects_->Value();
  s.cache_hits = cache_hits_->Value();
  s.cache_misses = cache_misses_->Value();
  s.cache_evictions = cache_evictions_->Value();
  dbsa::MutexLock lock(mu_);
  s.cache_entries = map_.size();
  s.cache_bytes = cache_bytes_;
  return s;
}

// ------------------------------------------------------------ ShardRouter

ShardRouter::ShardRouter(std::shared_ptr<const core::ShardedState> sharded,
                         std::shared_ptr<Transport> transport)
    : sharded_(std::move(sharded)), transport_(std::move(transport)) {
  DBSA_CHECK(sharded_ != nullptr && transport_ != nullptr);
  DBSA_CHECK(transport_->num_shards() == sharded_->num_shards());
  known_.resize(sharded_->num_shards());
}

bool ShardRouter::KnownCached(size_t shard, const Key& key) const {
  dbsa::MutexLock lock(known_mu_);
  return known_[shard].count(key) != 0;
}

void ShardRouter::MarkCached(size_t shard, const Key& key, bool cached) const {
  dbsa::MutexLock lock(known_mu_);
  if (cached) {
    auto& keys = known_[shard];
    if (keys.size() >= kMaxKnownKeysPerShard && keys.count(key) == 0) {
      // Bounded in sympathy with the server-side LRU: drop an arbitrary
      // entry (the hint is advisory — at worst one extra inline ship).
      keys.erase(keys.begin());
    }
    keys[key] = 1;
  } else {
    known_[shard].erase(key);
  }
}

namespace {

/// Decodes and validates one shard's framed reply into a GatherPartial.
/// kError partials become a typed StatusException (the shard's code
/// survives the hop to the serving layer's Result.status unchanged);
/// kNotCached passes through for the caller's fallback policy.
GatherPartial DecodePartial(size_t shard, ScatterRequest::Kind kind,
                            const std::string& response) {
  GatherPartial partial;
  const Status decoded = GatherPartial::Decode(response, &partial);
  if (!decoded.ok()) {
    throw StatusException(Status(
        decoded.code(), "shard " + std::to_string(shard) +
                            ": undecodable response: " + decoded.message()));
  }
  if (partial.status == GatherPartial::Disposition::kError) {
    const Status status = partial.ToStatus();
    throw StatusException(Status(
        status.code(), "shard " + std::to_string(shard) + ": " + status.message()));
  }
  if (partial.status == GatherPartial::Disposition::kOk && partial.kind != kind) {
    throw StatusException(Status::Internal("shard " + std::to_string(shard) +
                                           ": response kind mismatch"));
  }
  return partial;
}

GatherPartial RoundtripDecode(Transport& transport, size_t shard,
                              const ScatterRequest& request) {
  return DecodePartial(shard, request.kind,
                       Roundtrip(transport, shard, request.Encode()));
}

/// One shard's slot in an in-flight scatter wave.
struct ShardCall {
  bool active = false;           ///< Has a request in this wave.
  std::string request;           ///< Encoded frame to send.
  Status status = Status::OK();  ///< Transport status of the completion.
  std::string frame;             ///< Framed reply when status is OK.
  uint64_t correlation = 0;
  double start_ms = 0.0;         ///< Trace-epoch offset at Send.
  double duration_ms = 0.0;
};

/// Starts every active slot's request through Transport::Send and blocks
/// until every completion lands — unconditionally, so no callback can
/// outlive the wave. Issuing runs under the caller's RunMaybeParallel
/// policy when `parallel_issue` is set: for an inline-completing
/// transport (loopback) that IS the shard-execution parallelism, for an
/// async transport the issue loop merely enqueues and the per-shard
/// demux engines overlap the work. Completions land in any order; slots
/// keep wave results positionally, so completion order never reaches the
/// merge. Per-call wall time and correlation ids are captured for span
/// recording on the gathering thread.
void SendWave(Transport& transport, const core::ExecHooks& hooks,
              bool parallel_issue, const std::vector<uint32_t>& shards,
              telemetry::QueryTrace* trace, std::vector<ShardCall>* calls) {
  struct WaveState {
    dbsa::Mutex mu;
    dbsa::CondVar cv;
    size_t remaining DBSA_GUARDED_BY(mu) = 0;
  };
  size_t active = 0;
  for (const ShardCall& call : *calls) active += call.active ? 1 : 0;
  if (active == 0) return;
  auto state = std::make_shared<WaveState>();
  {
    dbsa::MutexLock lock(state->mu);
    state->remaining = active;
  }
  const auto issue_one = [&](size_t t) {
    ShardCall& call = (*calls)[t];
    if (!call.active) return;
    call.start_ms = trace != nullptr ? trace->ElapsedMs() : 0.0;
    const auto sent = std::chrono::steady_clock::now();
    call.correlation = transport.Send(
        shards[t], std::move(call.request),
        [state, &call, sent](StatusOr<std::string> result) {
          call.duration_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - sent)
                                 .count();
          if (result.ok()) {
            call.frame = std::move(result).value();
          } else {
            call.status = result.status();
          }
          {
            dbsa::MutexLock lock(state->mu);
            --state->remaining;
          }
          state->cv.NotifyOne();
        });
  };
  // RunMaybeParallel is a barrier: every Send (and its correlation-id
  // write) has returned before the wait below starts.
  if (parallel_issue) {
    core::RunMaybeParallel(hooks, calls->size(), issue_one);
  } else {
    for (size_t t = 0; t < calls->size(); ++t) issue_one(t);
  }
  dbsa::MutexLock lock(state->mu);
  while (state->remaining != 0) state->cv.Wait(lock);
}

}  // namespace

std::vector<GatherPartial> ShardRouter::GatherFromShards(
    ScatterRequest::Kind kind, const ObjectKey* object, int level,
    const query::ErrorBound& bound, const raster::HierarchicalRaster& hr,
    const core::ShardedState::Scatter& scatter,
    const core::ExecHooks& hooks) const {
  telemetry::QueryTrace* trace = hooks.trace;
  const raster::HrCell* cells = hr.cells().data();
  const size_t num_cells = hr.cells().size();
  const core::ShardedState::CellRoute* routes = scatter.routes.data();
  const std::vector<uint32_t>& surviving = scatter.shards;
  const size_t n = surviving.size();
  // Same fan-out threshold as the in-process executor: scheduling (not
  // results) is all that changes with it.
  const bool parallel_issue = num_cells >= core::kShardFanOutMinCells;
  const Key key{object != nullptr ? *object : ObjectKey(), level};

  ScatterRequest base;
  base.kind = kind;
  base.bound_kind = bound.kind;
  base.bound_epsilon = bound.epsilon;
  base.level = level;
  base.checksum = ApproxChecksum(cells, num_cells);
  base.epoch = epoch_;
  if (trace != nullptr) {
    base.trace_hi = trace->ctx().trace_hi;
    base.trace_lo = trace->ctx().trace_lo;
    base.span_id = trace->ctx().span_id;
  }
  if (object != nullptr) {
    base.has_object = true;
    base.object = *object;
  }

  // Wave 1: reference-only where the shard is believed to hold the key
  // (no cell payload — the per-shard HR cache hit path), inline cells
  // otherwise.
  std::vector<ShardCall> calls(n);
  std::vector<char> referenced(n, 0);
  for (size_t t = 0; t < n; ++t) {
    ScatterRequest request = base;
    if (object != nullptr && KnownCached(surviving[t], key)) {
      referenced[t] = 1;
    } else {
      request.has_cells = true;
      request.cells =
          sharded_->PruneCellsForShard(surviving[t], cells, routes, num_cells);
    }
    calls[t].active = true;
    calls[t].request = request.Encode();
  }
  SendWave(*transport_, hooks, parallel_issue, surviving, trace, &calls);

  // Harvest on the gathering thread: spans, fallbacks, errors. Every
  // completion has landed, so throwing from here leaves nothing in
  // flight. The first failing shard (ascending) wins — deterministic
  // regardless of completion order.
  const auto record_span = [&](size_t t) {
    if (trace != nullptr) {
      trace->Record("shard_roundtrip", calls[t].start_ms, calls[t].duration_ms,
                    static_cast<int>(surviving[t]), calls[t].correlation);
    }
  };
  std::vector<GatherPartial> partials(n);
  bool any_fallback = false;
  for (size_t t = 0; t < n; ++t) {
    record_span(t);
    calls[t].active = false;  // Only fallback slots re-enter wave 2.
    if (!calls[t].status.ok()) {
      throw StatusException(Status(calls[t].status.code(),
                                   "shard " + std::to_string(surviving[t]) +
                                       ": " + calls[t].status.message()));
    }
    partials[t] = DecodePartial(surviving[t], kind, calls[t].frame);
    if (partials[t].status == GatherPartial::Disposition::kOk) {
      if (object != nullptr && !referenced[t]) {
        MarkCached(surviving[t], key, true);
      }
      continue;
    }
    // kNotCached. A reference miss falls back to shipping the cells; a
    // shard rejecting an INLINE slice this way is a protocol violation.
    if (!referenced[t]) {
      throw StatusException(
          Status::Internal("shard " + std::to_string(surviving[t]) +
                           ": rejected inline slice: " + partials[t].error));
    }
    MarkCached(surviving[t], key, false);
    calls[t] = ShardCall();
    calls[t].active = true;
    any_fallback = true;
  }
  if (!any_fallback) return partials;

  // Wave 2: re-send with inline cells to the shards that evicted or
  // replaced the referenced slice.
  for (size_t t = 0; t < n; ++t) {
    if (!calls[t].active) continue;
    ScatterRequest request = base;
    request.has_cells = true;
    request.cells =
        sharded_->PruneCellsForShard(surviving[t], cells, routes, num_cells);
    calls[t].request = request.Encode();
  }
  SendWave(*transport_, hooks, parallel_issue, surviving, trace, &calls);
  for (size_t t = 0; t < n; ++t) {
    if (!calls[t].active) continue;
    record_span(t);
    if (!calls[t].status.ok()) {
      throw StatusException(Status(calls[t].status.code(),
                                   "shard " + std::to_string(surviving[t]) +
                                       ": " + calls[t].status.message()));
    }
    partials[t] = DecodePartial(surviving[t], kind, calls[t].frame);
    if (partials[t].status != GatherPartial::Disposition::kOk) {
      throw StatusException(
          Status::Internal("shard " + std::to_string(surviving[t]) +
                           ": rejected inline slice: " + partials[t].error));
    }
    if (object != nullptr) MarkCached(surviving[t], key, true);
  }
  return partials;
}

core::ShardedState::Scatter ShardRouter::Route(
    const raster::HierarchicalRaster& hr, std::atomic<uint32_t>* touched,
    telemetry::QueryTrace* trace) const {
  telemetry::SpanTimer route_span(trace, "route");
  return sharded_->PlanScatter(hr, touched);
}

join::CellAggregate ShardRouter::ScatterGather(
    const raster::HierarchicalRaster& hr, const ObjectKey* object, int level,
    const query::ErrorBound& bound, const core::ExecHooks& hooks,
    std::atomic<uint32_t>* touched) const {
  const core::ShardedState::Scatter scatter = Route(hr, touched, hooks.trace);
  const std::vector<GatherPartial> partials =
      GatherFromShards(ScatterRequest::Kind::kAggregateCells, object, level,
                       bound, hr, scatter, hooks);
  // Completion order was whatever the wire delivered; partials are
  // positional in the ascending survivor list, so the canonical gather
  // preserves byte identity with the in-process engine.
  telemetry::SpanTimer merge_span(hooks.trace, "merge");
  std::vector<join::CellAggregate> aggregates(partials.size());
  for (size_t t = 0; t < partials.size(); ++t) {
    aggregates[t] = partials[t].aggregate;
  }
  return core::GatherCells(aggregates);
}

namespace {

/// The per-shard cache key of a probed polygon: its region-table index,
/// or the geometry fingerprint of an ad-hoc polygon.
ObjectKey ProbeObject(const core::Probe& probe) {
  return probe.poly_index == core::kAdHocPolygon
             ? PolygonFingerprint(probe.poly)
             : ObjectKey(static_cast<uint64_t>(probe.poly_index));
}

}  // namespace

join::CellAggregate ShardRouter::ProbeCells(const core::Probe& probe,
                                            const core::ExecHooks& hooks) const {
  const ObjectKey object = ProbeObject(probe);
  return ScatterGather(probe.hr, &object, probe.level, probe.bound, hooks,
                       probe.touched);
}

std::vector<uint32_t> ShardRouter::SelectIds(const core::Probe& probe,
                                             const core::ExecHooks& hooks,
                                             size_t* cells) const {
  const ObjectKey object = ProbeObject(probe);
  const core::ShardedState::Scatter scatter =
      Route(probe.hr, probe.touched, hooks.trace);
  std::vector<GatherPartial> partials =
      GatherFromShards(ScatterRequest::Kind::kSelectIds, &object, probe.level,
                       probe.bound, probe.hr, scatter, hooks);
  // Cells are counted per shard slice, exact even on cache-reference hits
  // (the partials report them). Each partial's pairs are one ascending run
  // (GatherPartial::Decode enforces it), positional in the ascending
  // survivor list.
  telemetry::SpanTimer gather_span(hooks.trace, "gather");
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> runs;
  runs.reserve(partials.size());
  *cells = 0;
  for (GatherPartial& partial : partials) {
    *cells += partial.probe_cells;
    runs.push_back(std::move(partial.keyed_ids));
  }
  return core::GatherIds(std::move(runs));
}

size_t ShardRouter::WarmObject(const ObjectKey& object, int level,
                               const raster::HierarchicalRaster& hr) {
  const raster::HrCell* cells = hr.cells().data();
  const size_t num_cells = hr.cells().size();
  const core::ShardedState::Scatter scatter = sharded_->PlanScatter(hr, nullptr);
  const uint64_t checksum = ApproxChecksum(cells, num_cells);
  for (const uint32_t s : scatter.shards) {
    ScatterRequest request;
    request.kind = ScatterRequest::Kind::kWarm;
    request.bound_kind = query::BoundKind::kGridLevel;
    request.level = level;
    request.checksum = checksum;
    request.epoch = epoch_;
    request.has_object = true;
    request.object = object;
    request.has_cells = true;
    request.cells =
        sharded_->PruneCellsForShard(s, cells, scatter.routes.data(), num_cells);
    RoundtripDecode(*transport_, s, request);
    MarkCached(s, Key{object, level}, true);
  }
  return scatter.shards.size();
}

// ------------------------------------------ transport-backed entry points

core::AggregateAnswer ExecuteAggregate(ShardRouter& router, join::AggKind agg,
                                       core::Attr attr,
                                       const query::ErrorBound& bound,
                                       core::Mode mode,
                                       const core::ExecHooks& hooks) {
  return core::ExecuteAggregate(router, agg, attr, bound, mode, hooks);
}

core::CountAnswer ExecuteCount(ShardRouter& router, const geom::Polygon& poly,
                               const query::ErrorBound& bound,
                               const core::ExecHooks& hooks) {
  return core::ExecuteCount(router, poly, bound, hooks);
}

core::SelectAnswer ExecuteSelect(ShardRouter& router, const geom::Polygon& poly,
                                 const query::ErrorBound& bound,
                                 const core::ExecHooks& hooks) {
  return core::ExecuteSelect(router, poly, bound, hooks);
}

}  // namespace dbsa::service
