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
                         const std::vector<uint32_t>& global_ids,
                         const Options& options)
    : ShardServer(state,
                  state != nullptr ? std::make_shared<const std::vector<uint32_t>>(
                                         core::BaseIdsByPosition(*state, global_ids))
                                   : nullptr,
                  options) {}

ShardServer::ShardServer(const core::ShardedState::Shard& shard,
                         const Options& options)
    : ShardServer(shard.state, shard.ids_by_position, options) {}

ShardServer::ShardServer(
    std::shared_ptr<const core::EngineState> state,
    std::shared_ptr<const std::vector<uint32_t>> ids_by_position,
    const Options& options)
    : state_(std::move(state)),
      ids_by_position_(std::move(ids_by_position)),
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
  DBSA_CHECK((state_ == nullptr) == (ids_by_position_ == nullptr));
  DBSA_CHECK(state_ == nullptr ||
             state_->points->size() == ids_by_position_->size());
}

GatherPartial ShardServer::ParseError(const Status& parsed) {
  // The decoder's code travels back typed: a version-skewed frame answers
  // kUnimplemented, corruption answers kInvalidArgument.
  parse_errors_->Add(1);
  GatherPartial partial = GatherPartial::FromStatus(
      ScatterRequest::Kind::kAggregateCells, GatherPartial::Disposition::kError,
      Status(parsed.code(), "bad request: " + parsed.message()));
  partial.epoch = options_.serving_epoch;
  return partial;
}

GatherPartial ShardServer::Serve(const ScatterRequest& request) {
  GatherPartial partial;
  if (options_.serving_epoch != 0 && request.epoch != 0 &&
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
  return partial;
}

std::string ShardServer::Handle(const std::string& request_bytes) {
  Timer timer;
  // A batch runs the per-request path on every entry, in order, and
  // answers with one GatherBatch; an undecodable frame, a whole batch
  // included, gets one error partial. The request counters count entries.
  const bool batch = request_bytes.size() > kWireTypeOffset &&
                     static_cast<uint8_t>(request_bytes[kWireTypeOffset]) ==
                         static_cast<uint8_t>(MessageType::kScatterBatch);
  std::vector<ScatterRequest> requests;
  Status parsed;
  if (batch) {
    ScatterBatch decoded;
    parsed = ScatterBatch::Decode(request_bytes, &decoded);
    requests = std::move(decoded.requests);
  } else {
    requests.resize(1);
    parsed = ScatterRequest::Decode(request_bytes, &requests[0]);
  }
  std::string encoded;
  if (!parsed.ok()) {
    requests_->Add(1);
    encoded = ParseError(parsed).Encode();
  } else if (!batch) {
    requests_->Add(1);
    encoded = Serve(requests[0]).Encode();
  } else {
    requests_->Add(requests.size());
    GatherBatch reply;
    reply.partials.reserve(requests.size());
    for (const ScatterRequest& request : requests) {
      reply.partials.push_back(Serve(request));
    }
    encoded = reply.Encode();
  }
  // Echo the request's correlation id: on a multiplexed connection the
  // id — not stream position — pairs this reply with its request.
  PatchCorrelation(&encoded, PeekCorrelation(request_bytes));
  const double elapsed_ms = timer.Millis();
  handle_ms_->Record(elapsed_ms);
  if (options_.slow_handle_ms > 0.0 && elapsed_ms > options_.slow_handle_ms) {
    // The server-side half of the distributed trace: one line keyed by
    // the WIRE trace id, so it joins the client's slow-query record. A
    // batch's entries belong to one query: the first names it.
    const ScatterRequest untraced;
    const ScatterRequest& first = parsed.ok() ? requests[0] : untraced;
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "SLOW_SHARD trace=%s shard=%zu kind=%u entries=%zu ms=%.3f",
                  telemetry::TraceIdHex(first.trace_hi, first.trace_lo).c_str(),
                  options_.shard_index, static_cast<unsigned>(first.kind),
                  parsed.ok() ? requests.size() : size_t{1}, elapsed_ms);
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
      out.keyed_ids =
          core::SelectKeyedIds(*state_, *ids_by_position_, cells, num_cells);
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

/// The per-shard cache key of a probed polygon: its region-table index,
/// or the geometry fingerprint of an ad-hoc polygon.
ObjectKey ProbeObject(const core::Probe& probe) {
  return probe.poly_index == core::kAdHocPolygon
             ? PolygonFingerprint(probe.poly)
             : ObjectKey(static_cast<uint64_t>(probe.poly_index));
}

Status ShardStatus(size_t shard, const Status& status) {
  return Status(status.code(),
                "shard " + std::to_string(shard) + ": " + status.message());
}

/// One shard's answer to one request of kind `kind`: a kError partial
/// becomes its typed status (the shard's code survives the hop to the
/// serving layer's Result.status unchanged) and an OK partial of another
/// kind a protocol error; kNotCached passes for the caller's fallback.
Status CheckPartial(size_t shard, ScatterRequest::Kind kind,
                    const GatherPartial& partial) {
  if (partial.status == GatherPartial::Disposition::kError) {
    return ShardStatus(shard, partial.ToStatus());
  }
  if (partial.status == GatherPartial::Disposition::kOk && partial.kind != kind) {
    return Status::Internal("shard " + std::to_string(shard) +
                            ": response kind mismatch");
  }
  return Status::OK();
}

/// One (probe, surviving shard) pair of a batch: the probe's position and
/// the shard's position in its ascending survivor list.
struct Slot {
  uint32_t entry = 0;
  uint32_t survivor = 0;
};

/// One wire frame of a wave: the shard it goes to, the slots it carries
/// in probe order, and its completion.
struct WireFrame {
  uint32_t shard = 0;
  std::vector<Slot> slots;
  std::string request;           ///< Encoded frame to send.
  Status status = Status::OK();  ///< Transport status of the completion.
  std::string reply;             ///< Framed reply when status is OK.
  uint64_t correlation = 0;
  double start_ms = 0.0;         ///< Trace-epoch offset at Send.
  double duration_ms = 0.0;
};

/// Starts every frame's request through Transport::Send from the calling
/// thread, then blocks until every completion lands — unconditionally, so
/// no callback can outlive the wave. On the socket carrier Send only
/// stamps and enqueues a frame, and the per-shard demux engines overlap
/// the shards; a loopback transport answers inline, so its shards run one
/// after another. Completions land in any order; frames keep their results
/// positionally, so completion order never reaches the merge. Per-frame
/// wall time and correlation ids are captured for span recording on the
/// gathering thread.
void SendWave(Transport& transport, telemetry::QueryTrace* trace,
              std::vector<WireFrame>* frames) {
  struct WaveState {
    dbsa::Mutex mu;
    dbsa::CondVar cv;
    size_t remaining DBSA_GUARDED_BY(mu) = 0;
  };
  if (frames->empty()) return;
  auto state = std::make_shared<WaveState>();
  {
    dbsa::MutexLock lock(state->mu);
    state->remaining = frames->size();
  }
  for (WireFrame& frame : *frames) {
    frame.start_ms = trace != nullptr ? trace->ElapsedMs() : 0.0;
    const auto sent = std::chrono::steady_clock::now();
    frame.correlation = transport.Send(
        frame.shard, std::move(frame.request),
        [state, &frame, sent](StatusOr<std::string> result) {
          frame.duration_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - sent)
                                  .count();
          if (result.ok()) {
            frame.reply = std::move(result).value();
          } else {
            frame.status = result.status();
          }
          {
            dbsa::MutexLock lock(state->mu);
            --state->remaining;
          }
          state->cv.NotifyOne();
        });
  }
  dbsa::MutexLock lock(state->mu);
  while (state->remaining != 0) state->cv.Wait(lock);
}

/// The partials of a completed frame's reply, one per slot in order: a
/// GatherBatch of the frame's length, or, for a single-slot frame, a bare
/// partial. A bare kError partial answering a batch (an undecodable
/// batch, or a peer that predates batches) is every slot's answer.
Status DecodeReply(const WireFrame& frame, std::vector<GatherPartial>* partials) {
  const auto undecodable = [&](const Status& status) {
    return Status(status.code(), "shard " + std::to_string(frame.shard) +
                                     ": undecodable response: " + status.message());
  };
  MessageType type = MessageType::kGatherPartial;
  const char* payload = nullptr;
  size_t payload_size = 0;
  const Status framed = ParseFrame(frame.reply, &type, &payload, &payload_size);
  if (!framed.ok()) return undecodable(framed);
  if (type == MessageType::kGatherBatch) {
    GatherBatch batch;
    const Status decoded = GatherBatch::Decode(frame.reply, &batch);
    if (!decoded.ok()) return undecodable(decoded);
    if (batch.partials.size() != frame.slots.size()) {
      return Status::Internal("shard " + std::to_string(frame.shard) + ": " +
                              std::to_string(batch.partials.size()) +
                              " partials answer " +
                              std::to_string(frame.slots.size()) + " requests");
    }
    *partials = std::move(batch.partials);
    return Status::OK();
  }
  GatherPartial partial;
  const Status decoded = GatherPartial::Decode(frame.reply, &partial);
  if (!decoded.ok()) return undecodable(decoded);
  if (frame.slots.size() > 1 &&
      partial.status != GatherPartial::Disposition::kError) {
    return Status::Internal("shard " + std::to_string(frame.shard) +
                            ": one partial answers a batch of " +
                            std::to_string(frame.slots.size()));
  }
  partials->assign(frame.slots.size(), partial);
  return Status::OK();
}

}  // namespace

std::vector<ShardRouter::Entry> ShardRouter::ScatterProbes(
    ScatterRequest::Kind kind, const std::vector<core::Probe>& probes,
    const core::ExecHooks& hooks) const {
  telemetry::QueryTrace* trace = hooks.trace;
  const size_t n = probes.size();
  std::vector<Entry> entries(n);
  std::vector<uint64_t> checksums(n);
  // Per probe and survivor: the encoded request of the current wave, and
  // whether wave 1 sent it as a cache reference.
  std::vector<std::vector<std::string>> requests(n);
  std::vector<std::vector<char>> referenced(n);

  const auto encode = [&](size_t i, size_t t, bool reference) {
    const core::Probe& probe = probes[i];
    ScatterRequest request;
    request.kind = kind;
    request.bound_kind = probe.bound.kind;
    request.bound_epsilon = probe.bound.epsilon;
    request.level = probe.level;
    request.checksum = checksums[i];
    request.epoch = epoch_;
    if (trace != nullptr) {
      request.trace_hi = trace->ctx().trace_hi;
      request.trace_lo = trace->ctx().trace_lo;
      request.span_id = trace->ctx().span_id;
    }
    request.has_object = true;
    request.object = entries[i].key.object;
    if (!reference) {
      const raster::HrCell* cells = probe.hr.cells().data();
      const size_t num_cells = probe.hr.cells().size();
      request.has_cells = true;
      request.cells = sharded_->PruneCellsForShard(
          entries[i].plan.shards[t], cells, entries[i].plan.routes.data(), num_cells);
    }
    requests[i][t] = request.Encode();
  };

  // Wave 1: route every probe and encode its request to each surviving
  // shard — reference-only where the shard is believed to hold the key
  // (no cell payload: the per-shard HR cache hit path), inline cells
  // otherwise; a warm always ships its cells.
  std::vector<Slot> wave;
  {
    telemetry::SpanTimer route_span(trace, "route");
    core::RunMaybeParallel(hooks, n, [&](size_t i) {
      const core::Probe& probe = probes[i];
      Entry& entry = entries[i];
      entry.plan = sharded_->PlanScatter(probe.hr, probe.touched);
      entry.key = Key{ProbeObject(probe), probe.level};
      checksums[i] = ApproxChecksum(probe.hr.cells().data(), probe.hr.cells().size());
      const size_t m = entry.plan.shards.size();
      entry.partials.resize(m);
      requests[i].resize(m);
      referenced[i].assign(m, 0);
      for (size_t t = 0; t < m; ++t) {
        referenced[i][t] = kind != ScatterRequest::Kind::kWarm &&
                           KnownCached(entry.plan.shards[t], entry.key);
        encode(i, t, referenced[i][t] != 0);
      }
    });
    for (size_t i = 0; i < n; ++i) {
      for (size_t t = 0; t < entries[i].plan.shards.size(); ++t) {
        wave.push_back(Slot{static_cast<uint32_t>(i), static_cast<uint32_t>(t)});
      }
    }
  }

  for (int round = 1; !wave.empty(); ++round) {
    // One frame per shard holding its slots in probe order, split only
    // where the payload would pass kMaxBatchBytes; a frame of one slot
    // travels bare.
    std::vector<std::vector<Slot>> by_shard(num_shards());
    for (const Slot& slot : wave) {
      by_shard[entries[slot.entry].plan.shards[slot.survivor]].push_back(slot);
    }
    std::vector<WireFrame> frames;
    const auto close_frame = [&](WireFrame* frame) {
      if (frame->slots.size() == 1) {
        const Slot& slot = frame->slots[0];
        frame->request = std::move(requests[slot.entry][slot.survivor]);
      } else {
        std::vector<std::string> parts;
        parts.reserve(frame->slots.size());
        for (const Slot& slot : frame->slots) {
          parts.push_back(std::move(requests[slot.entry][slot.survivor]));
        }
        frame->request = EncodeBatch(MessageType::kScatterBatch, parts);
      }
      frames.push_back(std::move(*frame));
    };
    for (size_t s = 0; s < by_shard.size(); ++s) {
      if (by_shard[s].empty()) continue;
      WireFrame frame;
      frame.shard = static_cast<uint32_t>(s);
      size_t payload = sizeof(uint32_t);  // The entry count.
      for (const Slot& slot : by_shard[s]) {
        const size_t bytes =
            sizeof(uint32_t) + requests[slot.entry][slot.survivor].size();
        if (!frame.slots.empty() && payload + bytes > kMaxBatchBytes) {
          close_frame(&frame);
          frame = WireFrame();
          frame.shard = static_cast<uint32_t>(s);
          payload = sizeof(uint32_t);
        }
        frame.slots.push_back(slot);
        payload += bytes;
      }
      close_frame(&frame);
    }
    SendWave(*transport_, trace, &frames);

    // Harvest on the gathering thread: every completion has landed, so
    // throwing from here leaves nothing in flight. Transport failures
    // surface first, by ascending shard; then entry errors, in probe
    // order and then shard order — deterministic whatever the completion
    // order.
    for (const WireFrame& frame : frames) {
      if (trace != nullptr) {
        trace->Record("shard_roundtrip", frame.start_ms, frame.duration_ms,
                      static_cast<int>(frame.shard), frame.correlation);
      }
    }
    for (const WireFrame& frame : frames) {
      if (!frame.status.ok()) {
        throw StatusException(ShardStatus(frame.shard, frame.status));
      }
    }
    std::vector<std::vector<Status>> errors(n);
    for (const Slot& slot : wave) {
      errors[slot.entry].resize(entries[slot.entry].partials.size());
    }
    for (const WireFrame& frame : frames) {
      std::vector<GatherPartial> partials;
      const Status decoded = DecodeReply(frame, &partials);
      for (size_t k = 0; k < frame.slots.size(); ++k) {
        const Slot& slot = frame.slots[k];
        if (!decoded.ok()) {
          errors[slot.entry][slot.survivor] = decoded;
          continue;
        }
        errors[slot.entry][slot.survivor] = CheckPartial(frame.shard, kind, partials[k]);
        entries[slot.entry].partials[slot.survivor] = std::move(partials[k]);
      }
    }
    std::vector<Slot> resend;
    Status first_error = Status::OK();
    for (const Slot& slot : wave) {
      Entry& entry = entries[slot.entry];
      const uint32_t shard = entry.plan.shards[slot.survivor];
      Status status = errors[slot.entry][slot.survivor];
      const GatherPartial& partial = entry.partials[slot.survivor];
      const bool was_reference = round == 1 && referenced[slot.entry][slot.survivor];
      if (status.ok() && partial.status == GatherPartial::Disposition::kNotCached) {
        if (was_reference) {
          // The shard evicted or replaced the referenced slice: wave 2
          // ships the cells.
          MarkCached(shard, entry.key, false);
          resend.push_back(slot);
          continue;
        }
        // A shard rejecting an INLINE slice this way breaks the protocol.
        status = Status::Internal("shard " + std::to_string(shard) +
                                  ": rejected inline slice: " + partial.error);
      }
      if (!status.ok()) {
        if (first_error.ok()) first_error = status;
        continue;
      }
      if (!was_reference) MarkCached(shard, entry.key, true);
    }
    if (!first_error.ok()) throw StatusException(first_error);

    // Wave 2: the slots that missed, now with inline cells.
    if (!resend.empty()) {
      telemetry::SpanTimer route_span(trace, "route");
      core::RunMaybeParallel(hooks, resend.size(), [&](size_t r) {
        encode(resend[r].entry, resend[r].survivor, /*reference=*/false);
      });
    }
    wave = std::move(resend);
  }
  return entries;
}

std::vector<join::CellAggregate> ShardRouter::ProbeCells(
    const std::vector<core::Probe>& probes, const core::ExecHooks& hooks) const {
  const std::vector<Entry> entries =
      ScatterProbes(ScatterRequest::Kind::kAggregateCells, probes, hooks);
  // Completion order was whatever the wire delivered; partials are
  // positional in each probe's ascending survivor list, so the canonical
  // gather preserves byte identity with the in-process engine.
  telemetry::SpanTimer merge_span(hooks.trace, "merge");
  std::vector<join::CellAggregate> out(entries.size());
  std::vector<join::CellAggregate> aggregates;
  for (size_t i = 0; i < entries.size(); ++i) {
    aggregates.clear();
    for (const GatherPartial& partial : entries[i].partials) {
      aggregates.push_back(partial.aggregate);
    }
    out[i] = core::GatherCells(aggregates);
  }
  return out;
}

std::vector<uint32_t> ShardRouter::SelectIds(const core::Probe& probe,
                                             const core::ExecHooks& hooks,
                                             size_t* cells) const {
  std::vector<Entry> entries =
      ScatterProbes(ScatterRequest::Kind::kSelectIds, {probe}, hooks);
  // Cells are counted per shard slice, exact even on cache-reference hits
  // (the partials report them). Each partial's pairs are one ascending run
  // (GatherPartial::Decode enforces it), positional in the ascending
  // survivor list.
  telemetry::SpanTimer gather_span(hooks.trace, "gather");
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> runs;
  runs.reserve(entries[0].partials.size());
  *cells = 0;
  for (GatherPartial& partial : entries[0].partials) {
    *cells += partial.probe_cells;
    runs.push_back(std::move(partial.keyed_ids));
  }
  return core::GatherIds(std::move(runs));
}

void ShardRouter::Warm(const std::vector<core::Probe>& probes,
                       const core::ExecHooks& hooks) {
  ScatterProbes(ScatterRequest::Kind::kWarm, probes, hooks);
}

}  // namespace dbsa::service
