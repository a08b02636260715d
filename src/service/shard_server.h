// The shard-server layer: each spatial shard of a ShardedState runs
// behind a ShardServer that speaks ONLY the serialized wire format of
// service/transport.h — the single-process rehearsal of a multi-node
// deployment. A ShardServer owns one shard's EngineState slice (points,
// attribute columns, point index), the local→base row id map, and a
// per-shard HR cache of routed cell slices, and knows nothing about the
// other shards or the router.
//
// The client half is ShardRouter, the remote ShardSource of the core
// executors (core/engine_state.h): it keeps the routing metadata (the
// ShardedState — curve-run key ranges and leaf bounds are a few dozen
// integers per shard), prunes each query approximation per shard, and
// executes scatter/gather over a Transport. The results are
// BYTE-IDENTICAL to the in-process sharded engine: cell aggregates
// travel as IEEE-754 bit patterns and merge in ascending shard order;
// selections travel as (leaf key, base row id) runs, ascending per shard,
// and merge into the canonical (key, row) order (see core/sharded_state.h
// for the merge identity; tested in shard_server_test.cc).
//
// Per-shard HR cache: a shard caches the routed cell slice of each
// approximation it has seen, keyed by (ApproxCache object key, epsilon
// level) — region polygons by table index, ad-hoc polygons by geometry
// fingerprint. The router remembers which shard holds which key and
// sends a reference-only ScatterRequest (no cell payload) on repeat
// queries; a shard that evicted the entry answers kNotCached and the
// router falls back to shipping the cells. Reference requests carry a
// checksum of the full approximation, so a stale or fingerprint-colliding
// entry is detected and re-shipped instead of silently reused.
// QueryService::WarmCache uses the same machinery to pre-warm each
// shard's cache with exactly the regions whose cells route to it.

#ifndef DBSA_SERVICE_SHARD_SERVER_H_
#define DBSA_SERVICE_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sharded_state.h"
#include "service/transport.h"
#include "util/thread_annotations.h"

namespace dbsa::service {

/// One shard behind the message seam. Thread-safe: Handle may be called
/// concurrently (concurrent queries, or a listener's connections).
class ShardServer {
 public:
  struct Options {
    /// Budget for the per-shard cache of routed cell slices.
    size_t cell_cache_budget_bytes = size_t{8} << 20;
    /// Registry the server's dbsa_shard_* metrics live in (labelled with
    /// `shard_index` so several servers share one registry — the loopback
    /// deployment); null gets a private one.
    std::shared_ptr<telemetry::MetricRegistry> registry;
    size_t shard_index = 0;
    /// > 0: a Handle() call exceeding this wall-clock budget emits one
    /// SLOW_SHARD line (with the request's wire trace id) to the sink.
    double slow_handle_ms = 0.0;
    /// Destination of SLOW_SHARD lines; null -> stderr.
    std::function<void(const std::string&)> slow_handle_sink;
    /// Dataset generation this server serves (the snapshot's epoch stamp;
    /// see src/snapshot/). Non-zero: a request pinned to a DIFFERENT
    /// non-zero epoch is rejected with a typed kFailedPrecondition kError
    /// partial — the read-your-epoch guarantee across failover. Zero (the
    /// default) serves any epoch — the in-process/test configuration
    /// where no snapshot defines a generation. Every partial this server
    /// emits echoes this value in GatherPartial::epoch.
    uint64_t serving_epoch = 0;
  };

  /// Serves one shard slice. `state` may be null (an empty shard): every
  /// query then answers zeros. `global_ids[local row] = base row`; the
  /// server keeps it only in the slice index's position order
  /// (core::BaseIdsByPosition), the order a selection reads it in.
  ShardServer(std::shared_ptr<const core::EngineState> state,
              const std::vector<uint32_t>& global_ids, const Options& options);

  /// Serves a slice of an in-process ShardedState, sharing its state and
  /// its position-ordered ids instead of building a second copy.
  ShardServer(const core::ShardedState::Shard& shard, const Options& options);

  /// Handles one framed ScatterRequest and returns a framed GatherPartial,
  /// or one framed ScatterBatch and returns a framed GatherBatch whose
  /// entry i answers request i. Each request (each entry of a batch) is
  /// decoded, epoch-checked and executed on its own. Malformed input —
  /// a whole batch included — yields one kError partial carrying the
  /// decoder's typed StatusCode (kUnimplemented for version-skewed, e.g.
  /// v1, frames, kInvalidArgument for corruption), never UB.
  std::string Handle(const std::string& request_bytes);

  struct Stats {
    uint64_t requests = 0;  ///< Requests, a batch's entries each counted.
    uint64_t parse_errors = 0;
    uint64_t epoch_rejects = 0;  ///< Requests pinned to another epoch.
    size_t cache_entries = 0;
    size_t cache_bytes = 0;
    uint64_t cache_hits = 0;      ///< Reference requests served from cache.
    uint64_t cache_misses = 0;    ///< Reference requests answered kNotCached.
    uint64_t cache_evictions = 0;
  };
  /// Thin read of the registry counters (plus the mutex-guarded cache
  /// directory sizes).
  Stats stats() const;

  size_t num_points() const {
    return ids_by_position_ != nullptr ? ids_by_position_->size() : 0;
  }

  /// The registry the server records into (the process registry a
  /// scraping listener renders; private if Options carried none).
  const std::shared_ptr<telemetry::MetricRegistry>& registry() const {
    return registry_;
  }

 private:
  using CacheKey = ObjectLevelKey;
  /// Slices are shared, never copied: a hit hands out the pointer under
  /// the lock, so concurrent reference requests do not serialize on a
  /// multi-kilobyte copy.
  using CellsPtr = std::shared_ptr<const std::vector<raster::HrCell>>;
  struct CacheEntry {
    CacheKey key;
    uint64_t checksum = 0;  ///< Of the full approximation (see header).
    CellsPtr cells;
    size_t bytes = 0;
  };
  using LruList = std::list<CacheEntry>;

  /// Both public constructors end here; `ids_by_position` is null iff
  /// `state` is null.
  ShardServer(std::shared_ptr<const core::EngineState> state,
              std::shared_ptr<const std::vector<uint32_t>> ids_by_position,
              const Options& options);

  /// The kError partial answering an undecodable frame (counted).
  GatherPartial ParseError(const Status& parsed);
  /// One decoded request: the epoch check, then Dispatch; the partial
  /// carries the serving epoch.
  GatherPartial Serve(const ScatterRequest& request);
  GatherPartial Dispatch(const ScatterRequest& request);
  void CachePut(const CacheKey& key, uint64_t checksum,
                std::vector<raster::HrCell> cells);
  CellsPtr CacheGet(const CacheKey& key, uint64_t checksum);

  std::shared_ptr<const core::EngineState> state_;
  /// Base row of each position of the slice's point index.
  std::shared_ptr<const std::vector<uint32_t>> ids_by_position_;
  const size_t cache_budget_bytes_;
  Options options_;

  std::shared_ptr<telemetry::MetricRegistry> registry_;
  telemetry::Counter* requests_;
  telemetry::Counter* parse_errors_;
  telemetry::Counter* epoch_rejects_;
  telemetry::Counter* cache_hits_;
  telemetry::Counter* cache_misses_;
  telemetry::Counter* cache_evictions_;
  telemetry::Gauge* cache_entries_gauge_;
  telemetry::Gauge* cache_bytes_gauge_;
  telemetry::Histogram* handle_ms_;

  mutable dbsa::Mutex mu_;
  /// Front = most recently used.
  LruList lru_ DBSA_GUARDED_BY(mu_);
  std::unordered_map<CacheKey, LruList::iterator, ObjectLevelKeyHash> map_
      DBSA_GUARDED_BY(mu_);
  size_t cache_bytes_ DBSA_GUARDED_BY(mu_) = 0;
};

/// Cheap order-sensitive checksum of an approximation's cell list; shipped
/// with cache-reference requests so a shard never serves a cached slice
/// that was pruned from a different approximation.
uint64_t ApproxChecksum(const raster::HrCell* cells, size_t num_cells);

/// Largest payload of a batch frame the router builds: a shard's entries
/// of one wave split over several frames only beyond it. A constant, far
/// under kMaxFrameBytes: it only bounds one frame, and splitting a wave at
/// smaller caps measured no faster.
inline constexpr size_t kMaxBatchBytes = size_t{1} << 20;

/// The client half of the seam: prunes per shard, scatters serialized
/// requests over the transport, and gathers partials in canonical order.
/// As a ShardSource it keys the per-shard caches by region index for
/// region polygons and by PolygonFingerprint for ad-hoc ones.
///
/// Every call — a region aggregate's probes, an ad-hoc count or select,
/// a warm — scatters as one batch: each probe is routed, and each
/// surviving shard gets its entries, in probe order, in ONE frame per
/// wave (split only at kMaxBatchBytes; a single entry travels as its
/// bare frame, so a count or a select never sends a batch).
/// Wave 1 carries every entry, as a cache reference where the shard is
/// believed to hold the slice and inline cells otherwise; wave 2 re-sends,
/// inline, only the entries that answered kNotCached. The calling thread
/// sends each wave's frames, one after another, before it waits on any
/// reply, and no other thread waits on the wire.
class ShardRouter : public core::ShardSource {
 public:
  ShardRouter(std::shared_ptr<const core::ShardedState> sharded,
              std::shared_ptr<Transport> transport);

  const core::EngineState& base() const override { return sharded_->base(); }
  size_t num_shards() const override { return sharded_->num_shards(); }
  /// Byte-identical to the in-process ShardedState::ProbeCells: each
  /// probe's partials fold in ascending shard order (core::GatherCells).
  std::vector<join::CellAggregate> ProbeCells(
      const std::vector<core::Probe>& probes,
      const core::ExecHooks& hooks) const override;
  std::vector<uint32_t> SelectIds(const core::Probe& probe,
                                  const core::ExecHooks& hooks,
                                  size_t* cells) const override;

  /// Pins every outgoing ScatterRequest to dataset generation `epoch`
  /// (stamped into the wire's epoch field): servers of another non-zero
  /// generation reject typed instead of answering from the wrong data.
  /// Zero (the default) is the wildcard — requests accept any serving
  /// epoch. Set once at router construction time (snapshot-loaded
  /// deployments), before queries flow; not synchronized for mid-flight
  /// repinning.
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

  /// Warms the per-shard caches of exactly the shards each probe's HR
  /// routes to with its pruned slices, in one batch per shard. The
  /// probes' levels key the slices; their bounds are not used (a warm
  /// request carries its level as a kGridLevel bound).
  void Warm(const std::vector<core::Probe>& probes, const core::ExecHooks& hooks);

 private:
  using Key = ObjectLevelKey;

  /// One probe of a batch: its scatter plan, its cache key, and per
  /// surviving shard (positional in plan.shards) the shard's partial.
  struct Entry {
    core::ShardedState::Scatter plan;
    Key key;
    std::vector<GatherPartial> partials;
  };

  /// Scatters `probes` as one batch of `kind` requests (see the class
  /// comment) and returns one Entry per probe, in order. Replies land in
  /// any order; partials are positional, so the caller's ascending-shard
  /// fold — and hence byte identity — is untouched by completion order.
  /// Throws StatusException only after every frame of the failing wave
  /// has completed: a transport failure first (ascending shard), else
  /// the first failing entry in probe order, then shard order. Records
  /// one "route" span per wave (routing, pruning and encoding) and one
  /// "shard_roundtrip" span per frame, tagged with its shard and
  /// correlation id.
  std::vector<Entry> ScatterProbes(ScatterRequest::Kind kind,
                                   const std::vector<core::Probe>& probes,
                                   const core::ExecHooks& hooks) const;

  bool KnownCached(size_t shard, const Key& key) const;
  void MarkCached(size_t shard, const Key& key, bool cached) const;

  std::shared_ptr<const core::ShardedState> sharded_;
  std::shared_ptr<Transport> transport_;
  uint64_t epoch_ = 0;

  /// Per-shard cap on the advisory key set below — it mirrors the
  /// server-side LRU (which is byte-bounded), so it must not outgrow it:
  /// without a bound, a long-running service streaming distinct ad-hoc
  /// polygons would accumulate fingerprint keys forever.
  static constexpr size_t kMaxKnownKeysPerShard = 4096;

  mutable dbsa::Mutex known_mu_;
  /// Advisory: keys each shard is believed to hold (server eviction or
  /// the cap makes this stale, which only costs a kNotCached round-trip
  /// or an unnecessary inline ship).
  mutable std::vector<std::unordered_map<Key, char, ObjectLevelKeyHash>> known_
      DBSA_GUARDED_BY(known_mu_);
};

// The core executors over a router: plans resolve against the base state
// and the bound, never the transport, so results are byte-identical to the
// in-process sharded executors and exact bounds never cross the seam.
// Shard failures surface as StatusException carrying the wire's typed
// code. perfbench (perfbench/src/composer.cc) calls them as
// service::Execute*.
using core::ExecuteAggregate;
using core::ExecuteCount;
using core::ExecuteSelect;

}  // namespace dbsa::service

#endif  // DBSA_SERVICE_SHARD_SERVER_H_
