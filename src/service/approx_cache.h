// Memory-budgeted LRU cache of hierarchical-raster approximations, keyed
// by (object id, epsilon level). This is what turns the paper's "compute
// approximations on the fly" story into a serving-layer amortization:
// the HR of a region at a given distance-bound level is built once —
// by whichever query first needs it — and every later query, session or
// thread reuses the shared immutable structure.
//
// Concurrency: all operations are thread-safe. Concurrent requests for
// the same missing key are single-flighted — one thread builds, the rest
// wait on a shared future — so a burst of identical queries costs one
// construction, not N.
//
// Collision safety: ad-hoc polygons are identified by a 128-bit geometry
// fingerprint, and callers may additionally pass the polygon itself so a
// hit is verified against a structural summary of the geometry that
// produced the entry. A fingerprint collision is then detected instead of
// silently serving the wrong approximation (see Stats::collisions).

#ifndef DBSA_SERVICE_APPROX_CACHE_H_
#define DBSA_SERVICE_APPROX_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <unordered_map>

#include "geom/polygon.h"
#include "raster/hierarchical_raster.h"
#include "telemetry/metrics.h"
#include "util/thread_annotations.h"

namespace dbsa::service {

/// 128-bit cache object identity. Region-table polygons use {0, index};
/// ad-hoc polygons use PolygonFingerprint, which sets the top bit of `hi`
/// so the two namespaces can never collide. The implicit constructor from
/// a plain integer covers the table-index case.
struct ObjectKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  constexpr ObjectKey() = default;
  constexpr ObjectKey(uint64_t object_id) : hi(0), lo(object_id) {}  // NOLINT
  constexpr ObjectKey(uint64_t hi_word, uint64_t lo_word)
      : hi(hi_word), lo(lo_word) {}

  bool operator==(const ObjectKey& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const ObjectKey& o) const { return !(*this == o); }
};

/// (object, epsilon level) — the key domain shared by the central
/// ApproxCache, the per-shard slice caches (service/shard_server.h) and
/// the router's cache bookkeeping. One definition so the hash/equality
/// can never diverge between the layers.
struct ObjectLevelKey {
  ObjectKey object;
  int level = 0;

  bool operator==(const ObjectLevelKey& o) const {
    return object == o.object && level == o.level;
  }
};

struct ObjectLevelKeyHash {
  size_t operator()(const ObjectLevelKey& k) const {
    // Splitmix-style finalizer over the three fields.
    uint64_t x = k.object.lo ^ (k.object.hi * 0xff51afd7ed558ccdULL) ^
                 (static_cast<uint64_t>(k.level) * 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// Stable 128-bit fingerprint of a polygon's geometry: two independent
/// FNV-1a streams over the vertex coordinates' bit patterns, mixed with
/// the ring/vertex structure (ring count and per-ring lengths), so rings
/// that merely re-chunk the same byte stream hash differently. Lets
/// ad-hoc query polygons share cache entries across repeated submissions
/// — e.g. a dashboard viewport re-requested at every refresh. The top bit
/// of `hi` is always set (the ad-hoc namespace marker).
ObjectKey PolygonFingerprint(const geom::Polygon& poly);

/// Cheap structural summary of a polygon, stored with each cache entry
/// and compared on every verified hit: a fingerprint collision between
/// distinct geometries is caught unless the geometries also agree on ring
/// count, vertex count, bounding box and first vertex — at which point
/// they are the same polygon for any practical purpose.
struct GeometrySummary {
  uint64_t num_rings = 0;
  uint64_t num_vertices = 0;
  geom::Box bounds;
  geom::Point first_vertex;

  static GeometrySummary Of(const geom::Polygon& poly);
  bool Matches(const GeometrySummary& o) const;
};

class ApproxCache {
 public:
  using HrPtr = std::shared_ptr<const raster::HierarchicalRaster>;
  /// Invoked on a miss to construct the approximation. Must be pure: the
  /// same (object id, level) must always produce the same structure.
  using Builder = std::function<raster::HierarchicalRaster()>;

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;      ///< Builder invocations.
    size_t evictions = 0;   ///< Entries dropped to respect the budget.
    size_t collisions = 0;  ///< Hits rejected by geometry verification.
    size_t entries = 0;
    size_t bytes_used = 0;
    size_t budget_bytes = 0;

    double HitRatio() const {
      const size_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    }
  };

  /// budget_bytes bounds the summed HierarchicalRaster::MemoryBytes() of
  /// the cached entries. An entry larger than the whole budget is built
  /// and returned but never cached. Counters/gauges live in `registry`
  /// under dbsa_approx_cache_* names (Stats is a thin read of them); a
  /// null registry gets a private one so standalone construction keeps
  /// working.
  explicit ApproxCache(size_t budget_bytes,
                       std::shared_ptr<telemetry::MetricRegistry> registry = nullptr);

  /// Returns the cached approximation for (object_id, level), building it
  /// with `build` on a miss. Waiters on an in-flight build count as hits
  /// (they performed no construction). If `built` is non-null it reports
  /// whether THIS call ran the builder (per-query miss accounting).
  ///
  /// When `geometry` is non-null the hit is verified: if the cached entry
  /// was built from a polygon whose structural summary differs (an id
  /// collision), the stale entry is discarded and the approximation is
  /// rebuilt from `build` — the wrong approximation is never returned.
  HrPtr GetOrBuild(const ObjectKey& object_id, int level, const Builder& build,
                   bool* built = nullptr, const geom::Polygon* geometry = nullptr);

  Stats stats() const;

 private:
  using Key = ObjectLevelKey;
  using KeyHash = ObjectLevelKeyHash;
  struct Entry {
    Key key;
    HrPtr hr;
    size_t bytes = 0;
    bool has_summary = false;
    GeometrySummary summary;
  };
  using LruList = std::list<Entry>;
  struct Inflight {
    std::shared_future<HrPtr> future;
    bool has_summary = false;
    GeometrySummary summary;
  };

  void EvictToBudgetLocked() DBSA_REQUIRES(mu_);
  void EraseEntryLocked(LruList::iterator it) DBSA_REQUIRES(mu_);
  /// Mirrors entries/bytes_used into the registry gauges after any
  /// mutation of map_/bytes_used_.
  void UpdateGaugesLocked() DBSA_REQUIRES(mu_);

  const size_t budget_bytes_;
  std::shared_ptr<telemetry::MetricRegistry> registry_;
  telemetry::Counter* hits_;
  telemetry::Counter* misses_;
  telemetry::Counter* evictions_;
  telemetry::Counter* collisions_;
  telemetry::Gauge* entries_gauge_;
  telemetry::Gauge* bytes_gauge_;
  mutable dbsa::Mutex mu_;
  /// Front = most recently used.
  LruList lru_ DBSA_GUARDED_BY(mu_);
  std::unordered_map<Key, LruList::iterator, KeyHash> map_ DBSA_GUARDED_BY(mu_);
  std::unordered_map<Key, Inflight, KeyHash> inflight_ DBSA_GUARDED_BY(mu_);
  size_t bytes_used_ DBSA_GUARDED_BY(mu_) = 0;
};

}  // namespace dbsa::service

#endif  // DBSA_SERVICE_APPROX_CACHE_H_
