#include "service/approx_cache.h"

#include <utility>

#include "util/determinism.h"

namespace dbsa::service {

namespace {

inline uint64_t FnvMixBits(uint64_t h, uint64_t bits) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (bits >> shift) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t FnvMix(uint64_t h, double v) {
  return FnvMixBits(h, util::BitCast<uint64_t>(v));
}

/// One FNV-1a stream over a ring's vertex bytes plus a separator, so
/// ((a), (b)) and ((a, b)) hash differently.
inline uint64_t FnvRing(uint64_t h, const geom::Ring& ring) {
  for (const geom::Point& p : ring) {
    h = FnvMix(h, p.x);
    h = FnvMix(h, p.y);
  }
  h ^= 0x1fu;
  h *= 0x100000001b3ULL;
  return h;
}

}  // namespace

ObjectKey PolygonFingerprint(const geom::Polygon& poly) {
  // Two independent streams: `lo` is FNV-1a over the raw vertex bytes,
  // `hi` runs over the same bytes from a different offset basis and mixes
  // in the ring/vertex structure, so the two words never degenerate into
  // one 64-bit quantity with a constant offset.
  uint64_t lo = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
  lo = FnvRing(lo, poly.outer());
  for (const geom::Ring& hole : poly.holes()) lo = FnvRing(lo, hole);

  uint64_t hi = 0x84222325cbf29ce4ULL;  // Rotated basis: independent stream.
  hi = FnvMixBits(hi, poly.outer().size());
  for (const geom::Point& p : poly.outer()) {
    hi = FnvMix(hi, p.y);  // Swapped coordinate order vs the `lo` stream.
    hi = FnvMix(hi, p.x);
  }
  hi = FnvMixBits(hi, poly.holes().size());
  for (const geom::Ring& hole : poly.holes()) {
    hi = FnvMixBits(hi, hole.size());
    for (const geom::Point& p : hole) {
      hi = FnvMix(hi, p.y);
      hi = FnvMix(hi, p.x);
    }
  }
  return ObjectKey(hi | (1ULL << 63), lo);
}

GeometrySummary GeometrySummary::Of(const geom::Polygon& poly) {
  GeometrySummary s;
  s.num_rings = 1 + poly.holes().size();
  s.num_vertices = poly.NumVertices();
  s.bounds = poly.bounds();
  if (!poly.outer().empty()) s.first_vertex = poly.outer().front();
  return s;
}

bool GeometrySummary::Matches(const GeometrySummary& o) const {
  return num_rings == o.num_rings && num_vertices == o.num_vertices &&
         bounds.min.x == o.bounds.min.x && bounds.min.y == o.bounds.min.y &&
         bounds.max.x == o.bounds.max.x && bounds.max.y == o.bounds.max.y &&
         first_vertex.x == o.first_vertex.x && first_vertex.y == o.first_vertex.y;
}

ApproxCache::ApproxCache(size_t budget_bytes,
                         std::shared_ptr<telemetry::MetricRegistry> registry)
    : budget_bytes_(budget_bytes),
      registry_(registry ? std::move(registry)
                         : std::make_shared<telemetry::MetricRegistry>()),
      hits_(registry_->GetCounter("dbsa_approx_cache_hits_total")),
      misses_(registry_->GetCounter("dbsa_approx_cache_misses_total")),
      evictions_(registry_->GetCounter("dbsa_approx_cache_evictions_total")),
      collisions_(registry_->GetCounter("dbsa_approx_cache_collisions_total")),
      entries_gauge_(registry_->GetGauge("dbsa_approx_cache_entries")),
      bytes_gauge_(registry_->GetGauge("dbsa_approx_cache_bytes_used")) {
  registry_->GetGauge("dbsa_approx_cache_budget_bytes")
      ->Set(static_cast<double>(budget_bytes_));
}

void ApproxCache::UpdateGaugesLocked() {
  entries_gauge_->Set(static_cast<double>(map_.size()));
  bytes_gauge_->Set(static_cast<double>(bytes_used_));
}

ApproxCache::HrPtr ApproxCache::GetOrBuild(const ObjectKey& object_id, int level,
                                           const Builder& build, bool* built,
                                           const geom::Polygon* geometry) {
  if (built != nullptr) *built = false;
  const Key key{object_id, level};
  GeometrySummary summary;
  const bool verify = geometry != nullptr;
  if (verify) summary = GeometrySummary::Of(*geometry);

  std::shared_future<HrPtr> wait_on;
  std::promise<HrPtr> promise;
  bool build_uncached = false;
  {
    dbsa::MutexLock lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      if (verify && it->second->has_summary && !summary.Matches(it->second->summary)) {
        // Fingerprint collision: the cached entry was built from different
        // geometry. Drop it and fall through to a fresh build under the
        // same key (last writer wins; both geometries stay correct).
        collisions_->Add(1);
        EraseEntryLocked(it->second);
        map_.erase(it);
        UpdateGaugesLocked();
      } else {
        hits_->Add(1);
        lru_.splice(lru_.begin(), lru_, it->second);  // Promote.
        return it->second->hr;
      }
    }
    const auto flight = inflight_.find(key);
    if (flight != inflight_.end()) {
      if (verify && flight->second.has_summary &&
          !summary.Matches(flight->second.summary)) {
        // Collision against an in-flight build of different geometry: do
        // not wait on (or poison) the other build — construct our own
        // uncached result after dropping the lock.
        collisions_->Add(1);
        misses_->Add(1);
        build_uncached = true;
      } else {
        hits_->Add(1);  // No construction on this thread.
        wait_on = flight->second.future;
      }
    } else {
      misses_->Add(1);
      Inflight flight_entry;
      flight_entry.future = promise.get_future().share();
      flight_entry.has_summary = verify;
      flight_entry.summary = summary;
      inflight_.emplace(key, std::move(flight_entry));
    }
  }
  if (build_uncached) {
    if (built != nullptr) *built = true;
    return std::make_shared<const raster::HierarchicalRaster>(build());
  }
  if (wait_on.valid()) return wait_on.get();
  if (built != nullptr) *built = true;

  // Build outside the lock — constructions of different keys proceed in
  // parallel, and waiting threads block on the future, not the mutex.
  HrPtr hr;
  try {
    hr = std::make_shared<const raster::HierarchicalRaster>(build());
  } catch (...) {
    {
      dbsa::MutexLock lock(mu_);
      inflight_.erase(key);  // The key stays retryable.
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  const size_t bytes = hr->MemoryBytes();
  {
    dbsa::MutexLock lock(mu_);
    inflight_.erase(key);
    if (bytes <= budget_bytes_ && map_.find(key) == map_.end()) {
      Entry entry;
      entry.key = key;
      entry.hr = hr;
      entry.bytes = bytes;
      entry.has_summary = verify;
      entry.summary = summary;
      lru_.push_front(std::move(entry));
      map_.emplace(key, lru_.begin());
      bytes_used_ += bytes;
      EvictToBudgetLocked();
      UpdateGaugesLocked();
    }
  }
  promise.set_value(hr);
  return hr;
}

ApproxCache::Stats ApproxCache::stats() const {
  dbsa::MutexLock lock(mu_);
  Stats s;
  s.hits = static_cast<size_t>(hits_->Value());
  s.misses = static_cast<size_t>(misses_->Value());
  s.evictions = static_cast<size_t>(evictions_->Value());
  s.collisions = static_cast<size_t>(collisions_->Value());
  s.entries = map_.size();
  s.bytes_used = bytes_used_;
  s.budget_bytes = budget_bytes_;
  return s;
}

void ApproxCache::EraseEntryLocked(LruList::iterator it) {
  bytes_used_ -= it->bytes;
  lru_.erase(it);
}

void ApproxCache::EvictToBudgetLocked() {
  while (bytes_used_ > budget_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_used_ -= victim.bytes;
    map_.erase(victim.key);
    lru_.pop_back();
    evictions_->Add(1);
  }
}

}  // namespace dbsa::service
