// The engine's immutable build products and its executors. One
// EngineState holds the registered tables, the covering grid and the
// linearized point index, and NOTHING in it mutates after
// BuildEngineState returns. Any number of threads may execute queries
// against the same state concurrently through the Execute* functions
// below — all per-query scratch lives on the caller's stack. The
// executors run over the ShardSource seam, so the same plan serves a
// whole state, its in-process shards (core/sharded_state.h) and remote
// shard servers (service/shard_server.h). The service layer
// (src/service/) shares states behind shared_ptr snapshots and injects
// caching / intra-query parallelism via ExecHooks.

#ifndef DBSA_CORE_ENGINE_STATE_H_
#define DBSA_CORE_ENGINE_STATE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "join/exact_join.h"
#include "join/point_index_join.h"
#include "join/result_range.h"
#include "query/error_bound.h"
#include "query/optimizer.h"
#include "telemetry/trace.h"

namespace dbsa::core {

/// Per-region answer of an aggregation query.
struct AggregateRow {
  uint32_t region = 0;
  double value = 0.0;
  /// Guaranteed range containing the exact answer: the Section 6 range
  /// on the point-index plan (for SUM/AVG, over a non-negative column),
  /// lo == hi == value on the exact plan.
  double lo = 0.0;
  double hi = 0.0;
};

/// Execution report of one query.
struct ExecStats {
  query::PlanKind plan = query::PlanKind::kExactRStar;
  std::string explain;
  double elapsed_ms = 0.0;
  double achieved_epsilon = 0.0;
  /// Hierarchical-raster level actually served (-1: no raster was
  /// involved — the exact plan).
  int hr_level = -1;
  /// Approximation cells probed. Sharded executions count each cell once
  /// per shard slice it was routed to (honest scatter accounting), so the
  /// number may exceed the unsharded cell count for the same query.
  size_t query_cells = 0;
  /// Point-in-polygon tests: the exact join's, or for an exact ad-hoc
  /// query those of the points in its refine HR's boundary cells.
  size_t pip_tests = 0;
  size_t index_bytes = 0;
  size_t hr_cache_hits = 0;    ///< Approximations served from a cache.
  size_t hr_cache_misses = 0;  ///< Approximations built by this query.
  /// Sharded execution only: distinct shards that survived pruning for at
  /// least one query polygon (0 = the unsharded path ran).
  size_t shards_probed = 0;
};

struct AggregateAnswer {
  std::vector<AggregateRow> rows;
  ExecStats stats;
};

/// Answers of the ad-hoc polygon queries under the v2 envelope: payload
/// plus the execution report the serving layer turns into the achieved
/// side of the distance-bound contract (service::Result::bound).
struct CountAnswer {
  join::ResultRange range;
  ExecStats stats;
};

struct SelectAnswer {
  std::vector<uint32_t> ids;
  ExecStats stats;
};

/// Which attribute of the point table to aggregate.
enum class Attr { kNone, kFare, kPassengers };

/// Execution-mode override for aggregations (kAuto defers to the
/// optimizer). Aggregates the point index cannot answer run the exact
/// plan under every mode.
enum class Mode { kAuto, kPointIndex, kExact };

/// poly_index value passed to an HrProvider for polygons that are not part
/// of the registered region table (ad-hoc query polygons).
inline constexpr size_t kAdHocPolygon = static_cast<size_t>(-1);

/// Returns the HR approximation of `poly` at the level implied by
/// `epsilon` — either freshly built or shared from a cache. Must be
/// thread-safe; the returned structure must stay valid for the query's
/// lifetime (shared_ptr ownership guarantees it).
using HrProvider = std::function<std::shared_ptr<const raster::HierarchicalRaster>(
    size_t poly_index, const geom::Polygon& poly, double epsilon)>;

/// Injection points for the serving layer. Defaults (empty functions)
/// reproduce the single-threaded engine exactly.
struct ExecHooks {
  /// Approximation source; null -> build fresh on the caller's stack.
  HrProvider hr_provider;
  /// Runs fn(0..n-1) — possibly concurrently, in any order. Used for the
  /// per-polygon stage of the point-index plan; the per-region combine
  /// stays serial in polygon order, so results are bit-identical to the
  /// serial execution regardless of scheduling.
  std::function<void(size_t n, const std::function<void(size_t)>& fn)> parallel_for;
  /// Cap on concurrently in-flight iterations of any fan-out stage
  /// (RunMaybeParallel chunks the iteration space). 0 = unlimited. A
  /// scheduling knob only — results are identical at any cap; the serving
  /// layer wires service::ExecOptions::max_shard_fanout here to keep one
  /// query from monopolizing every shard connection at once.
  size_t max_fanout = 0;
  /// Span collector of the submitting query (telemetry/trace.h); null
  /// when tracing is off. Observe-only: stages record wall-clock spans
  /// into it, nothing reads it back during execution — results are
  /// byte-identical with or without a trace attached.
  telemetry::QueryTrace* trace = nullptr;
};

/// Runs fn(0..n-1) through hooks.parallel_for when set (and n > 1),
/// serially otherwise — the standard fan-out of every executor stage.
void RunMaybeParallel(const ExecHooks& hooks, size_t n,
                      const std::function<void(size_t)>& fn);

// ---- the shard-source seam ----------------------------------------------
// An approximate query is answered by probing the cells of one HR
// approximation against the point index, whether the points sit in one
// index, in K in-process slices or behind K shard servers. A ShardSource
// answers that probe; the executors below hold everything else once:
// plan resolution, exact-bound routing to the base state, the
// per-polygon fan-out, the per-region merge and ExecStats assembly.
// Three sources implement it:
//
//   EngineState   the whole state: probes its own index, no routing;
//   ShardedState  K in-process slices (core/sharded_state.h);
//   ShardRouter   K shard servers behind a Transport
//                 (service/shard_server.h).
//
// Every source answers byte-identically: plans resolve against base()
// alone, and a sharded source gathers its per-shard partials in ascending
// shard order and merges its shards' selections, each already in the
// index's canonical (leaf key, row id) order.

struct EngineState;

/// One approximation handed to a source.
struct Probe {
  const raster::HierarchicalRaster& hr;
  /// Region-table index, or kAdHocPolygon; with `poly`, the object a
  /// source keys per-shard caches by.
  size_t poly_index;
  const geom::Polygon& poly;
  /// The query's bound as submitted, and the HR level it resolved to.
  const query::ErrorBound& bound;
  int level;
  /// num_shards() flags: the source sets the flag of every shard that
  /// survives pruning (ExecStats::shards_probed counts them).
  std::atomic<uint32_t>* touched;
};

class ShardSource {
 public:
  ShardSource() = default;
  ShardSource(const ShardSource&) = delete;
  ShardSource& operator=(const ShardSource&) = delete;
  virtual ~ShardSource() = default;

  /// The snapshot plans resolve against: grid, region table, and the
  /// points the exact plan reads.
  virtual const EngineState& base() const = 0;
  /// Shards a probe scatters over; 0 for the whole state.
  virtual size_t num_shards() const = 0;
  /// Bytes of the point index(es) probed (ExecStats::index_bytes).
  virtual size_t IndexBytes() const = 0;

  /// The merged cell aggregate of `probe.hr` over the source's points.
  virtual join::CellAggregate ProbeCells(const Probe& probe,
                                         const ExecHooks& hooks) const = 0;
  /// The conservative selection of `probe.hr` in canonical (leaf key,
  /// row id) order; `*cells` receives the number of cells probed.
  virtual std::vector<uint32_t> SelectIds(const Probe& probe,
                                          const ExecHooks& hooks,
                                          size_t* cells) const = 0;
};

/// Immutable snapshot of one (points, regions) registration: the tables
/// themselves plus every shared build product. Construct only through
/// BuildEngineState; treat as frozen afterwards. As a ShardSource it is
/// the whole state: probes go straight to its own point index.
struct EngineState : ShardSource {
  std::shared_ptr<const data::PointSet> points;
  std::shared_ptr<const data::RegionSet> regions;
  /// Widened passenger column, materialized once per state.
  std::vector<double> passengers_as_double;
  raster::Grid grid{geom::Point{0.0, 0.0}, 1.0};
  /// Built eagerly so concurrent queries never race on lazy construction.
  std::optional<join::PointIndex> point_index;

  const double* AttrColumn(Attr attr) const;
  join::JoinInput MakeInput(Attr attr) const;

  const EngineState& base() const override { return *this; }
  size_t num_shards() const override { return 0; }
  size_t IndexBytes() const override;
  join::CellAggregate ProbeCells(const Probe& probe,
                                 const ExecHooks& hooks) const override;
  std::vector<uint32_t> SelectIds(const Probe& probe, const ExecHooks& hooks,
                                  size_t* cells) const override;
};

/// Builds the shared products (covering grid, point index, attribute
/// columns) for the given tables. The tables are adopted, not copied.
/// `grid_override`, when non-null, pins the state's grid instead of
/// deriving it from the table bounds — shards of one base state must all
/// linearize against the base grid so cell keys and epsilon levels agree
/// across shards (core/sharded_state.h).
std::shared_ptr<const EngineState> BuildEngineState(
    std::shared_ptr<const data::PointSet> points,
    std::shared_ptr<const data::RegionSet> regions,
    const raster::Grid* grid_override = nullptr);

/// Convenience overload that wraps the tables (moved, not copied).
std::shared_ptr<const EngineState> BuildEngineState(data::PointSet points,
                                                    data::RegionSet regions);

// ---- the executors: one per query kind, over any ShardSource -----------
// The typed ErrorBound is the contract: kAbsoluteDistance snaps through
// Grid::LevelForEpsilon, kGridLevel pins the HR level exactly, kExact
// never reaches the source's probes: aggregations run the exact plan, and
// ad-hoc queries approximate, then refine on source.base() — interior HR
// cells answer from the base point index and only the points in boundary
// cells get a PIP test. Every deployment path carries that base, so
// every path answers exact queries identically by construction.
//
// An aggregation runs one of two plans, both with a guaranteed range: the
// point-index join or the exact join. Under Mode::kAuto the optimizer
// chooses from source.base() and the bound alone, so every source
// resolves a query to the same plan and answers it byte-identically.

/// SELECT AGG(attr) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id.
/// The point-index plan probes the source; it answers COUNT and SUM/AVG
/// over fare. Every other aggregate, and every exact bound, runs the exact
/// plan against source.base().
AggregateAnswer ExecuteAggregate(const ShardSource& source, join::AggKind agg,
                                 Attr attr, const query::ErrorBound& bound,
                                 Mode mode = Mode::kAuto,
                                 const ExecHooks& hooks = {});

/// COUNT inside an ad-hoc polygon. Exact bounds refine a conservative HR
/// on the base state: interior cells count whole from the point index,
/// boundary-cell points are PIP-tested (range collapses to the exact
/// count). Approximate bounds probe the source at the bound's grid level.
CountAnswer ExecuteCount(const ShardSource& source, const geom::Polygon& poly,
                         const query::ErrorBound& bound,
                         const ExecHooks& hooks = {});

/// Selection inside an ad-hoc polygon. Exact bounds return exactly the
/// inside points, refined on the base state like ExecuteCount and sorted
/// ascending by row id; approximate bounds return the conservative
/// covered set in the index's canonical (leaf key, row) order.
SelectAnswer ExecuteSelect(const ShardSource& source, const geom::Polygon& poly,
                           const query::ErrorBound& bound,
                           const ExecHooks& hooks = {});

}  // namespace dbsa::core

#endif  // DBSA_CORE_ENGINE_STATE_H_
