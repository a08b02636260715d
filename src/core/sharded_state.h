// SFC-sharded execution state — the scaling layer between one immutable
// EngineState snapshot and a multi-core (later multi-node) deployment.
//
// The point table is partitioned into K spatially-local shards by the
// Hilbert rank of each point's coordinates: points are ordered along the
// Hilbert curve (the better-locality linearization already used by
// bench/abl_sfc) and cut into K equal-size contiguous runs. Each shard is
// an independent EngineState slice — its own point table, attribute
// columns and eagerly built point index — sharing the base state's region
// table and, critically, the base GRID, so cell keys and epsilon levels
// agree across shards.
//
// As a ShardSource (core/engine_state.h) it probes an approximation by
// scatter-gather:
//
//   scatter  the query's HR approximation cells are routed only to shards
//            whose point bounds intersect them (shard pruning — exact
//            integer leaf-coordinate tests, no floating-point slack);
//   execute  each surviving shard answers its cell subset from its local
//            point index (fanned out via ExecHooks::parallel_for);
//   gather   shard partials merge in ascending shard order via
//            CellAggregate::Merge (GatherCells), selections merge their
//            shards' keyed runs (GatherIds), and the executor combines
//            regions exactly like the unsharded point-index plan.
//
// Merge identity: shards partition the points, every point's home cell
// survives pruning for its own shard, and the gather order is canonical
// — so COUNT aggregates, result ranges and selections are byte-identical
// to the unsharded engine for any shard count and any thread count.
// SUM/AVG aggregates match bit-for-bit as well: range sums travel as
// Neumaier-compensated (error-free transformation) pairs from the prefix
// arrays through CellAggregate::Merge (util/compensated.h), so partial
// sums are exact — association order never rounds — for any attribute
// column whose running sums fit the pair's ~106-bit window (every
// realistic column; previously the contract required dyadic values).
// Tested with adversarial non-dyadic attributes at K in {1,7,16} in
// sharded_state_test.cc. The identity holds under Mode::kAuto too: plans
// resolve against the base state and the bound alone, never the shard
// count. Only the ExecStats bookkeeping (shards_probed, index_bytes, the
// query-cell counters) shows the sharding.

#ifndef DBSA_CORE_SHARDED_STATE_H_
#define DBSA_CORE_SHARDED_STATE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine_state.h"
#include "raster/hierarchical_raster.h"

namespace dbsa::core {

struct ShardingOptions {
  /// Number of spatial shards (clamped to [1, num points]).
  size_t num_shards = 1;
  /// Grid level whose cells define the Hilbert ordering granularity.
  /// Points within one level-`hilbert_level` cell always land in the same
  /// shard run; 16 gives 2^32 curve positions — plenty below city scale.
  int hilbert_level = 16;
  /// Build each shard's slice EngineState (a copy of its points +
  /// attribute columns and an eagerly built point index). Routing
  /// metadata — curve runs, key ranges, bounds, the global-id map — is
  /// always built. Set false for a pure ROUTING client (the socket
  /// transport: it prunes and scatters but never executes shard-locally;
  /// the slices live in the shard-server processes), which skips the
  /// second full copy of the dataset and K index builds.
  bool build_slices = true;
  /// When >= 0 (and build_slices), materialize ONLY this shard's slice:
  /// a shard-server process keeps exactly one slice, and building the
  /// other K-1 copies + indexes first makes cluster startup O(K) per
  /// process. Routing metadata is still built for every shard. The
  /// in-process scatter executors need every slice, so has_slices() is
  /// false unless all of them were built.
  int only_slice = -1;
};

/// K spatially-local shards of one EngineState snapshot. Immutable after
/// Build, shareable behind shared_ptr exactly like EngineState itself.
class ShardedState : public ShardSource {
 public:
  struct Shard {
    /// Slice state: shard points + shared regions, base grid, eagerly
    /// built point index. Null iff the shard is empty OR the state was
    /// built with ShardingOptions::build_slices == false (routing-only;
    /// see has_slices()).
    std::shared_ptr<const EngineState> state;
    /// Local row -> base-table row. Ascending, so shard-local sorted
    /// order equals the base (key, row) order restricted to the shard.
    std::vector<uint32_t> global_ids;
    /// Tight bounds of the shard's points (display / cost model).
    geom::Box bounds;
    /// Exact leaf-coordinate bounds at CellId::kMaxLevel, used for shard
    /// pruning: integer tests mean a cell that covers any shard point can
    /// never be pruned by rounding. Empty shard: min > max.
    uint32_t min_ix = UINT32_MAX, min_iy = UINT32_MAX;
    uint32_t max_ix = 0, max_iy = 0;
    /// Hilbert-curve positions (at the partitioner's level) of the
    /// shard's first and last points. The shard is a contiguous curve
    /// run, and every quadtree cell is a contiguous curve interval, so
    /// routing is an exact interval intersection — a cell is probed by
    /// (almost) exactly the shards whose curve segment crosses it, not by
    /// every shard whose bounding box happens to overlap. Empty: lo > hi.
    uint64_t hilbert_lo = 1, hilbert_hi = 0;
    /// The curve run [hilbert_lo, hilbert_hi], decomposed at build time
    /// into maximal curve-aligned quadtree blocks and re-expressed as
    /// sorted disjoint leaf-key (Morton) intervals. Query-time routing is
    /// then one binary search per cell over ~O(levels) intervals — no
    /// Hilbert arithmetic on the query path.
    std::vector<std::pair<uint64_t, uint64_t>> key_ranges;

    size_t num_points() const { return global_ids.size(); }
  };

  /// Partitions the base snapshot's points into `options.num_shards`
  /// Hilbert-contiguous shards. The base state is retained: the exact
  /// plan executes against it unchanged.
  static std::shared_ptr<const ShardedState> Build(
      std::shared_ptr<const EngineState> base, const ShardingOptions& options = {});

  /// Reassembles a sharded state from frozen parts (snapshot load,
  /// src/snapshot/). `shards` must be EXACTLY what Build would produce
  /// for the same base + hilbert_level — routing metadata (global_ids,
  /// bounds, leaf-coordinate extents, curve run, key_ranges) for every
  /// shard, slice states present iff `has_slices`. The byte-identity
  /// contract then holds by construction because routing and execution
  /// consume only these fields. SnapshotReader validates untrusted input
  /// before assembling; this factory trusts its caller.
  static std::shared_ptr<const ShardedState> FromParts(
      std::shared_ptr<const EngineState> base, std::vector<Shard> shards,
      int hilbert_level, bool has_slices);

  const EngineState& base() const override { return *base_; }
  const std::shared_ptr<const EngineState>& base_ptr() const { return base_; }
  size_t num_shards() const override { return shards_.size(); }
  /// False iff built with build_slices == false: routing/pruning work,
  /// the in-process probes (which need shard(s).state) do not (they
  /// DBSA_CHECK), and IndexBytes() reports 0.
  bool has_slices() const { return has_slices_; }
  const Shard& shard(size_t i) const { return shards_[i]; }
  const std::vector<Shard>& shards() const { return shards_; }

  /// Per-cell routing geometry, precomputed once per query and shared by
  /// every shard's pruning test: the cell's inclusive leaf-key (Morton)
  /// range — matched against each shard's key_ranges — and its inclusive
  /// leaf-coordinate rectangle. All integer — routing decisions always
  /// agree with leaf-key membership.
  struct CellRoute {
    uint64_t key_lo, key_hi;
    uint32_t lo_x, lo_y, hi_x, hi_y;
  };

  /// Computes the routes of a query's cells (the per-query scatter prep).
  std::vector<CellRoute> MakeRoutes(const raster::HrCell* cells,
                                    size_t num_cells) const;

  /// The scatter of one approximation: its cell routes, computed once and
  /// shared by pruning and every shard's slice, and the surviving shards,
  /// ascending. Sets `touched[s]` for every survivor when non-null.
  struct Scatter {
    std::vector<CellRoute> routes;
    std::vector<uint32_t> shards;
  };
  Scatter PlanScatter(const raster::HierarchicalRaster& hr,
                      std::atomic<uint32_t>* touched) const;

  /// True iff any routed cell intersects shard `s` — the pruning
  /// predicate of the scatter step: the cell's curve interval must cross
  /// the shard's curve run AND its rectangle the shard's point bounds.
  bool ShardIntersects(size_t s, const CellRoute* routes, size_t num_cells) const;

  /// The scatter set of a query approximation: indexes of shards that
  /// survive pruning, ascending. This is the exact set execution probes.
  std::vector<uint32_t> SurvivingShards(const CellRoute* routes,
                                        size_t num_cells) const;

  /// Cells of `hr` that intersect shard `s` (the shard's scatter slice).
  /// This IS the message payload of the distribution seam: a serialized
  /// ScatterRequest (service/transport.h) carries exactly this slice to
  /// the shard's server, and the in-process probes consume it directly —
  /// the two paths share one routing function so they cannot drift.
  std::vector<raster::HrCell> PruneCellsForShard(size_t s,
                                                 const raster::HrCell* cells,
                                                 const CellRoute* routes,
                                                 size_t num_cells) const;

  /// Convenience overload (tests): routes computed on the fly.
  std::vector<raster::HrCell> PruneCellsForShard(
      size_t s, const raster::HrCell* cells, size_t num_cells) const;

  /// Total bytes of the shard point indexes (stats).
  size_t IndexBytes() const override;

  int hilbert_level() const { return hilbert_level_; }

  /// The in-process probes: scatter to the slices' point indexes, gather
  /// in ascending shard order. Need has_slices().
  join::CellAggregate ProbeCells(const Probe& probe,
                                 const ExecHooks& hooks) const override;
  std::vector<uint32_t> SelectIds(const Probe& probe, const ExecHooks& hooks,
                                  size_t* cells) const override;

 private:
  ShardedState() = default;

  std::shared_ptr<const EngineState> base_;
  std::vector<Shard> shards_;
  int hilbert_level_ = 16;
  bool has_slices_ = true;
};

/// Below this many approximation cells a query's shard fan-out cannot
/// amortize the task-submission overhead; the scatter runs on the calling
/// thread instead. Results are identical either way — only scheduling
/// changes. Shared by the in-process cell probe and the shard router
/// (service/shard_server.h) so the two schedule identically.
inline constexpr size_t kShardFanOutMinCells = 256;

/// The canonical gather every sharded source ends with, so completion
/// order never reaches a result: cell partials, positional in the
/// ascending survivor list, fold in that order (counts are integers and
/// sums compensated pairs, so the fold is exact) ...
join::CellAggregate GatherCells(const std::vector<join::CellAggregate>& partials);

/// ... and a selection's runs, one per surviving shard in ascending shard
/// order, each strictly ascending in (leaf key, base row id), merge into
/// the (key, row) order the unsharded index emits, keys stripped.
std::vector<uint32_t> GatherIds(
    std::vector<std::vector<std::pair<uint64_t, uint32_t>>> runs);

/// One shard's selection as a gather run: the (leaf key, base row id) of
/// every point of `slice` that `cells` cover, keys read from the slice's
/// own point index and row ids remapped through `global_ids` (local row →
/// base row). For Z-ordered cells the run is strictly ascending: the
/// index holds its points in (key, local row) order, and `global_ids` is
/// ascending. Needs slice.point_index.
std::vector<std::pair<uint64_t, uint32_t>> SelectKeyedIds(
    const EngineState& slice, const std::vector<uint32_t>& global_ids,
    const raster::HrCell* cells, size_t num_cells);

}  // namespace dbsa::core

#endif  // DBSA_CORE_SHARDED_STATE_H_
