#include "core/engine_state.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "join/exact_join.h"
#include "util/check.h"
#include "util/timer.h"

namespace dbsa::core {

const double* EngineState::AttrColumn(Attr attr) const {
  switch (attr) {
    case Attr::kNone:
      return nullptr;
    case Attr::kFare:
      return points->fare.data();
    case Attr::kPassengers:
      return passengers_as_double.data();
  }
  return nullptr;
}

join::JoinInput EngineState::MakeInput(Attr attr) const {
  join::JoinInput in;
  in.points = points->locs.data();
  in.attrs = AttrColumn(attr);
  in.num_points = points->size();
  in.polys = &regions->polys;
  in.region_of = &regions->region_of;
  in.num_regions = regions->num_regions;
  return in;
}

std::shared_ptr<const EngineState> BuildEngineState(
    std::shared_ptr<const data::PointSet> points,
    std::shared_ptr<const data::RegionSet> regions,
    const raster::Grid* grid_override) {
  DBSA_CHECK(points != nullptr && regions != nullptr);
  auto state = std::make_shared<EngineState>();
  state->points = std::move(points);
  state->regions = std::move(regions);
  state->passengers_as_double.assign(state->points->passengers.begin(),
                                     state->points->passengers.end());
  if (grid_override != nullptr) {
    state->grid = *grid_override;
  } else {
    geom::Box bounds = state->points->Bounds();
    bounds.Extend(state->regions->Bounds());
    state->grid = raster::Grid::Covering(bounds);
  }
  state->point_index.emplace(state->points->locs.data(), state->points->fare.data(),
                             state->points->size(), state->grid);
  return state;
}

std::shared_ptr<const EngineState> BuildEngineState(data::PointSet points,
                                                    data::RegionSet regions) {
  return BuildEngineState(
      std::make_shared<const data::PointSet>(std::move(points)),
      std::make_shared<const data::RegionSet>(std::move(regions)));
}

std::vector<join::CellAggregate> EngineState::ProbeCells(
    const std::vector<Probe>& probes, const ExecHooks& hooks) const {
  DBSA_CHECK(point_index.has_value());
  std::vector<join::CellAggregate> out(probes.size());
  RunMaybeParallel(hooks, probes.size(), [&](size_t i) {
    out[i] = point_index->QueryCells(probes[i].hr, join::SearchStrategy::kRadixSpline);
  });
  return out;
}

std::vector<uint32_t> EngineState::SelectIds(const Probe& probe,
                                             const ExecHooks& /*hooks*/,
                                             size_t* cells) const {
  DBSA_CHECK(point_index.has_value());
  std::vector<uint32_t> ids;
  point_index->SelectIds(probe.hr, join::SearchStrategy::kRadixSpline, &ids);
  *cells = probe.hr.cells().size();
  return ids;
}

void RunMaybeParallel(const ExecHooks& hooks, size_t n,
                      const std::function<void(size_t)>& fn) {
  if (!hooks.parallel_for || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  hooks.parallel_for(n, fn);
}

namespace {

/// True when the point index answers `agg` over `attr`: COUNT, and
/// SUM/AVG over fare, the one column it keeps prefix sums of.
bool PointIndexAnswers(join::AggKind agg, Attr attr) {
  return agg == join::AggKind::kCount ||
         ((agg == join::AggKind::kSum || agg == join::AggKind::kAvg) &&
          attr == Attr::kFare);
}

/// The plan of a region aggregation. An exact mode or bound runs exact; so
/// does every aggregate the point index cannot answer, under every mode.
/// Otherwise kPointIndex pins the index and kAuto takes the optimizer's
/// choice over the base tables and the bound. Nothing here depends on the
/// source's deployment, so every path resolves a query to the same plan.
query::PlanKind ResolveAggregatePlan(const EngineState& base, join::AggKind agg,
                                     Attr attr, double epsilon, Mode mode,
                                     std::string* explain) {
  query::QueryProfile profile;
  profile.num_points = base.points->size();
  profile.num_polygons = base.regions->NumPolygons();
  profile.avg_vertices = base.regions->AvgVertices();
  profile.epsilon = epsilon;
  profile.total_perimeter = base.regions->TotalPerimeter();
  profile.total_polygon_area = base.regions->TotalArea();
  query::PlanChoice choice = query::ChoosePlan(profile);
  *explain = std::move(choice.explain);

  if (mode == Mode::kExact || epsilon <= 0.0) return query::PlanKind::kExactRStar;
  if (!PointIndexAnswers(agg, attr)) {
    *explain += "; the point index answers COUNT and SUM/AVG(fare) only -> ";
    *explain += query::PlanKindName(query::PlanKind::kExactRStar);
    return query::PlanKind::kExactRStar;
  }
  return mode == Mode::kPointIndex ? query::PlanKind::kPointIndexJoin : choice.kind;
}

/// Builds the per-region answer rows (value + Section 6 range) from the
/// merged per-region cell aggregates of a point-index execution.
void RowsFromRegionAggregates(const std::vector<join::CellAggregate>& per_region,
                              join::AggKind agg, std::vector<AggregateRow>* rows) {
  rows->resize(per_region.size());
  for (size_t r = 0; r < per_region.size(); ++r) {
    const join::CellAggregate& a = per_region[r];
    const join::ResultRange range = agg == join::AggKind::kCount ? join::CountRange(a)
                                    : agg == join::AggKind::kSum ? join::SumRange(a)
                                                                 : join::AvgRange(a);
    (*rows)[r] = {static_cast<uint32_t>(r), range.estimate, range.lo, range.hi};
  }
}

/// HR approximation of one polygon: through hooks.hr_provider when set
/// (the serving layer's cache), otherwise built fresh on this thread.
std::shared_ptr<const raster::HierarchicalRaster> HrForPolygon(
    const EngineState& state, const ExecHooks& hooks, size_t poly_index,
    const geom::Polygon& poly, double epsilon) {
  if (hooks.hr_provider) return hooks.hr_provider(poly_index, poly, epsilon);
  return std::make_shared<raster::HierarchicalRaster>(
      raster::HierarchicalRaster::BuildEpsilon(poly, state.grid, epsilon));
}

/// One flag per shard of a source, set by its probes (Probe::touched).
using ShardFlags = std::vector<std::atomic<uint32_t>>;

size_t CountTouched(const ShardFlags& touched) {
  size_t n = 0;
  for (const std::atomic<uint32_t>& flag : touched) {
    n += flag.load(std::memory_order_relaxed);
  }
  return n;
}

/// Boundary cells of an exact query's refine approximation are about
/// perimeter / kRefineCellsAcrossPerimeter wide. Finer cells cost more HR
/// build, coarser ones more PIP tests. Per query, over 1M taxi points and
/// 60 star polygons (16-64 vertices, 2-9% of the universe), each HR built
/// fresh, on a shared 4-core x86 host:
///
///   cells across the perimeter  HR build  refine   total    PIP tests
///   128                         0.17 ms   2.68 ms  2.84 ms  11.7k
///   256                         0.47 ms   1.59 ms  2.06 ms   6.0k
///   512                         0.85 ms   0.96 ms  1.81 ms   3.0k
///   1024                        1.13 ms   0.88 ms  2.01 ms   1.5k
///   2048                        2.16 ms   1.00 ms  3.16 ms   0.75k
///   the query's own eps level   3.14 ms   1.23 ms  4.37 ms   0.72k
///
/// A PIP scan of the whole table behind a bounding-box prefilter took
/// 22.9 ms and 106k PIP tests on the same polygons.
constexpr double kRefineCellsAcrossPerimeter = 512.0;

/// The level whose cells are at most perimeter / kRefineCellsAcrossPerimeter
/// wide, clamped to the grid's finest level. A function of the polygon
/// alone, so every path refines on the same HR.
int RefineLevel(const raster::Grid& grid, const geom::Polygon& poly) {
  const double width = poly.TotalPerimeter() / kRefineCellsAcrossPerimeter;
  if (!(width > 0.0)) return raster::CellId::kMaxLevel;
  // A cell `width` wide has diagonal width * sqrt(2).
  return grid.LevelForEpsilon(width * std::sqrt(2.0));
}

/// The exact stage of an ad-hoc query: the points inside a polygon, found
/// by approximating, then refining.
struct Refinement {
  /// Position ranges of runs of interior cells: inside whatever the cells'
  /// size (Section 2.2), so taken whole.
  std::vector<join::PositionRange> interior;
  /// Rows of boundary-cell points that pass the PIP test.
  std::vector<uint32_t> inside;
  size_t pip_tests = 0;

  size_t Count() const {
    size_t n = inside.size();
    for (const join::PositionRange& pos : interior) n += pos.hi - pos.lo;
    return n;
  }
};

/// Takes a conservative HR of `poly` through the hooks, so a repeated
/// exact ask hits the serving layer's cache, and walks its cells' position
/// ranges in base's point index by same-flag runs; only boundary-cell
/// points get a PIP test.
Refinement RefineExact(const EngineState& base, const geom::Polygon& poly,
                       const ExecHooks& hooks) {
  DBSA_CHECK(base.point_index.has_value());
  const join::PointIndex& index = *base.point_index;
  const std::vector<geom::Point>& locs = base.points->locs;
  const std::shared_ptr<const raster::HierarchicalRaster> hr =
      HrForPolygon(base, hooks, kAdHocPolygon, poly,
                   base.grid.AchievedEpsilon(RefineLevel(base.grid, poly)));
  Refinement out;
  index.ForEachRun(
      hr->cells().data(), hr->cells().size(), join::SearchStrategy::kRadixSpline,
      /*split_on_flag=*/true, [&](join::PositionRange pos, bool boundary) {
        if (!boundary) {
          out.interior.push_back(pos);
          return;
        }
        out.pip_tests += pos.hi - pos.lo;
        for (size_t i = pos.lo; i < pos.hi; ++i) {
          const uint32_t id = index.prefix_index().IdAt(i);
          if (poly.Contains(locs[id])) out.inside.push_back(id);
        }
      });
  return out;
}

/// Sorts row ids ascending: an LSD radix sort over 11-bit digits, with as
/// many passes as the largest id needs (two for up to 4M rows).
void SortRowIds(std::vector<uint32_t>* ids) {
  constexpr int kDigitBits = 11;
  constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;
  uint32_t max_id = 0;
  for (const uint32_t id : *ids) max_id = std::max(max_id, id);
  std::vector<uint32_t> sorted(ids->size());
  for (int shift = 0; shift < 32 && (max_id >> shift) != 0; shift += kDigitBits) {
    std::array<size_t, kDigitMask + 1> start{};
    for (const uint32_t id : *ids) ++start[(id >> shift) & kDigitMask];
    size_t offset = 0;
    for (size_t& s : start) offset += std::exchange(s, offset);
    for (const uint32_t id : *ids) sorted[start[(id >> shift) & kDigitMask]++] = id;
    ids->swap(sorted);
  }
}

/// The approximate half of an ad-hoc query: approximates `poly` at the
/// bound's level, hands the probe to `run`, and fills the plan, level,
/// index and shard fields of `stats`.
template <typename Fn>
void ProbeAdHoc(const ShardSource& source, const geom::Polygon& poly,
                const query::ErrorBound& bound, const ExecHooks& hooks,
                ExecStats* stats, Fn&& run) {
  const EngineState& base = source.base();
  const double epsilon = bound.EffectiveEpsilon(base.grid);
  const int level = base.grid.LevelForEpsilon(epsilon);
  const std::shared_ptr<const raster::HierarchicalRaster> hr =
      HrForPolygon(base, hooks, kAdHocPolygon, poly, epsilon);
  ShardFlags touched(source.num_shards());
  run(Probe{*hr, kAdHocPolygon, poly, bound, level, touched.data()});
  stats->plan = query::PlanKind::kPointIndexJoin;
  stats->hr_level = level;
  stats->achieved_epsilon = base.grid.AchievedEpsilon(level);
  stats->shards_probed = CountTouched(touched);
}

}  // namespace

AggregateAnswer ExecuteAggregate(const ShardSource& source, join::AggKind agg,
                                 Attr attr, const query::ErrorBound& bound,
                                 Mode mode, const ExecHooks& hooks) {
  const EngineState& base = source.base();
  DBSA_CHECK(!base.regions->polys.empty());
  const double epsilon = bound.EffectiveEpsilon(base.grid);
  AggregateAnswer answer;
  // An exact bound has epsilon 0, which resolves to the exact plan.
  const query::PlanKind plan =
      ResolveAggregatePlan(base, agg, attr, epsilon, mode, &answer.stats.explain);
  answer.stats.plan = plan;

  Timer timer;
  if (plan == query::PlanKind::kExactRStar) {
    const join::JoinStats stats = join::RStarMbrJoin(base.MakeInput(attr), agg);
    answer.stats.pip_tests = stats.pip_tests;
    answer.stats.achieved_epsilon = 0.0;
    answer.rows.resize(stats.value.size());
    for (size_t r = 0; r < stats.value.size(); ++r) {
      answer.rows[r] = {static_cast<uint32_t>(r), stats.value[r], stats.value[r],
                        stats.value[r]};
    }
  } else {
    const int level = base.grid.LevelForEpsilon(epsilon);
    answer.stats.hr_level = level;
    answer.stats.achieved_epsilon = base.grid.AchievedEpsilon(level);
    // Stage 1 — the HR lookups, independent per polygon, so the hook may
    // fan them out across threads; then ONE probe call for every polygon,
    // so a remote source carries the whole aggregate to each shard in one
    // frame per wave. A sharded source gathers each polygon's shard
    // partials in ascending shard order, so scheduling never changes a
    // merge order.
    const std::vector<geom::Polygon>& polys = base.regions->polys;
    std::vector<std::shared_ptr<const raster::HierarchicalRaster>> hrs(polys.size());
    RunMaybeParallel(hooks, polys.size(), [&](size_t j) {
      hrs[j] = HrForPolygon(base, hooks, j, polys[j], epsilon);
    });
    ShardFlags touched(source.num_shards());
    std::vector<Probe> probes;
    probes.reserve(polys.size());
    for (size_t j = 0; j < polys.size(); ++j) {
      probes.push_back(Probe{*hrs[j], j, polys[j], bound, level, touched.data()});
    }
    const std::vector<join::CellAggregate> per_poly = source.ProbeCells(probes, hooks);
    DBSA_CHECK(per_poly.size() == polys.size());
    // Stage 2 — combine into regions serially in polygon order, keeping
    // floating-point accumulation order independent of the scheduling
    // above (the service's determinism guarantee). The boundary partials
    // give the Section 6 result range.
    std::vector<join::CellAggregate> per_region(base.regions->num_regions);
    for (size_t j = 0; j < polys.size(); ++j) {
      answer.stats.query_cells += per_poly[j].query_cells;
      per_region[base.regions->region_of[j]].Merge(per_poly[j]);
    }
    answer.stats.shards_probed = CountTouched(touched);
    RowsFromRegionAggregates(per_region, agg, &answer.rows);
  }
  answer.stats.elapsed_ms = timer.Millis();
  return answer;
}

CountAnswer ExecuteCount(const ShardSource& source, const geom::Polygon& poly,
                         const query::ErrorBound& bound, const ExecHooks& hooks) {
  CountAnswer out;
  Timer timer;
  if (bound.exact()) {
    const Refinement refined = RefineExact(source.base(), poly, hooks);
    out.range.approx = out.range.lo = out.range.hi = out.range.estimate =
        static_cast<double>(refined.Count());
    out.stats.pip_tests = refined.pip_tests;
    out.stats.plan = query::PlanKind::kExactRStar;
  } else {
    ProbeAdHoc(source, poly, bound, hooks, &out.stats, [&](const Probe& probe) {
      const join::CellAggregate agg = source.ProbeCells({probe}, hooks).at(0);
      out.range = join::CountRange(agg);
      out.stats.query_cells = agg.query_cells;
    });
  }
  out.stats.elapsed_ms = timer.Millis();
  return out;
}

SelectAnswer ExecuteSelect(const ShardSource& source, const geom::Polygon& poly,
                           const query::ErrorBound& bound,
                           const ExecHooks& hooks) {
  SelectAnswer out;
  Timer timer;
  if (bound.exact()) {
    const Refinement refined = RefineExact(source.base(), poly, hooks);
    const index::PrefixSumIndex& index = source.base().point_index->prefix_index();
    out.ids.reserve(refined.Count());
    out.ids.insert(out.ids.end(), refined.inside.begin(), refined.inside.end());
    for (const join::PositionRange& pos : refined.interior) {
      index.CollectIds(pos.lo, pos.hi, &out.ids);
    }
    SortRowIds(&out.ids);
    out.stats.pip_tests = refined.pip_tests;
    out.stats.plan = query::PlanKind::kExactRStar;
  } else {
    ProbeAdHoc(source, poly, bound, hooks, &out.stats, [&](const Probe& probe) {
      out.ids = source.SelectIds(probe, hooks, &out.stats.query_cells);
    });
  }
  out.stats.elapsed_ms = timer.Millis();
  return out;
}

}  // namespace dbsa::core
