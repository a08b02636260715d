#include "workload.h"

#include <algorithm>
#include <cmath>

#include "data/regions.h"
#include "data/taxi.h"
#include "util/random.h"

namespace perfbench {

using dbsa::Rng;
using dbsa::geom::Box;
using dbsa::geom::Point;
using dbsa::geom::Polygon;
using dbsa::geom::Ring;
using dbsa::join::AggKind;
using dbsa::query::ErrorBound;
using dbsa::service::ExecPath;
using dbsa::service::Query;

namespace {

constexpr double kPi = 3.14159265358979323846;

/// explore_cold: expected completions per session-second, with headroom,
/// so a stream outlasts the run even on a much faster engine.
constexpr double kExploreStreamRate = 200.0;
/// explore_cold's region aggregates all ask this bound: a whole-map
/// aggregate is the zoomed-out view, so it asks the coarsest bound of the
/// zoom range. Their 500 region HRs (a few MiB) are touched every ~10
/// queries, so LRU keeps them while the fresh polygons' HRs churn through
/// the rest of the budget: an aggregate costs the same every time instead
/// of depending on what the other session evicted since the last one.
constexpr double kExploreAggregateEps = 32.0;
/// Fixed-table workloads cycle through a stream of at least this length.
constexpr size_t kCycleLength = 8192;

/// Star-shaped simple polygon: `n` vertices at jittered, increasing
/// angles around a centre, covering about `area_frac` of the universe.
Polygon StarPolygon(Rng& rng, const Box& u, double area_frac, int n) {
  const double radius = std::sqrt(area_frac * u.Area() / (kPi * 0.72));
  const Point c{rng.Uniform(u.min.x + radius, u.max.x - radius),
                rng.Uniform(u.min.y + radius, u.max.y - radius)};
  Ring ring;
  ring.reserve(static_cast<size_t>(n));
  const double step = 2.0 * kPi / n;
  for (int i = 0; i < n; ++i) {
    const double theta = step * (i + rng.Uniform(-0.3, 0.3));
    const double r = radius * rng.Uniform(0.7, 1.0);
    ring.push_back({c.x + r * std::cos(theta), c.y + r * std::sin(theta)});
  }
  Polygon poly(std::move(ring));
  poly.Normalize();
  return poly;
}

/// Axis-aligned viewport covering `area_frac` of the universe around `c`
/// (shifted inside the universe where it would stick out).
Polygon ViewportAt(const Point& c, double area_frac, double aspect, const Box& u) {
  const double w = std::min(std::sqrt(area_frac * u.Area() * aspect), u.Width());
  const double h = std::min(area_frac * u.Area() / w, u.Height());
  const double x0 = std::clamp(c.x - w / 2, u.min.x, u.max.x - w);
  const double y0 = std::clamp(c.y - h / 2, u.min.y, u.max.y - h);
  Polygon poly(Ring{{x0, y0}, {x0 + w, y0}, {x0 + w, y0 + h}, {x0, y0 + h}});
  poly.Normalize();
  return poly;
}

BenchQuery Make(Query query, ErrorBound bound, int32_t poly) {
  BenchQuery q;
  q.query = std::move(query);
  q.options.bound = bound;
  // Aggregates run the point-index plan, whose rows carry the guaranteed
  // range the oracle checks (the other approximate plans return a point
  // estimate).
  if (q.query.kind() == dbsa::service::QueryKind::kAggregate) {
    q.options.mode = dbsa::core::Mode::kPointIndex;
  }
  q.poly = poly;
  return q;
}

Query AggregateQuery(int which) {
  switch (which % 3) {
    case 0:
      return Query::Aggregate(AggKind::kCount);
    case 1:
      return Query::Aggregate(AggKind::kSum, dbsa::core::Attr::kFare);
    default:
      return Query::Aggregate(AggKind::kAvg, dbsa::core::Attr::kFare);
  }
}

/// A seeded permutation of 0..n-1.
std::vector<size_t> Shuffled(Rng& rng, size_t n) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Below(i)]);
  return p;
}

/// A draw from the k-th of n equal strata of [lo, hi). Drawing every
/// stratum once keeps each seed's mix of sizes the same, so seeds differ
/// in geometry, not in how much work they ask for.
double Stratum(Rng& rng, double lo, double hi, size_t k, size_t n) {
  return lo + (hi - lo) * (static_cast<double>(k) + rng.Uniform()) / static_cast<double>(n);
}

/// explore_cold block of stream positions, in seeded order: 1 region
/// aggregate, 2 exact re-asks, 9 counts and 8 selects on fresh polygons.
enum class Role { kAggregate, kExact, kCount, kSelect };
constexpr size_t kBlock = 20;
constexpr size_t kFreshPerBlock = 17;
/// Accuracy is averaged over this many whole blocks per session.
constexpr size_t kAccuracyBlocks = 40;

Role RoleAt(size_t slot) {
  if (slot < 1) return Role::kAggregate;
  if (slot < 3) return Role::kExact;
  if (slot < 12) return Role::kCount;
  return Role::kSelect;
}

void ExploreCold(Workload* w, uint64_t seed, double seconds, const Box& u) {
  w->path = ExecPath::kLocal;
  w->accuracy_prefix = kAccuracyBlocks * kBlock;
  const size_t blocks = std::max(
      kAccuracyBlocks, static_cast<size_t>(std::ceil(kExploreStreamRate * std::max(seconds, 1.0) /
                                                     static_cast<double>(kBlock))));
  const auto fresh_polygon = [&](Rng& rng, double area, size_t k) {
    const int vertices = static_cast<int>(Stratum(rng, 16.0, 64.0, k, kFreshPerBlock));
    w->polys.push_back(StarPolygon(rng, u, area, vertices));
    return static_cast<int32_t>(w->polys.size() - 1);
  };
  w->streams.resize(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 101 * (s + 1));
    // The polygon the session was looking at before the run.
    int32_t recent = fresh_polygon(rng, 0.055, kFreshPerBlock / 2);
    for (size_t b = 0; b < blocks; ++b) {
      const std::vector<size_t> slots = Shuffled(rng, kBlock);
      const std::vector<size_t> areas = Shuffled(rng, kFreshPerBlock);
      const std::vector<size_t> shapes = Shuffled(rng, kFreshPerBlock);
      size_t fresh = 0;
      for (const size_t slot : slots) {
        w->streams[s].push_back(static_cast<uint32_t>(w->table.size()));
        const Role role = RoleAt(slot);
        if (role == Role::kAggregate) {
          // Kinds cycle, so every seed asks the same mix.
          w->table.push_back(Make(AggregateQuery(static_cast<int>(b % 3)),
                                  ErrorBound::Absolute(kExploreAggregateEps), -1));
          continue;
        }
        if (role == Role::kExact) {
          w->table.push_back(Make(Query::Count(w->polys[static_cast<size_t>(recent)]),
                                  ErrorBound::Exact(), recent));
          continue;
        }
        // The bound follows the zoom: larger polygons are asked coarser.
        const double area = Stratum(rng, 0.02, 0.09, areas[fresh], kFreshPerBlock);
        const double zoom = (area - 0.02) / 0.07;
        const double eps =
            std::clamp(4.0 * std::pow(8.0, zoom) * rng.Uniform(0.9, 1.1), 4.0, 32.0);
        recent = fresh_polygon(rng, area, shapes[fresh++]);
        const Polygon& poly = w->polys.back();
        w->table.push_back(role == Role::kCount
                               ? Make(Query::Count(poly), ErrorBound::Absolute(eps), recent)
                               : Make(Query::Select(poly), ErrorBound::Absolute(eps), recent));
      }
    }
  }
}

/// Fixed query table: the first `shared` rows (the region aggregates) are
/// asked by every session, the rest split evenly into the sessions' own
/// dashboards. Each session cycles through seeded permutations of its
/// rows (every row once per cycle); accuracy is taken over the first cycle.
void CycleStreams(Workload* w, uint64_t seed, size_t shared) {
  const size_t own = (w->table.size() - shared) / kSessions;
  w->accuracy_prefix = shared + own;
  w->streams.resize(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    std::vector<uint32_t> rows;
    for (size_t r = 0; r < shared; ++r) rows.push_back(static_cast<uint32_t>(r));
    for (size_t r = shared + s * own; r < shared + (s + 1) * own; ++r) {
      rows.push_back(static_cast<uint32_t>(r));
    }
    Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 7 * (s + 1));
    while (w->streams[s].size() < kCycleLength) {
      for (const size_t i : Shuffled(rng, rows.size())) w->streams[s].push_back(rows[i]);
    }
  }
  for (uint32_t row = 0; row < w->table.size(); ++row) w->warm_rows.push_back(row);
}

/// Appends one dashboard of `n` viewports per session, each asked as a
/// count at every bound in `count_eps` and as a select at every bound in
/// `select_eps`. A viewport is centred on a
/// data point. With `count`, it is sized to show a target number of points
/// (targets stratified over [lo_points, hi_points)) within [min_area,
/// max_area] of the universe — sizing by what a viewport shows keeps the
/// work per query alike across seeds on clustered data; without, its area
/// is stratified over [min_area, max_area).
void AddDashboards(Workload* w, Rng& rng, const Dataset& data, const PointCounter* count,
                   size_t n, double lo_points, double hi_points, double min_area,
                   double max_area, const std::vector<double>& count_eps,
                   const std::vector<double>& select_eps) {
  const Box u = Universe();
  for (size_t s = 0; s < kSessions; ++s) {
    const std::vector<size_t> strata = Shuffled(rng, n);
    for (size_t v = 0; v < n; ++v) {
      const Point c = data.points.locs[rng.Below(data.points.size())];
      const double aspect = rng.Uniform(0.75, 1.33);
      double area = Stratum(rng, min_area, max_area, strata[v], n);
      if (count != nullptr) {
        const double target = Stratum(rng, lo_points, hi_points, strata[v], n);
        double lo = std::log(min_area), hi = std::log(max_area);
        for (int step = 0; step < 14; ++step) {
          const double mid = 0.5 * (lo + hi);
          const double shown =
              static_cast<double>((*count)(ViewportAt(c, std::exp(mid), aspect, u)));
          (shown < target ? lo : hi) = mid;
        }
        area = std::exp(hi);
      }
      const int32_t id = static_cast<int32_t>(w->polys.size());
      w->polys.push_back(ViewportAt(c, area, aspect, u));
      for (const double e : count_eps) {
        w->table.push_back(Make(Query::Count(w->polys.back()), ErrorBound::Absolute(e), id));
      }
      for (const double e : select_eps) {
        w->table.push_back(Make(Query::Select(w->polys.back()), ErrorBound::Absolute(e), id));
      }
    }
  }
}

void DashboardWarm(Workload* w, uint64_t seed, const Dataset& data,
                   const PointCounter& count) {
  w->path = ExecPath::kSharded;
  Rng rng(seed * 0x94d049bb133111ebULL + 3);
  // The HRs of all 500 regions take about 48 MiB at eps=4 and 12 MiB at
  // eps=16, so aggregates at 4 and 16 would not fit the 64 MiB cache next
  // to the viewports: the region aggregates ask 8 and 16.
  //
  // The counts of two bounds 4x apart form two latency modes, and a median
  // of two equal modes falls in the gap between them, where a small shift
  // of either moves it far; counts therefore ask three bounds, so their
  // median is the middle mode's. With selects at two, the overall median
  // falls inside the eps=4 counts. The three eps=8 aggregates are ~2% of
  // each session's rows, so p99 falls inside them, not on their edge.
  const double agg_eps[2] = {8.0, 16.0};
  for (int a = 0; a < 5; ++a) {
    w->table.push_back(Make(AggregateQuery(a), ErrorBound::Absolute(agg_eps[a / 3]), -1));
  }
  AddDashboards(w, rng, data, &count, 32, 1500, 6000, 0.001, 0.015, {4.0, 8.0, 16.0},
                {4.0, 16.0});
  w->warm_epsilons = {agg_eps[0], agg_eps[1]};
  CycleStreams(w, seed, 5);
}

/// Copies of each aggregate row in the table: 6 of each session's 198 rows
/// (3%), so p99 falls inside the aggregates' latencies, not on their edge.
constexpr int kClusterAggregateCopies = 3;

void ClusterScatter(Workload* w, uint64_t seed, const Dataset& data) {
  w->path = ExecPath::kTransport;
  Rng rng(seed * 0xd6e8feb86659fd93ULL + 5);
  // The aggregates ask a coarse bound so their 500 region slices stay
  // small next to the viewports' in the shard caches.
  for (int copy = 0; copy < kClusterAggregateCopies; ++copy) {
    for (int a = 0; a < 2; ++a) {
      w->table.push_back(Make(AggregateQuery(a), ErrorBound::Absolute(64.0), -1));
    }
  }
  // 2 x 96 viewports whose routed slices at eps=4 add up to about twice
  // each shard server's slice-cache budget. They are sized by area, not by
  // points: the slices' bytes, and so the shards' hit rate, follow the
  // viewport's perimeter.
  AddDashboards(w, rng, data, nullptr, 96, 0, 0, 0.005, 0.015, {4.0}, {4.0});
  w->warm_epsilons = {64.0};
  CycleStreams(w, seed, 2 * kClusterAggregateCopies);
}

}  // namespace

Box Universe() { return Box(0.0, 0.0, 16384.0, 16384.0); }

Dataset MakeDataset() {
  Dataset d;
  const Box universe = Universe();
  dbsa::data::TaxiConfig taxi;
  taxi.universe = universe;
  taxi.seed = kDataSeed;
  d.points = dbsa::data::GenerateTaxiPoints(kNumPoints, taxi);
  d.regions = dbsa::data::GenerateRegions(dbsa::data::CensusConfig(universe, kNumRegions));
  return d;
}

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (const WorkloadKind k : {WorkloadKind::kExploreCold, WorkloadKind::kDashboardWarm,
                               WorkloadKind::kClusterScatter}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kExploreCold:
      return "explore_cold";
    case WorkloadKind::kDashboardWarm:
      return "dashboard_warm";
    case WorkloadKind::kClusterScatter:
      return "cluster_scatter";
  }
  return "?";
}

Workload MakeWorkload(WorkloadKind kind, uint64_t seed, double seconds, const Dataset& data,
                      const PointCounter& count) {
  Workload w;
  w.kind = kind;
  switch (kind) {
    case WorkloadKind::kExploreCold:
      ExploreCold(&w, seed, seconds, Universe());
      break;
    case WorkloadKind::kDashboardWarm:
      DashboardWarm(&w, seed, data, count);
      break;
    case WorkloadKind::kClusterScatter:
      ClusterScatter(&w, seed, data);
      break;
  }
  return w;
}

}  // namespace perfbench
