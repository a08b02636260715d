// The query envelope: what a client hands the serving layer and what it
// gets back.
//
//   Query        WHAT to compute — a closed set of typed descriptors
//                (AggregateSpec / CountSpec / SelectSpec) behind a
//                variant. Adding a query kind means adding a spec type
//                and one visitor branch in the service, not editing an
//                enum switch scattered across five files.
//   ExecOptions  HOW to compute it — the per-query contract: a typed
//                distance bound (query::ErrorBound) and an execution-mode
//                hint.
//   Result       the answer PLUS the achieved side of the contract
//                (BoundReport: epsilon requested vs. grid epsilon
//                actually served, HR level, cells touched, cache and
//                deployment provenance) and a typed Status instead of a
//                string error.
//
// The same envelope runs on every execution path — single-threaded
// engine, pooled service, in-process sharded, shard-server transport
// seam — with byte-identical payloads under every mode (tested in
// tests/query_envelope_test.cc).

#ifndef DBSA_SERVICE_QUERY_H_
#define DBSA_SERVICE_QUERY_H_

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "core/engine_state.h"
#include "geom/polygon.h"
#include "join/agg.h"
#include "join/result_range.h"
#include "query/error_bound.h"
#include "util/status.h"

namespace dbsa::service {

// ------------------------------------------------------------ the query

/// SELECT AGG(attr) FROM points, regions GROUP BY region.
struct AggregateSpec {
  join::AggKind agg = join::AggKind::kCount;
  core::Attr attr = core::Attr::kNone;
};

/// COUNT points inside an ad-hoc polygon, with a guaranteed range.
struct CountSpec {
  geom::Polygon poly;
};

/// SELECT ids of points inside an ad-hoc polygon.
struct SelectSpec {
  geom::Polygon poly;
};

/// The open descriptor union. New query kinds extend this variant (and
/// the service's visitor) without touching existing specs.
using QuerySpec = std::variant<AggregateSpec, CountSpec, SelectSpec>;

/// Reporting tag of a spec (Result::kind); tracks the variant order.
enum class QueryKind : uint8_t { kAggregate = 0, kCount = 1, kSelect = 2 };

/// Number of query kinds — pinned to the variant arity so the tag enum
/// and the descriptor union cannot drift apart. Every visitor dispatch
/// site carries an adjacent `static_assert(std::variant_size_v<QuerySpec>
/// == kQueryKindCount)`: adding a query kind is then a compile error at
/// each site that must learn to handle it, not a silent std::visit
/// fallthrough into generic-lambda behaviour.
inline constexpr int kQueryKindCount = 3;
static_assert(std::variant_size_v<QuerySpec> == kQueryKindCount,
              "QuerySpec grew: bump kQueryKindCount, extend QueryKind, then "
              "fix every static_assert(kQueryKindCount == ...) dispatch site");
static_assert(static_cast<int>(QueryKind::kSelect) + 1 == kQueryKindCount,
              "QueryKind must track the variant order and arity");

const char* QueryKindName(QueryKind kind);

/// One query, built from a typed descriptor.
class Query {
 public:
  Query() : spec_(AggregateSpec{}) {}
  explicit Query(QuerySpec spec) : spec_(std::move(spec)) {}

  static Query Aggregate(join::AggKind agg, core::Attr attr = core::Attr::kNone) {
    return Query(AggregateSpec{agg, attr});
  }
  static Query Count(geom::Polygon poly) {
    return Query(CountSpec{std::move(poly)});
  }
  static Query Select(geom::Polygon poly) {
    return Query(SelectSpec{std::move(poly)});
  }

  const QuerySpec& spec() const { return spec_; }
  QueryKind kind() const { return static_cast<QueryKind>(spec_.index()); }

  template <typename Visitor>
  decltype(auto) Visit(Visitor&& visitor) const {
    return std::visit(std::forward<Visitor>(visitor), spec_);
  }

 private:
  QuerySpec spec_;
};

// ---------------------------------------------------------- the options

/// Per-query execution contract.
struct ExecOptions {
  /// The distance-bound contract (defaults to exact — approximation is
  /// opt-in, exactly as the paper frames it).
  query::ErrorBound bound = query::ErrorBound::Exact();
  /// Plan override for aggregations: kAuto lets the optimizer choose
  /// between the point-index and exact plans from the base tables and the
  /// bound, identically on every path. Both plans carry a guaranteed
  /// range. Aggregates the point index cannot answer run exact anyway.
  core::Mode mode = core::Mode::kAuto;
};

// ----------------------------------------------------------- the result

/// Which deployment path executed the query (provenance, not semantics —
/// payloads are byte-identical across paths).
enum class ExecPath : uint8_t {
  kLocal = 0,      ///< Unsharded snapshot execution.
  kSharded = 1,    ///< In-process scatter-gather across spatial shards.
  kTransport = 2,  ///< Shard servers behind the serialized message seam.
};

/// Number of ExecPath values (see kQueryKindCount for the convention).
inline constexpr int kExecPathCount = 3;
static_assert(static_cast<int>(ExecPath::kTransport) + 1 == kExecPathCount,
              "ExecPath grew: bump kExecPathCount and fix the asserting "
              "dispatch sites");

const char* ExecPathName(ExecPath path);

/// The achieved side of the distance-bound contract, reported with every
/// successful Result: what was asked, what the grid actually guaranteed,
/// and where the answer came from.
struct BoundReport {
  query::ErrorBound requested;
  /// Hausdorff bound actually guaranteed (cell diagonal of the served
  /// level; 0 for exact answers). <= requested epsilon: admission
  /// rejects a request finer than the finest grid level.
  double epsilon_achieved = 0.0;
  /// Hierarchical-raster level served (-1: an exact answer).
  int hr_level = -1;
  /// Approximation cells probed (per shard slice on scattered paths; 0
  /// for exact answers).
  size_t cells_touched = 0;
  /// HR lookups served from / built into the ApproxCache, including an
  /// exact ad-hoc query's refine approximation.
  size_t hr_cache_hits = 0;
  size_t hr_cache_misses = 0;
  /// Distinct shards that survived pruning (0 on unscattered paths).
  size_t shards_probed = 0;
  ExecPath path = ExecPath::kLocal;
  /// 128-bit trace id of this query (telemetry/trace.h) — correlate the
  /// Result with its slow-query line or scraped spans. Set on every
  /// Result the service delivers, failures included. Provenance only,
  /// like `path`: payloads are byte-identical to the untraced core
  /// executors.
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
};

/// Response to one query: the payload field matching `kind`, the achieved
/// bound, and a typed status. A failed query carries its Status (never a
/// loose string) and default payloads.
struct Result {
  QueryKind kind = QueryKind::kAggregate;
  Status status;

  core::AggregateAnswer aggregate;  ///< kAggregate.
  join::ResultRange range;          ///< kCount.
  std::vector<uint32_t> ids;        ///< kSelect.

  BoundReport bound;

  bool ok() const { return status.ok(); }
};

/// Admission validation, run before every query executes: the bound
/// against the serving grid (ErrorBound::ValidateFor) plus per-spec rules
/// (SUM/AVG/MIN/MAX need a column, polygons need >= 3 finite vertices).
/// OK does not mean the execution cannot fail — it means the envelope is
/// well-formed and its bound can be honoured.
Status ValidateQuery(const Query& query, const ExecOptions& options,
                     const raster::Grid& grid);

}  // namespace dbsa::service

#endif  // DBSA_SERVICE_QUERY_H_
