#include "service/query.h"

namespace dbsa::service {

const char* QueryKindName(QueryKind kind) {
  static_assert(kQueryKindCount == 3, "new query kind: name it below");
  switch (kind) {
    case QueryKind::kAggregate:
      return "aggregate";
    case QueryKind::kCount:
      return "count";
    case QueryKind::kSelect:
      return "select";
  }
  return "?";
}

const char* ExecPathName(ExecPath path) {
  static_assert(kExecPathCount == 3, "new execution path: name it below");
  switch (path) {
    case ExecPath::kLocal:
      return "local";
    case ExecPath::kSharded:
      return "sharded";
    case ExecPath::kTransport:
      return "transport";
  }
  return "?";
}

namespace {

struct SpecValidator {
  Status operator()(const AggregateSpec& spec) const {
    if (spec.agg != join::AggKind::kCount && spec.attr == core::Attr::kNone) {
      return Status::InvalidArgument("SUM/AVG/MIN/MAX require an attribute column");
    }
    return Status::OK();
  }
  Status operator()(const CountSpec& spec) const { return ValidPoly(spec.poly); }
  Status operator()(const SelectSpec& spec) const { return ValidPoly(spec.poly); }

  static Status ValidPoly(const geom::Polygon& poly) {
    if (poly.outer().size() < 3) {
      return Status::InvalidArgument("query polygon needs at least 3 vertices");
    }
    // A NaN or infinite vertex has no grid cell: rasterizing it overflows
    // the scanline arithmetic or yields a meaningless approximation.
    if (!poly.IsFinite()) {
      return Status::InvalidArgument("query polygon has a non-finite vertex");
    }
    return Status::OK();
  }
};

}  // namespace

Status ValidateQuery(const Query& query, const ExecOptions& options,
                     const raster::Grid& grid) {
  const Status bound = options.bound.ValidateFor(grid);
  if (!bound.ok()) return bound;
  return query.Visit(SpecValidator{});
}

}  // namespace dbsa::service
