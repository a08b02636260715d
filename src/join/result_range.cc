#include "join/result_range.h"

#include <algorithm>

namespace dbsa::join {

ResultRange MakeResultRange(double total, double boundary_partial, double beta) {
  ResultRange r;
  r.approx = total;
  r.hi = total;
  r.lo = total - boundary_partial;
  r.estimate = total - (1.0 - beta) * boundary_partial;
  r.lo = std::min(r.lo, r.hi);
  return r;
}

ResultRange CountRange(const CellAggregate& agg, double beta) {
  return MakeResultRange(agg.count, agg.boundary_count, beta);
}

ResultRange SumRange(const CellAggregate& agg, double beta) {
  // Round the compensated pairs once, here — the partials merged exactly.
  return MakeResultRange(agg.SumValue(), agg.BoundarySumValue(), beta);
}

ResultRange AvgRange(const CellAggregate& agg) {
  // The exact set keeps every interior point and loses at most the
  // boundary ones: its sum is in [S - S_b, S] and its size in [C - C_b, C].
  const double sum = agg.SumValue();
  const double interior = agg.count - agg.boundary_count;
  ResultRange r;
  r.approx = r.estimate = agg.count > 0 ? sum / agg.count : 0.0;
  r.lo = agg.count > 0 ? (sum - agg.BoundarySumValue()) / agg.count : 0.0;
  r.hi = interior > 0 ? sum / interior : agg.BoundarySumValue();
  return r;
}

}  // namespace dbsa::join
