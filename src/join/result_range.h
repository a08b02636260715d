// Result-range estimation (Section 6, "Result Range Estimation"): with a
// conservative raster, errors can only come from boundary cells, so the
// exact COUNT lies in [alpha - eps_b, alpha] with 100% confidence, where
// alpha is the approximate count and eps_b the partial count over
// boundary cells. A coverage assumption tightens the interval (without
// the guarantee).

#ifndef DBSA_JOIN_RESULT_RANGE_H_
#define DBSA_JOIN_RESULT_RANGE_H_

#include "join/point_index_join.h"

namespace dbsa::join {

/// A guaranteed interval plus a point estimate for an aggregate computed
/// on a conservative raster approximation.
struct ResultRange {
  double approx = 0.0;    ///< The raw approximate answer (alpha).
  double lo = 0.0;        ///< Guaranteed lower bound (alpha - eps_b).
  double hi = 0.0;        ///< Guaranteed upper bound (alpha).
  double estimate = 0.0;  ///< Heuristic: alpha - (1 - beta) * eps_b.

  double Width() const { return hi - lo; }
  bool Contains(double exact) const { return exact >= lo - 1e-9 && exact <= hi + 1e-9; }
};

/// Builds the interval from total and boundary partial aggregates.
/// beta is the assumed fraction of boundary-cell results that are true
/// positives (0.5 = half the boundary mass inside, the paper's
/// "assumptions about the distribution of points at the boundary").
ResultRange MakeResultRange(double total, double boundary_partial, double beta = 0.5);

/// Interval for a CellAggregate (count or sum of a conservative query).
ResultRange CountRange(const CellAggregate& agg, double beta = 0.5);
ResultRange SumRange(const CellAggregate& agg, double beta = 0.5);

/// Interval for the average of a conservative query, from its count C,
/// boundary count C_b, sum S and boundary sum S_b: the exact average lies
/// in [(S - S_b) / C, S / (C - C_b)] (S_b when C == C_b). The estimate is
/// S / C. Like SumRange, it holds for non-negative attribute columns.
ResultRange AvgRange(const CellAggregate& agg);

}  // namespace dbsa::join

#endif  // DBSA_JOIN_RESULT_RANGE_H_
