// Aggregate functions for the spatial aggregation query of Section 5:
//   SELECT AGG(a_i) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id
// COUNT and SUM are distributive, AVG is algebraic (both combine from
// per-cell partials, which is what makes cell-parallel evaluation work).

#ifndef DBSA_JOIN_AGG_H_
#define DBSA_JOIN_AGG_H_

#include <limits>
#include <string>
#include <vector>

namespace dbsa::join {

enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

/// Streaming accumulator for one group.
struct Accumulator {
  double count = 0.0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double value) {
    count += 1.0;
    sum += value;
    if (value < min) min = value;
    if (value > max) max = value;
  }

  /// Merges a distributive partial (e.g. one cell's sub-aggregate).
  void Merge(const Accumulator& o) {
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }

  double Result(AggKind kind) const;
};

/// Extracts final values for all groups.
std::vector<double> Finalize(const std::vector<Accumulator>& accs, AggKind kind);

}  // namespace dbsa::join

#endif  // DBSA_JOIN_AGG_H_
