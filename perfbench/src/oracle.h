// Exact answers for every query the benchmark times, computed off the
// clock and independently of the engine: the benchmark's own bucket grid
// over the point table and its own crossing-number point-in-polygon test.
// Buckets that no polygon edge touches are classified once by their
// centre; only points in edge-touched buckets are tested one by one.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "geom/polygon.h"

namespace perfbench {

/// Exact per-region totals of the region table (COUNT and SUM(fare)).
struct RegionTotals {
  std::vector<double> count;
  std::vector<long double> fare_sum;
};

class Oracle {
 public:
  /// Buckets the points over `universe` (`side` x `side` buckets).
  Oracle(const dbsa::data::PointSet& points, const dbsa::geom::Box& universe,
         int side = 256);

  /// Number of points strictly inside `poly`.
  uint64_t Count(const dbsa::geom::Polygon& poly) const;
  /// Row ids of the points inside `poly`, ascending.
  std::vector<uint32_t> Select(const dbsa::geom::Polygon& poly) const;
  /// COUNT and SUM(fare) per region (multi-part regions summed).
  RegionTotals Regions(const dbsa::data::RegionSet& regions) const;

 private:
  /// Calls fn(row) for every point inside `poly`.
  template <typename Fn>
  void ForEachInside(const dbsa::geom::Polygon& poly, Fn&& fn) const;

  dbsa::geom::Box universe_;
  int side_;
  double cell_w_;
  double cell_h_;
  /// Points grouped by bucket: rows of bucket b are rows_[start_[b] ..
  /// start_[b+1]), with their coordinates alongside.
  std::vector<uint32_t> start_;
  std::vector<uint32_t> rows_;
  std::vector<dbsa::geom::Point> locs_;
  std::vector<double> fare_;
};

/// The point-in-polygon rule of the oracle (even-odd over the outer ring,
/// minus the holes), written out here so the oracle does not lean on the
/// engine's geometry code.
bool OracleContains(const dbsa::geom::Polygon& poly, const dbsa::geom::Point& p);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
