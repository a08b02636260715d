// Shared helpers for the figure/table benches: scaled dataset
// construction, command-line scaling knobs, and uniform result printing.
//
// Every bench prints (a) the paper's reported numbers for reference and
// (b) our measurements at the bench's (laptop) scale. Absolute times are
// not comparable — the shapes are the target, and each figure bench
// prints the shape it expects beside its table.

#ifndef DBSA_BENCH_BENCH_UTIL_H_
#define DBSA_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <cstring>
#include <string>

#include "core/dbsa.h"
#include "join/si_join.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace dbsa::bench {

/// Parses "--name=value" style integer flags from argv.
inline size_t FlagSize(int argc, char** argv, const char* name, size_t def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return static_cast<size_t>(std::strtoull(argv[i] + prefix.size(), nullptr, 10));
    }
  }
  return def;
}

/// Standard bench universe: a 16.4 km "city" square. Small enough that a
/// 4 m distance bound produces index sizes that build in seconds on one
/// core, large enough to keep thousands of regions meaningful.
inline geom::Box BenchUniverse() { return geom::Box(0.0, 0.0, 16384.0, 16384.0); }

/// Taxi points over the bench universe.
inline data::PointSet BenchPoints(size_t n, uint64_t seed = 20210111) {
  data::TaxiConfig config;
  config.universe = BenchUniverse();
  config.seed = seed;
  return data::GenerateTaxiPoints(n, config);
}

/// The three region datasets of the paper, scaled. Census polygon count
/// defaults to 1/10th of the paper's 39,200 to keep build times in
/// seconds; vertex complexities match the paper exactly.
inline data::RegionSet BenchBoroughs() {
  return data::GenerateRegions(data::BoroughsConfig(BenchUniverse()));
}
inline data::RegionSet BenchNeighborhoods() {
  return data::GenerateRegions(data::NeighborhoodsConfig(BenchUniverse()));
}
inline data::RegionSet BenchCensus(size_t num_polygons = 3920) {
  return data::GenerateRegions(data::CensusConfig(BenchUniverse(), num_polygons));
}

/// Fills a JoinInput from a point set and region set.
inline join::JoinInput MakeInput(const data::PointSet& points,
                                 const data::RegionSet& regions,
                                 bool with_attrs = false) {
  join::JoinInput in;
  in.points = points.locs.data();
  in.attrs = with_attrs ? points.fare.data() : nullptr;
  in.num_points = points.size();
  in.polys = &regions.polys;
  in.region_of = &regions.region_of;
  in.num_regions = regions.num_regions;
  return in;
}

/// Prints the run configuration banner.
inline void PrintScale(const std::string& what) {
  PrintNote("scale: " + what);
  PrintNote("(single-threaded; shapes, not absolute times, are the target)");
}

}  // namespace dbsa::bench

#endif  // DBSA_BENCH_BENCH_UTIL_H_
