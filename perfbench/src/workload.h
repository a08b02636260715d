// The benchmark's inputs: the fixed dataset (1M taxi points, 500 census
// region polygons) and, per workload, the seeded query table and the two
// closed-loop sessions' streams over it. Everything here is a pure
// function of (workload, seed); the engine only ever sees the generated
// queries.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "service/query.h"

namespace perfbench {

inline constexpr size_t kNumPoints = 1000000;
inline constexpr size_t kNumRegions = 500;
inline constexpr size_t kSessions = 2;
inline constexpr size_t kPoolThreads = 2;
inline constexpr size_t kShards = 2;
/// Seed of the dataset itself; --seed varies only the queries.
inline constexpr uint64_t kDataSeed = 20210111;
/// Reserved for confirming a claimed gain on inputs it was not tuned on.
inline constexpr uint64_t kConfirmSeed = 977;

struct Dataset {
  dbsa::data::PointSet points;
  dbsa::data::RegionSet regions;
};

/// The 16384 m square the data covers.
dbsa::geom::Box Universe();

Dataset MakeDataset();

/// Counts the points inside a polygon (the oracle); viewports are sized by
/// how many points they show.
using PointCounter = std::function<uint64_t(const dbsa::geom::Polygon&)>;

enum class WorkloadKind { kExploreCold, kDashboardWarm, kClusterScatter };

bool ParseWorkload(const std::string& name, WorkloadKind* kind);
const char* WorkloadName(WorkloadKind kind);

/// One query of the table. `poly` indexes Workload::polys for counts and
/// selects; aggregates carry -1.
struct BenchQuery {
  dbsa::service::Query query;
  dbsa::service::ExecOptions options;
  int32_t poly = -1;
};

struct Workload {
  WorkloadKind kind = WorkloadKind::kExploreCold;
  dbsa::service::ExecPath path = dbsa::service::ExecPath::kLocal;
  /// Distinct query polygons (the oracle's inputs).
  std::vector<dbsa::geom::Polygon> polys;
  std::vector<BenchQuery> table;
  /// Per session, the table rows it submits, in order.
  std::vector<std::vector<uint32_t>> streams;
  /// Set-up warm-up: WarmCache epsilons, then one pass over these rows.
  std::vector<double> warm_epsilons;
  std::vector<uint32_t> warm_rows;
  /// Accuracy is averaged over this many leading positions of each
  /// session's stream: whole blocks or cycles, so the mix of query kinds
  /// it covers is the same for every seed.
  size_t accuracy_prefix = 0;
};

/// Builds the workload for `seed`. `seconds` sizes the explore_cold
/// streams (fresh polygons are never repeated, so the stream must outlast
/// the run); the fixed-table workloads cycle through their table.
Workload MakeWorkload(WorkloadKind kind, uint64_t seed, double seconds, const Dataset& data,
                      const PointCounter& count);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
