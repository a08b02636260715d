// Umbrella header for the dbsa library — distance-bounded spatial
// approximations (CIDR'21 reproduction). Include this to get the public
// API: the engine state and its executors, the raster approximations,
// the indexing layer, the canvas algebra, the join executors, and the
// serving layer.

#ifndef DBSA_CORE_DBSA_H_
#define DBSA_CORE_DBSA_H_

// Geometry kernel.
#include "geom/box.h"       // IWYU pragma: export
#include "geom/distance.h"  // IWYU pragma: export
#include "geom/point.h"     // IWYU pragma: export
#include "geom/polygon.h"   // IWYU pragma: export
#include "geom/wkt.h"       // IWYU pragma: export

// Distance-bounded raster approximations.
#include "raster/grid.h"                 // IWYU pragma: export
#include "raster/hierarchical_raster.h"  // IWYU pragma: export
#include "raster/uniform_raster.h"       // IWYU pragma: export

// Indexes over linearized cells.
#include "index/act.h"           // IWYU pragma: export
#include "index/radix_spline.h"  // IWYU pragma: export

// Canvas algebra and BRJ.
#include "canvas/brj.h"  // IWYU pragma: export
#include "canvas/ops.h"  // IWYU pragma: export

// Join executors and result ranges.
#include "join/act_join.h"          // IWYU pragma: export
#include "join/exact_join.h"        // IWYU pragma: export
#include "join/point_index_join.h"  // IWYU pragma: export
#include "join/result_range.h"      // IWYU pragma: export

// Data generators (synthetic NYC-like workloads).
#include "data/regions.h"   // IWYU pragma: export
#include "data/taxi.h"      // IWYU pragma: export
#include "data/workload.h"  // IWYU pragma: export

// The shareable immutable engine state, the executors over the
// shard-source seam, and the SFC-sharded scatter-gather source.
#include "core/engine_state.h"   // IWYU pragma: export
#include "core/sharded_state.h"  // IWYU pragma: export

// Concurrent serving layer (thread pool + approximation cache).
#include "service/approx_cache.h"   // IWYU pragma: export
#include "service/query_service.h"  // IWYU pragma: export
#include "service/thread_pool.h"    // IWYU pragma: export

namespace dbsa {

/// Library version.
inline constexpr const char* kVersion = "0.1.0";

}  // namespace dbsa

#endif  // DBSA_CORE_DBSA_H_
