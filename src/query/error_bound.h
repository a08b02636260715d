// The paper's distance bound as a first-class, typed contract. A query
// no longer carries a raw `double epsilon`: it carries an ErrorBound that
// says WHICH error regime the caller is in —
//
//   kAbsoluteDistance  "answer within Hausdorff distance epsilon" — the
//                      paper's native contract. The engine snaps to the
//                      coarsest grid level whose cell diagonal still
//                      honors the bound (Grid::LevelForEpsilon);
//   kGridLevel         "serve exactly hierarchical-raster level L" — the
//                      caller pins the approximation resolution (zoom
//                      levels, cache-key stability across clients);
//   kExact             "no approximation at all" — the exact plan for
//                      aggregates; ad-hoc queries approximate, then
//                      refine: interior HR cells answer from the point
//                      index, only boundary-cell points get a PIP test.
//
// The absolute/relative regime split follows Har-Peled & Sharir's
// distinction between absolute and relative (p,eps)-approximations: the
// engine can serve either under one API because the bound, not the call
// site, names the contract. The achieved side of the contract travels
// back on service::Result (epsilon actually guaranteed, level served).

#ifndef DBSA_QUERY_ERROR_BOUND_H_
#define DBSA_QUERY_ERROR_BOUND_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "raster/cell_id.h"
#include "raster/grid.h"
#include "util/status.h"

namespace dbsa::query {

/// Stable wire values (transport.h ships the kind as u8): append only.
enum class BoundKind : uint8_t {
  kAbsoluteDistance = 0,
  kGridLevel = 1,
  kExact = 2,
};

/// Number of BoundKind values; non-switch dispatch sites (wire
/// validation in transport.cc) pin this with an adjacent static_assert
/// so a new bound regime is a compile error at every handling site.
inline constexpr int kBoundKindCount = 3;
static_assert(static_cast<int>(BoundKind::kExact) + 1 == kBoundKindCount,
              "BoundKind grew: bump kBoundKindCount, then fix every "
              "static_assert(kBoundKindCount == ...) handling site");

inline const char* BoundKindName(BoundKind kind) {
  switch (kind) {
    case BoundKind::kAbsoluteDistance:
      return "absolute-distance";
    case BoundKind::kGridLevel:
      return "grid-level";
    case BoundKind::kExact:
      return "exact";
  }
  return "?";
}

/// The distance-bound contract of one query. Construct through the
/// factories; `epsilon` is meaningful only under kAbsoluteDistance and
/// `level` only under kGridLevel.
struct ErrorBound {
  BoundKind kind = BoundKind::kExact;
  double epsilon = 0.0;
  int level = 0;

  static ErrorBound Absolute(double epsilon) {
    return ErrorBound{BoundKind::kAbsoluteDistance, epsilon, 0};
  }
  static ErrorBound AtLevel(int level) {
    return ErrorBound{BoundKind::kGridLevel, 0.0, level};
  }
  static ErrorBound Exact() { return ErrorBound{BoundKind::kExact, 0.0, 0}; }

  /// True iff this bound demands exact answers: kExact, or an absolute
  /// bound of zero (or less) — the engine-wide "epsilon <= 0 means exact"
  /// convention, now spelled once.
  bool exact() const {
    return kind == BoundKind::kExact ||
           (kind == BoundKind::kAbsoluteDistance && epsilon <= 0.0);
  }

  /// Structural validity, independent of any grid.
  Status Validate() const {
    switch (kind) {
      case BoundKind::kAbsoluteDistance:
        if (!std::isfinite(epsilon)) {
          return Status::InvalidArgument("absolute bound epsilon must be finite");
        }
        return Status::OK();
      case BoundKind::kGridLevel:
        if (level < 0 || level > raster::CellId::kMaxLevel) {
          return Status::InvalidArgument(
              "grid level " + std::to_string(level) + " outside [0, " +
              std::to_string(raster::CellId::kMaxLevel) + "]");
        }
        return Status::OK();
      case BoundKind::kExact:
        return Status::OK();
    }
    return Status::InvalidArgument("unknown bound kind");
  }

  /// Validate() plus what `grid` can honour: a positive absolute bound
  /// below the finest level's cell diagonal would be served coarser than
  /// requested, so it is rejected with the finest achievable epsilon named.
  /// Zero stays the exact regime.
  Status ValidateFor(const raster::Grid& grid) const {
    const Status structural = Validate();
    if (!structural.ok()) return structural;
    const double finest = grid.AchievedEpsilon(raster::CellId::kMaxLevel);
    if (kind == BoundKind::kAbsoluteDistance && epsilon > 0.0 && epsilon < finest) {
      char message[128];
      std::snprintf(message, sizeof(message),
                    "absolute bound epsilon %g is below the finest achievable "
                    "epsilon %g (grid level %d)",
                    epsilon, finest, raster::CellId::kMaxLevel);
      return Status::InvalidArgument(message);
    }
    return Status::OK();
  }

  /// The epsilon the approximate execution path runs with. For kGridLevel
  /// this is grid.AchievedEpsilon(level), which LevelForEpsilon maps back
  /// to exactly `level` (the diagonal halves per level, so the snap
  /// relation round-trips bit-for-bit — tested in query_envelope_test) —
  /// pinning the HR level without widening every executor signature.
  /// Exact bounds yield 0. Callers must not feed 0 to LevelForEpsilon;
  /// use exact() to branch first.
  double EffectiveEpsilon(const raster::Grid& grid) const {
    switch (kind) {
      case BoundKind::kAbsoluteDistance:
        return epsilon;
      case BoundKind::kGridLevel:
        return grid.AchievedEpsilon(level);
      case BoundKind::kExact:
        return 0.0;
    }
    return 0.0;
  }

  /// The HR level an approximate execution serves under this bound
  /// (-1 when the bound demands exactness).
  int ServedLevel(const raster::Grid& grid) const {
    if (exact()) return -1;
    return kind == BoundKind::kGridLevel ? level
                                         : grid.LevelForEpsilon(epsilon);
  }

  bool operator==(const ErrorBound& o) const {
    if (kind != o.kind) return false;
    switch (kind) {
      case BoundKind::kAbsoluteDistance:
        return epsilon == o.epsilon;
      case BoundKind::kGridLevel:
        return level == o.level;
      case BoundKind::kExact:
        return true;
    }
    return false;
  }
  bool operator!=(const ErrorBound& o) const { return !(*this == o); }

  std::string ToString() const {
    switch (kind) {
      case BoundKind::kAbsoluteDistance:
        return "d_H<=" + std::to_string(epsilon);
      case BoundKind::kGridLevel:
        return "level=" + std::to_string(level);
      case BoundKind::kExact:
        return "exact";
    }
    return "?";
  }
};

}  // namespace dbsa::query

#endif  // DBSA_QUERY_ERROR_BOUND_H_
