// lint_selftest fixture — MUST NOT be flagged by
// scripts/check_reachability.sh: the one allowlisted header.
#ifndef RASTER_VERIFY_H_
#define RASTER_VERIFY_H_
#endif  // RASTER_VERIFY_H_
