// lint_selftest fixture — MUST NOT be flagged by
// scripts/check_reachability.sh: only lib/used.cc includes it, and the
// gate follows a reached header's implementation.
#ifndef LIB_DETAIL_H_
#define LIB_DETAIL_H_

namespace lib {
inline constexpr int kDetail = 0;
}  // namespace lib

#endif  // LIB_DETAIL_H_
