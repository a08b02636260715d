// lint_selftest fixture — MUST fail scripts/check_reachability.sh: only
// tests/orphan_test.cc includes this header.
#ifndef LIB_ORPHAN_H_
#define LIB_ORPHAN_H_

namespace lib {
inline int Orphan() { return 1; }
}  // namespace lib

#endif  // LIB_ORPHAN_H_
