// lint_selftest fixture — reached from bench/entry.cc.
#ifndef LIB_USED_H_
#define LIB_USED_H_

namespace lib {
int Used();
}  // namespace lib

#endif  // LIB_USED_H_
