// lint_selftest fixture — reached as the implementation of lib/used.h.
#include "lib/used.h"

#include "lib/detail.h"

namespace lib {
int Used() { return kDetail; }
}  // namespace lib
