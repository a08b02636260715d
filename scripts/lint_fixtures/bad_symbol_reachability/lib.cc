// lint_selftest fixture library (see lib.h).
#include "lib.h"

namespace dbsa {

Used::Used() : value(2) {}

int TestOnly(int x) { return 3 * x; }

}  // namespace dbsa
