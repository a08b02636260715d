// lint_selftest fixture — a test reaching a header does not count.
#include "lib/orphan.h"

int main() { return lib::Orphan() - 1; }
