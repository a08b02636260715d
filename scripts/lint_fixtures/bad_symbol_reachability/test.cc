// lint_selftest fixture test — a test linking a function does not count.
#include "lib.h"

int main() { return dbsa::TestOnly(dbsa::Used().value) - 6; }
