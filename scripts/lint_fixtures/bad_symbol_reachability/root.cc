// lint_selftest fixture root — the only program.
#include "lib.h"

int main() { return dbsa::Used().value - 2; }
