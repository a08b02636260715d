// lint_selftest fixture root — the only code outside the tests.
#include "lib/used.h"

int main() { return lib::Used(); }
