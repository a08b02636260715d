// lint_selftest fixture for check_symbol_reachability.sh: one function
// the root program links and one that only the test links, defined in
// the same object file (lib.cc).
#ifndef FIXTURE_LIB_H_
#define FIXTURE_LIB_H_

namespace dbsa {

struct Base {
  int base = 1;
};

// Derives virtually, so its complete-object and base-object constructors
// are two functions and a program that builds a Used links only the
// first: a gate comparing mangled names reports the second.
struct Used : virtual Base {
  Used();
  int value;
};

int TestOnly(int x);

}  // namespace dbsa

#endif  // FIXTURE_LIB_H_
