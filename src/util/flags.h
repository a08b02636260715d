// Minimal --name=value flag access for the repo's process entry points
// (shard_server_main, examples). One definition so every binary in a
// cluster parses flags identically — the socket walkthrough depends on
// client and servers agreeing on dataset flags byte for byte.
// (bench/bench_util.h keeps its own integer-flag parser for the figure
// benches; these are the deployment-facing ones.)

#ifndef DBSA_UTIL_FLAGS_H_
#define DBSA_UTIL_FLAGS_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

namespace dbsa::util {

/// True iff --name=value is present; *out receives the value.
inline bool FlagValue(int argc, char** argv, const char* name,
                      std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      *out = argv[i] + prefix.size();
      return true;
    }
  }
  return false;
}

/// --name=value as a double; `fallback` when absent. A value that does
/// not parse fully as a number is a fatal usage error (exit 2): these
/// flags feed the cross-process dataset contract, and a silently
/// swallowed typo would surface much later as an inexplicable payload
/// divergence between client and servers.
inline double NumFlag(int argc, char** argv, const char* name,
                      double fallback) {
  std::string value;
  if (!FlagValue(argc, argv, name, &value)) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(parsed)) {
    std::fprintf(stderr, "error: --%s=%s is not a finite number\n", name,
                 value.c_str());
    std::exit(2);
  }
  return parsed;
}

/// --name=value as a non-negative integer; `fallback` when absent.
/// Digits only: a sign, decimal point, or out-of-range value is a fatal
/// usage error (exit 2) — casting an unchecked double to an unsigned
/// type (e.g. --points=-1) would be undefined behavior, surfacing as an
/// OOM or a silent cross-process dataset divergence.
inline unsigned long long UintFlag(int argc, char** argv, const char* name,
                                   unsigned long long fallback) {
  std::string value;
  if (!FlagValue(argc, argv, name, &value)) return fallback;
  unsigned long long parsed = 0;
  bool ok = !value.empty();
  for (const char c : value) {
    if (c < '0' || c > '9' || parsed > (~0ull - 9) / 10) {
      ok = false;
      break;
    }
    parsed = parsed * 10 + static_cast<unsigned long long>(c - '0');
  }
  if (!ok) {
    std::fprintf(stderr, "error: --%s=%s is not a non-negative integer\n",
                 name, value.c_str());
    std::exit(2);
  }
  return parsed;
}

/// True iff every --flag argument names a flag in `known`; prints each
/// unknown flag to stderr otherwise. Entry points call this first so a
/// typo'd flag (--ponits=...) is rejected instead of silently ignored —
/// a dropped dataset flag breaks the flags-must-match cluster contract.
inline bool KnownFlagsOnly(int argc, char** argv,
                           std::initializer_list<const char*> known) {
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const char* body = argv[i] + 2;
    const char* eq = std::strchr(body, '=');
    const std::string name(
        body, eq != nullptr ? static_cast<size_t>(eq - body) : std::strlen(body));
    bool matched = false;
    for (const char* k : known) {
      if (name == k) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      ok = false;
    } else if (eq == nullptr) {
      // All of these flags take values and FlagValue only matches the
      // --name=value form, so "--points 5000" would pass here and then
      // silently fall back to the default — the exact divergence this
      // helper exists to prevent.
      std::fprintf(stderr, "error: flag --%s needs a value (--%s=...)\n",
                   name.c_str(), name.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace dbsa::util

#endif  // DBSA_UTIL_FLAGS_H_
