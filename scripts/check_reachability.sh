#!/usr/bin/env bash
# Dead-module gate (CI: the build-and-test job; locally just run it).
# Fails on any src/**/*.h that no code outside the tests reaches. A
# module that only its own test includes costs review, builds and
# maintenance, and proves nothing about the system.
#
# Roots are the program's own entry points: bench/, examples/, fuzz/,
# perfbench/src/ and src/**/*_main.cc. From them the gate follows every
# `#include "..."`, resolved against the including file's directory and
# then src/ (the library's include path). Reaching a header src/X.h also
# reaches its implementation src/X.cc, whose includes are followed too.
# Pure bash + sed: no compiler or python needed.
#
# Usage: check_reachability.sh [root]   (root defaults to the repo; the
# lint selftest points it at a fixture tree with one orphan header and
# expects exit 1).
set -euo pipefail
cd "$(dirname "$0")/.."
cd "${1:-.}"

fail=0
err() {
  echo "check_reachability: $*" >&2
  fail=1
}

# Headers that stay although nothing outside the tests reaches them, one
# per line with its reason. An entry must name an existing header that
# the roots do not reach; a stale entry fails the gate.
ALLOWLIST=(
  src/raster/verify.h  # CheckBound: the bound checker every builder's tests compare against.
)

declare -A seen=()
queue=()
visit() {
  if [[ -f "$1" && -z "${seen[$1]:-}" ]]; then
    seen[$1]=1
    queue+=("$1")
  fi
}

while IFS= read -r f; do
  visit "$f"
done < <(find bench examples fuzz perfbench/src -type f \
           \( -name '*.cc' -o -name '*.cpp' -o -name '*.h' \) 2>/dev/null
         find src -type f -name '*_main.cc' 2>/dev/null)

i=0
while ((i < ${#queue[@]})); do
  f=${queue[i]}
  i=$((i + 1))
  if [[ "$f" == src/*.h ]]; then
    visit "${f%.h}.cc"
  fi
  dir=$(dirname "$f")
  while IFS= read -r inc; do
    if [[ -f "$dir/$inc" ]]; then
      visit "$(realpath --relative-to=. "$dir/$inc")"
    else
      visit "src/$inc"
    fi
  done < <(sed -n 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*/\1/p' "$f")
done

declare -A allowed=()
for h in "${ALLOWLIST[@]}"; do
  allowed[$h]=1
  if [[ ! -f "$h" ]]; then
    err "allowlisted $h does not exist: drop the entry"
  elif [[ -n "${seen[$h]:-}" ]]; then
    err "allowlisted $h is reached from outside the tests: drop the entry"
  fi
done

checked=0
while IFS= read -r h; do
  checked=$((checked + 1))
  if [[ -z "${seen[$h]:-}" && -z "${allowed[$h]:-}" ]]; then
    err "$h is reached only by tests (or by nothing): delete the module or use it"
  fi
done < <(find src -type f -name '*.h' | sort)

if [[ "$fail" -ne 0 ]]; then
  echo "check_reachability: FAILED" >&2
  exit 1
fi
echo "check_reachability: OK (${checked} headers under src/ reached or allowlisted)"
