#!/usr/bin/env bash
# Determinism gate for the byte-identity invariant (docs/architecture.md,
# "Invariants"): payloads are byte-identical across the engine / pooled /
# sharded / loopback / TCP paths. Two bug classes break that silently —
# correct output every run, different bytes across runs — so no test and
# no sanitizer catches them. This lint does:
#
#   1. HASH-ORDER ITERATION — a range-for / .begin() walk over a
#      std::unordered_map / std::unordered_set feeding a merge, a gather
#      fold, a wire encoder or MetricRegistry::RenderText. The blessed
#      spellings are util::SortedKeys / util::SortedItems
#      (util/determinism.h); an order-insensitive walk (pure membership,
#      commutative fold, per-element side effect) carries an audited
#      `dbsa-lint-allow(determinism): <why>` tag on or just above the
#      loop line.
#   2. POINTER-KEYED ORDERED CONTAINERS — std::map/std::set keyed on a
#      pointer iterate in address order, which varies run to run; same
#      tag discipline.
#   3. RAW BYTE COPIES — a whole-struct memcpy (any spelling: memcpy,
#      std::memcpy, __builtin_memcpy) or a std::copy/std::copy_n into a
#      wire buffer copies indeterminate padding bytes onto the wire. All
#      byte movement goes through util::StoreWire / LoadWire / BitCast,
#      whose static_asserts reject anything that can carry padding; the
#      only raw copies are inside util/determinism.h itself or tagged
#      `dbsa-lint-allow(memcpy): <why>`. (Known escape: a bare
#      unqualified `copy(` from a `using namespace std` — the audited
#      dirs never use that.)
#
# Then the compiled legs (real tree only): scripts/determinism_probe.cc
# must compile clean, and its two deliberately-bad variants
# (-DDBSA_DETERMINISM_PROBE_BAD_ITER, -DDBSA_DETERMINISM_PROBE_BAD_MEMCPY)
# must NOT — proving the static_asserts in util/determinism.h are live,
# same idiom as check_wire_layout.sh.
#
# Usage: check_determinism.sh [root]   (root defaults to the repo; the
# lint selftest points it at deliberately-bad fixture trees under
# scripts/lint_fixtures/ and expects exit 1; probe legs run only on the
# real tree).
set -euo pipefail
cd "$(dirname "$0")/.."

ROOT="${1:-.}"
fail=0
err() {
  echo "check_determinism: $*" >&2
  fail=1
}

# Audited directories: everything that can touch a payload or a frame.
# tests/ and bench/ are exempt — their iteration order never reaches a
# wire frame, and the determinism_test asserts the end-to-end property.
AUDIT_DIRS=(src fuzz)

cxx_files() {
  for d in "${AUDIT_DIRS[@]}"; do
    find "$ROOT/$d" -type f \( -name '*.cc' -o -name '*.h' \) 2>/dev/null
  done | sort
}

# True when line $2 of file $1 carries the tag $3 on the same line or in
# the (up to) three lines directly above it — room for a two-line
# rationale comment over the flagged statement.
has_tag() {
  local file="$1" line="$2" tag="$3"
  local from=$((line - 3))
  [[ $from -lt 1 ]] && from=1
  sed -n "${from},${line}p" "$file" | grep -qF "$tag"
}

# ---- rule 1: no hash-order iteration without an audited tag -----------
# Scope per declaration site: a container declared in foo.h is looked for
# in foo.h and foo.cc (and vice versa) — unordered members are private in
# this codebase, so the pair is where every walk can live.
while IFS= read -r file; do
  stem="${file%.*}"
  names=$({ cat "$stem.h" "$stem.cc" 2>/dev/null || true; } \
    | sed -nE 's/.*unordered_(map|set)<.*> *[&*]? *([A-Za-z_][A-Za-z0-9_]*).*/\2/p' \
    | sort -u)
  [[ -z "$names" ]] && continue
  for name in $names; do
    # Range-for over the container (possibly member-qualified, e.g.
    # `mux.ops`) or an explicit .begin() walk.
    while IFS=: read -r line _; do
      [[ -z "$line" ]] && continue
      if ! has_tag "$file" "$line" 'dbsa-lint-allow(determinism)'; then
        err "$file:$line: iterating hash-ordered '$name' — use util::SortedKeys/SortedItems or tag dbsa-lint-allow(determinism) with a rationale"
      fi
    done < <(grep -nE "(for *\(.*: *([A-Za-z_][A-Za-z0-9_.>-]*(\.|->))?$name *\))|$name\.c?begin\(" "$file" \
               | grep -vE '^[0-9]+: *//' || true)
  done
done < <(cxx_files)

# ---- rule 2: no pointer-keyed ordered containers ----------------------
# std::map<T*, ...> / std::set<T*> iterate in address order — different
# every run under ASLR. Key on a stable id instead, or tag the
# declaration if iteration order provably never escapes.
while IFS= read -r file; do
  while IFS=: read -r line _; do
    [[ -z "$line" ]] && continue
    if ! has_tag "$file" "$line" 'dbsa-lint-allow(determinism)'; then
      err "$file:$line: pointer-keyed map/set iterates in address order — key on a stable id, or tag dbsa-lint-allow(determinism)"
    fi
  done < <(grep -nE 'std::(unordered_)?(map|set)< *(const +)?[A-Za-z_][A-Za-z0-9_:]* *\*' "$file" \
             | grep -vE '^[0-9]+: *//' || true)
done < <(cxx_files)

# ---- rule 3: no raw byte copies ----------------------------------------
# Field movement goes through util::StoreWire/LoadWire/BitCast; those
# three carry the blessed in-header tags. Anything else needs its own
# audited tag (the POSIX sockaddr blob and the framing-prefix splice in
# socket_transport.cc are the whole current set). The pattern must catch
# every spelling that moves raw bytes: \bmemcpy misses __builtin_memcpy
# (underscore is a word character, so \b never fires there), and
# std::copy of char ranges is memcpy in std:: clothing — both are
# matched explicitly.
while IFS= read -r file; do
  while IFS=: read -r line _; do
    [[ -z "$line" ]] && continue
    if ! has_tag "$file" "$line" 'dbsa-lint-allow(memcpy)'; then
      err "$file:$line: raw byte copy (memcpy/__builtin_memcpy/std::copy) — encode field-wise via util::StoreWire/LoadWire/BitCast (util/determinism.h), or tag dbsa-lint-allow(memcpy) with a rationale"
    fi
  done < <(grep -nE '(^|[^A-Za-z0-9_])((__builtin_)?memcpy|std::copy(_n)?)[[:space:]]*\(' "$file" \
             | grep -vE '^[0-9]+: *//' || true)
done < <(cxx_files)

# ---- compiled legs: the static_asserts must be live -------------------
if [[ "$ROOT" == "." ]]; then
  CXX="${CXX:-}"
  if [[ -z "$CXX" ]]; then
    for candidate in c++ g++ clang++; do
      if command -v "$candidate" >/dev/null 2>&1; then
        CXX="$candidate"
        break
      fi
    done
  fi
  if [[ -z "$CXX" ]]; then
    err "no C++ compiler found for the probe legs"
  else
    FLAGS=(-std=c++17 -fsyntax-only -Isrc)
    if ! "$CXX" "${FLAGS[@]}" scripts/determinism_probe.cc; then
      err "determinism_probe.cc failed to compile (good leg)"
    fi
    # Negative legs: each deliberately-bad instantiation must NOT compile.
    if "$CXX" "${FLAGS[@]}" -DDBSA_DETERMINISM_PROBE_BAD_ITER \
        scripts/determinism_probe.cc 2>/dev/null; then
      err "BAD_ITER probe compiled — RequireOrderedIteration gate is dead"
    fi
    if "$CXX" "${FLAGS[@]}" -DDBSA_DETERMINISM_PROBE_BAD_MEMCPY \
        scripts/determinism_probe.cc 2>/dev/null; then
      err "BAD_MEMCPY probe compiled — StoreWire primitive gate is dead"
    fi
  fi
fi

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "check_determinism: OK"
