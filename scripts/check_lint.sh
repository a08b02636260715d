#!/usr/bin/env bash
# Custom lock-discipline lint (CI: the static-analysis job; locally just
# run it). Greps — no compiler needed — for the three ways code can slip
# past the Thread Safety Analysis that guards src/service/ and
# src/telemetry/ (util/thread_annotations.h):
#
#   1. naked .lock()/.unlock()/.try_lock() calls outside the annotated
#      wrappers — a manually driven mutex is invisible to the analysis
#      and to the MutexLock scoping discipline;
#   2. raw std::mutex / std::condition_variable declarations in
#      src/service/ or src/telemetry/ — unannotatable capabilities
#      (dbsa::Mutex / dbsa::CondVar are the blessed spellings);
#   3. reinterpret_cast outside the allowlist below — the socket layer's
#      sockaddr casts are the only sanctioned uses (clang-tidy's
#      bugprone checks do not flag those, POSIX demands them).
#
# Usage: check_lint.sh [root]   (root defaults to the repo; the lint
# selftest points it at a deliberately-bad fixture tree and expects
# exit 1).
set -euo pipefail
cd "$(dirname "$0")/.."

ROOT="${1:-.}"
fail=0
err() {
  echo "check_lint: $*" >&2
  fail=1
}

# The one file allowed to touch std::mutex / .lock(): the wrapper itself.
WRAPPER="util/thread_annotations.h"

# reinterpret_cast allowlist, one "path:why" per line. POSIX sockaddr
# punning is the entire sanctioned set; anything new needs a row here
# (and a justification in review).
REINTERPRET_ALLOWLIST=(
  "src/service/socket_transport.cc"  # sockaddr/sockaddr_in casts (POSIX API shape).
)

cxx_files() {
  find "$ROOT/$1" -type f \( -name '*.cc' -o -name '*.h' \) 2>/dev/null | sort
}

# Audited scope for the lock rules: the concurrent layers (service,
# telemetry), the engine core (core), and the fuzz harnesses — fuzz
# drivers spawn servers too, so the same discipline applies.
LOCK_DIRS=(src/service src/telemetry src/core fuzz)

# ---- rule 1: no naked lock()/unlock()/try_lock() calls ----------------
for dir in "${LOCK_DIRS[@]}"; do
  while IFS= read -r file; do
    [[ "$file" == *"$WRAPPER" ]] && continue
    if grep -nE '\.(lock|unlock|try_lock)\(\)' "$file" \
        | grep -vE '^[0-9]+: *//' | grep -v '// *lint-allow-naked-lock'; then
      err "$file: naked .lock()/.unlock() — hold locks via dbsa::MutexLock"
    fi
  done < <(cxx_files "$dir")
done

# ---- rule 2: no raw std::mutex / std::condition_variable --------------
for dir in "${LOCK_DIRS[@]}"; do
  while IFS= read -r file; do
    [[ "$file" == *"$WRAPPER" ]] && continue
    if grep -nE 'std::(mutex|condition_variable|recursive_mutex|shared_mutex)\b' "$file" \
        | grep -vE '^[0-9]+: *//'; then
      err "$file: raw std lock type — use dbsa::Mutex / dbsa::CondVar (util/thread_annotations.h)"
    fi
  done < <(cxx_files "$dir")
done

# ---- rule 3: reinterpret_cast only on the allowlist -------------------
while IFS= read -r file; do
  rel="${file#"$ROOT"/}"
  allowed=0
  for entry in "${REINTERPRET_ALLOWLIST[@]}"; do
    [[ "$rel" == "$entry" ]] && allowed=1
  done
  [[ $allowed -eq 1 ]] && continue
  if grep -nE '\breinterpret_cast\b' "$file" \
      | grep -vE '^[0-9]+: *//' | grep -v '// *lint-allow-reinterpret'; then
    err "$rel: reinterpret_cast outside the allowlist (scripts/check_lint.sh)"
  fi
done < <(cxx_files src; cxx_files fuzz)

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "check_lint: OK"
