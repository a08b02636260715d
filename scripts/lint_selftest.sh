#!/usr/bin/env bash
# Negative tests for the custom static-analysis gates (ctest entry
# `lint_selftest`; same pattern as check_docs_links.sh's fixtures): each
# checker is pointed at a deliberately-bad input and MUST fail. A checker
# that cannot fail — a typo'd grep pattern, a dead static_assert — passes
# everything forever, which is strictly worse than having no checker.
#
# Checks that need tools the machine lacks (clang) self-skip; the CI
# static-analysis job runs them with --require so they cannot skip there.
#
# Usage: lint_selftest.sh [build-dir]
#   build-dir  the build whose make_corpus and snapshot_write legs 5 and
#              6 check; defaults to the repository's build/. The ctest
#              entry passes its own build directory.
set -euo pipefail
BUILD_DIR=build
if [[ $# -gt 0 ]]; then BUILD_DIR=$(realpath -m -- "$1"); fi
cd "$(dirname "$0")/.."

fail=0
err() {
  echo "lint_selftest: $*" >&2
  fail=1
}

# ---- 0. every fixture this selftest leans on must exist ---------------
# A deleted or renamed fixture silently turns its leg into "checker ran
# on nothing and passed" — the exact failure mode this selftest exists
# to catch. Listed explicitly so a rename here and in the legs below has
# to happen together.
FIXTURES=(
  scripts/lint_fixtures/bad_tree
  scripts/lint_fixtures/bad_determinism_iter
  scripts/lint_fixtures/bad_determinism_ptr_key
  scripts/lint_fixtures/bad_determinism_memcpy
  scripts/lint_fixtures/bad_determinism_builtin_memcpy
  scripts/lint_fixtures/bad_determinism_copy
  scripts/lint_fixtures/bad_off_lock_write.cc
  scripts/lint_fixtures/bad_snapshot_golden/client.snapshot
  scripts/lint_fixtures/bad_reachability
  scripts/lint_fixtures/bad_symbol_reachability/lib.cc
  scripts/lint_fixtures/bad_metric_catalogue/docs/operations.md
  scripts/wire_layout_probe.cc
  scripts/determinism_probe.cc
  tests/golden/snapshot/client.snapshot
)
for fixture in "${FIXTURES[@]}"; do
  if [[ ! -e "$fixture" ]]; then
    err "fixture missing: $fixture — a selftest leg below is running on nothing"
  fi
done

# ---- 1. check_lint.sh must pass the real tree -------------------------
if ! scripts/check_lint.sh >/dev/null; then
  err "check_lint.sh fails on the real tree (should be clean)"
fi

# ---- 2. check_lint.sh must FAIL the bad fixture tree ------------------
# The fixture tree has one violation per rule (naked lock, raw
# std::mutex, stray reinterpret_cast); a pass means a grep went dead.
if scripts/check_lint.sh scripts/lint_fixtures/bad_tree >/dev/null 2>&1; then
  err "check_lint.sh PASSED the bad fixture tree — a lint rule is dead"
fi

# ---- 3. wire-layout gate: positive and negative legs ------------------
# check_wire_layout.sh runs its own negative probe (-DDBSA_WIRE_PROBE_BAD
# must not compile) and fails if the bad probe slips through.
if ! scripts/check_wire_layout.sh >/dev/null; then
  err "check_wire_layout.sh failed (layout drifted, or the bad probe compiled)"
fi

# ---- 4. determinism gate: real tree + one fixture per rule ------------
# check_determinism.sh runs its own probe legs on the real tree (the
# static_asserts in util/determinism.h must reject the bad
# instantiations); each grep rule then proves itself against its own
# fixture — one tree per rule, so a single dead grep cannot hide behind
# the others.
if ! scripts/check_determinism.sh >/dev/null; then
  err "check_determinism.sh fails on the real tree (should be clean)"
fi
# bad_determinism_builtin_memcpy / bad_determinism_copy are separate
# trees, not extra files in bad_determinism_memcpy: sharing a tree would
# let a dead sub-pattern (__builtin_memcpy, std::copy) hide behind the
# plain-memcpy file still tripping the gate.
for fixture in bad_determinism_iter bad_determinism_ptr_key \
               bad_determinism_memcpy bad_determinism_builtin_memcpy \
               bad_determinism_copy; do
  if scripts/check_determinism.sh "scripts/lint_fixtures/$fixture" >/dev/null 2>&1; then
    err "check_determinism.sh PASSED $fixture — that rule's grep is dead"
  fi
done

# ---- 5. fuzz-corpus freshness gate must reject a bad corpus -----------
# Self-skips when make_corpus is not built (CI builds it and runs with
# --require). Each negative leg points check_fuzz_corpus.sh ITSELF at a
# scratch corpus dir — exercising the gate script's own diff loops, not
# a re-implementation of them — and the gate must exit nonzero. Three
# legs, one per failure mode the gate claims to catch: a stale seed, a
# seed the encoders no longer emit, and an emitted seed that is missing.
if [[ -x "$BUILD_DIR/make_corpus" ]]; then
  if ! scripts/check_fuzz_corpus.sh "$BUILD_DIR/make_corpus" >/dev/null; then
    err "check_fuzz_corpus.sh fails on the checked-in corpus (stale seeds?)"
  fi
  scratch=$(mktemp -d)
  # Stale-seed leg: XOR-flip one payload byte (complementing whatever
  # value is there — a stored constant would stop detecting corruption
  # the day the encoder happened to emit that constant).
  cp fuzz/corpus/parse_frame/*.bin "$scratch/"
  byte=$(od -An -tu1 -j12 -N1 "$scratch/scatter_select.bin" | tr -d ' ')
  printf "$(printf '\\%03o' $((byte ^ 0xff)))" \
    | dd of="$scratch/scatter_select.bin" bs=1 seek=12 count=1 \
        conv=notrunc status=none
  if scripts/check_fuzz_corpus.sh "$BUILD_DIR/make_corpus" "$scratch" >/dev/null 2>&1; then
    err "corpus stale-seed leg: gate PASSED a corrupted seed — its cmp loop is dead"
  fi
  # Extra-seed leg: a checked-in seed the encoders no longer emit.
  rm -rf "$scratch"; scratch=$(mktemp -d)
  cp fuzz/corpus/parse_frame/*.bin "$scratch/"
  cp "$scratch/scatter_select.bin" "$scratch/zz_orphaned_seed.bin"
  if scripts/check_fuzz_corpus.sh "$BUILD_DIR/make_corpus" "$scratch" >/dev/null 2>&1; then
    err "corpus extra-seed leg: gate PASSED an orphaned seed — its no-longer-emitted loop is dead"
  fi
  # Missing-seed leg: an emitted seed absent from the corpus.
  rm -rf "$scratch"; scratch=$(mktemp -d)
  cp fuzz/corpus/parse_frame/*.bin "$scratch/"
  rm "$scratch/scatter_select.bin"
  if scripts/check_fuzz_corpus.sh "$BUILD_DIR/make_corpus" "$scratch" >/dev/null 2>&1; then
    err "corpus missing-seed leg: gate PASSED an incomplete corpus — its not-checked-in loop is dead"
  fi
  rm -rf "$scratch"
else
  echo "lint_selftest: $BUILD_DIR/make_corpus not built — corpus legs skipped (CI runs them)"
fi

# ---- 6. golden-snapshot gate must reject a corrupted fixture ----------
# Self-skips when snapshot_write is not built (CI builds it and runs
# with --require). The static corrupted fixture
# (scripts/lint_fixtures/bad_snapshot_golden: one XOR-flipped byte in
# client.snapshot's section data) proves the gate's cmp loop is live;
# the scratch legs prove the missing/extra-file loops are.
if [[ -x "$BUILD_DIR/snapshot_write" ]]; then
  if ! scripts/check_snapshot_golden.sh "$BUILD_DIR/snapshot_write" >/dev/null; then
    err "check_snapshot_golden.sh fails on the checked-in fixture (stale snapshots?)"
  fi
  if scripts/check_snapshot_golden.sh "$BUILD_DIR/snapshot_write" \
       scripts/lint_fixtures/bad_snapshot_golden >/dev/null 2>&1; then
    err "golden corrupt leg: gate PASSED a bit-flipped snapshot — its cmp loop is dead"
  fi
  scratch=$(mktemp -d)
  # Extra-file leg: a checked-in snapshot the writer no longer emits.
  cp tests/golden/snapshot/*.snapshot "$scratch/"
  cp "$scratch/client.snapshot" "$scratch/zz-orphan.snapshot"
  if scripts/check_snapshot_golden.sh "$BUILD_DIR/snapshot_write" "$scratch" >/dev/null 2>&1; then
    err "golden extra-file leg: gate PASSED an orphaned snapshot — its no-longer-emitted loop is dead"
  fi
  # Missing-file leg: an emitted snapshot absent from the fixture.
  rm -rf "$scratch"; scratch=$(mktemp -d)
  cp tests/golden/snapshot/*.snapshot "$scratch/"
  rm "$scratch/shard-1.snapshot"
  if scripts/check_snapshot_golden.sh "$BUILD_DIR/snapshot_write" "$scratch" >/dev/null 2>&1; then
    err "golden missing-file leg: gate PASSED an incomplete fixture — its not-checked-in loop is dead"
  fi
  rm -rf "$scratch"
else
  echo "lint_selftest: $BUILD_DIR/snapshot_write not built — golden snapshot legs skipped (CI runs them)"
fi

# ---- 7. thread-safety gate must FAIL the off-lock fixture -------------
# Clang-only: the fixture writes a DBSA_GUARDED_BY field with no lock
# held. Self-skips without clang (CI's static-analysis job has it).
if command -v "${CLANGXX:-clang++}" >/dev/null 2>&1; then
  if scripts/check_thread_safety.sh scripts/lint_fixtures/bad_off_lock_write.cc >/dev/null 2>&1; then
    err "check_thread_safety.sh PASSED the off-lock fixture — TSA gate is dead"
  fi
  if ! scripts/check_thread_safety.sh >/dev/null; then
    err "check_thread_safety.sh fails on the real tree (should be clean)"
  fi
else
  echo "lint_selftest: clang++ not installed — thread-safety legs skipped (CI runs them)"
fi

# ---- 8. reachability gate: real tree + orphan-header fixture ----------
# The fixture tree has one header that only a test includes (it must be
# named), one that only a reached header's .cc includes, and the
# allowlisted header (neither may be named).
if ! scripts/check_reachability.sh >/dev/null; then
  err "check_reachability.sh fails on the real tree (a src/ header only tests reach?)"
fi
if out=$(scripts/check_reachability.sh scripts/lint_fixtures/bad_reachability 2>&1); then
  err "check_reachability.sh PASSED the orphan-header fixture — the gate is dead"
elif [[ "$out" != *src/lib/orphan.h* || "$out" == *detail.h* || "$out" == *verify.h* ]]; then
  err "check_reachability.sh failed the fixture for the wrong headers: $out"
fi

# ---- 9. symbol reachability gate: a compiled fixture ------------------
# The fixture library defines, in one object file, a function the root
# program links and one only the test links. It is built here with plain
# g++ and the gate's flags; the gate's comparison must name the
# test-only function and nothing else, and must pass once the test
# binary counts as a root.
fixture=scripts/lint_fixtures/bad_symbol_reachability
scratch=$(mktemp -d)
flags=(-O0 -fno-inline -ffunction-sections -fdata-sections)
if g++ "${flags[@]}" -c "$fixture/lib.cc" -o "$scratch/lib.o" &&
   ar rcs "$scratch/libfixture.a" "$scratch/lib.o" &&
   g++ "${flags[@]}" "$fixture/root.cc" -Wl,--gc-sections "$scratch/libfixture.a" \
     -o "$scratch/root" &&
   g++ "${flags[@]}" "$fixture/test.cc" -Wl,--gc-sections "$scratch/libfixture.a" \
     -o "$scratch/test"; then
  if out=$(scripts/check_symbol_reachability.sh --compare "$scratch/libfixture.a" \
             "$scratch/root" 2>&1); then
    err "check_symbol_reachability.sh PASSED the test-only fixture — the gate is dead"
  elif [[ $(grep -c "linked into no program" <<<"$out") -ne 1 ||
          "$out" != *"lib.o: dbsa::TestOnly(int) is linked into no program"* ]]; then
    err "check_symbol_reachability.sh failed the fixture for the wrong functions: $out"
  fi
  if ! scripts/check_symbol_reachability.sh --compare "$scratch/libfixture.a" \
         "$scratch/root" "$scratch/test" >/dev/null 2>&1; then
    err "check_symbol_reachability.sh reports a fixture function that a root links"
  fi
else
  err "could not build the symbol reachability fixture"
fi
rm -rf "$scratch"

# ---- 10. metric-catalogue gate: real tree + drifted-catalogue fixture -
# The fixture's catalogue lists a family nothing registers and misses
# one that is registered; a label selector, brace alternatives and a
# row after the catalogue section must not count. The gate must name
# exactly the two drifted families.
if ! scripts/check_metric_catalogue.sh >/dev/null; then
  err "check_metric_catalogue.sh fails on the real tree (a dbsa_ family without its catalogue row?)"
fi
if out=$(scripts/check_metric_catalogue.sh scripts/lint_fixtures/bad_metric_catalogue 2>&1); then
  err "check_metric_catalogue.sh PASSED the drifted-catalogue fixture — the gate is dead"
elif [[ $(grep -c "check_metric_catalogue: dbsa_" <<<"$out") -ne 2 ||
        "$out" != *"dbsa_fixture_uncatalogued_total is registered"* ||
        "$out" != *"dbsa_fixture_cache_misses_total has a row"* ]]; then
  err "check_metric_catalogue.sh failed the fixture for the wrong families: $out"
fi

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "lint_selftest: all checkers fail their bad fixtures (gates are live)"
