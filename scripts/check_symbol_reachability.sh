#!/usr/bin/env bash
# Dead-function gate (CI: the build-and-test job; locally just run it).
# Fails on any function in namespace dbsa that libdbsa.a defines but no
# program links. check_reachability.sh works per header, so a dead
# function inside a live header passes it; this gate works per symbol.
#
# Roots are the header gate's: bench/, examples/, the fuzz targets,
# src/**/*_main.cc and perfbench. They are built into a directory of
# their own at -O0 -fno-inline, one section per function and object,
# and linked with --gc-sections, so each binary keeps exactly the
# library functions its entry point reaches through calls and taken
# addresses. A library text symbol (nm types T, t, W) whose mangled name
# is in namespace dbsa (_ZN4dbsa, _ZNK4dbsa, _ZZN4dbsa, ...) and that no
# root binary defines is reported with its archive member. The prefix
# filter drops std:: template instances whose signature names a dbsa
# type. Names are compared demangled, so constructor and destructor
# variants (C1/C2, D0/D1/D2) count as one function.
#
# Blind spots: "linked" is a lower bound on "used".
#   - Header-only inline code that no library object instantiates is not
#     in libdbsa.a at all; find it with grep when its last caller goes.
#   - Virtual functions stay linked through their class's vtable whether
#     or not anything calls them.
#   - Code that is linked but never runs passes.
#   - Two internal-linkage functions with the same name in two files
#     count as one name.
#
# Usage:
#   check_symbol_reachability.sh [build-dir]
#       build the roots into build-dir (default build-symbols, under the
#       repo) and compare, applying the allowlist below;
#   check_symbol_reachability.sh --compare LIB ROOT_BINARY...
#       the comparison alone, without the allowlist: names each dbsa::
#       function of LIB that none of the binaries links and exits 1 if
#       there is one (the lint selftest runs it on a compiled fixture).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
err() {
  echo "check_symbol_reachability: $*" >&2
  fail=1
}

# Functions that stay although no program links them, each under its
# reason. An entry is an archive member (an object file name) or a
# function's demangled qualified name without its parameter list. A
# name entry covers every symbol whose demangled name contains it
# followed by "(": the function's overloads, the lambdas inside it and
# the template instances made for those lambdas. An entry that matches
# no unreached symbol is stale and fails the gate.
ALLOWLIST=(
  # CheckBound, the bound checker every builder's tests compare against,
  # with its HR point lookup and the inline helpers only it instantiates.
  verify.cc.o
  # The sampled Hausdorff distance d_H, which defines the paper's
  # epsilon-approximation (Section 2.2); distance_test pins it.
  dbsa::geom::DirectedHausdorffSampled
  dbsa::geom::HausdorffSampled
  # The in-process snapshot-loaded cluster that the conformance and epoch
  # property tests compare the socket cluster against; its skew checks
  # are specified in docs/snapshot-format.md. The three entries after it
  # are template instances and a copy that only it uses.
  dbsa::snapshot::AssembleClusterState
  "dbsa::StatusOr<std::shared_ptr<dbsa::core::ShardedState const> >::value"
  "dbsa::StatusOr<std::vector<unsigned int, std::allocator<unsigned int> > >::value"
  dbsa::core::ShardedState::Shard::Shard
  # Fault injection: severs a listener's live connections while it keeps
  # accepting, so a test can make the client find its pooled connection
  # dead and redial. No program does that; Stop() also closes the
  # listening socket.
  dbsa::service::ShardListener::CloseConnections
)

# "<member>\t<mangled>" for each dbsa:: text symbol in nm -A output.
dbsa_text() {
  awk 'NF == 3 && $2 ~ /^[TtW]$/ && $3 ~ /^_ZZ*N[rVKRO]*4dbsa/ {
         n = split($1, f, ":"); print (n >= 3 ? f[n - 1] : "-") "\t" $3 }'
}

# Prints "<member>\t<demangled>" for each dbsa:: function of the archive
# $1 that none of the binaries $2... defines, sorted by member.
unreached() {
  local lib=$1
  shift
  local linked
  linked=$(nm -A --defined-only "$@" | dbsa_text | cut -f2 | c++filt | sort -u)
  nm -A --defined-only "$lib" | dbsa_text | c++filt \
    | awk -F'\t' 'NR == FNR { linked[$0] = 1; next } !($2 in linked)' \
        <(printf '%s\n' "$linked") - \
    | sort -u
}

if [[ "${1:-}" == --compare ]]; then
  shift
  if (($# < 2)); then
    echo "usage: $0 --compare LIB ROOT_BINARY..." >&2
    exit 2
  fi
  while IFS=$'\t' read -r member sym; do
    err "$member: $sym is linked into no program"
  done < <(unreached "$@")
  if [[ "$fail" -ne 0 ]]; then
    exit 1
  fi
  echo "check_symbol_reachability: OK"
  exit 0
fi

build=${1:-build-symbols}
build_tree() {  # source-dir build-dir target [cmake-option...]
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections "${@:4}" >/dev/null
  cmake --build "$2" -j "$(nproc)" --target "$3" >/dev/null
}
build_tree . "$build" all -DDBSA_FUZZ=ON -DDBSA_BUILD_TESTS=OFF
build_tree perfbench "$build/perfbench" perfbench

# Each root source must have been compiled into a binary: a target the
# configure step skipped (bench_micro_ops without google benchmark)
# would hide the functions only it links, or report them.
roots=()
while IFS= read -r src; do
  obj=$(find "$build/CMakeFiles" -path "*.dir/$src.o" -print -quit)
  target=${obj#"$build/CMakeFiles/"}
  target=${target%%.dir/*}
  if [[ -z "$obj" || ! -x "$build/$target" ]]; then
    err "root $src was not built"
  else
    roots+=("$build/$target")
  fi
done < <(find bench fuzz -maxdepth 1 -name '*.cc'
         find examples -maxdepth 1 -name '*.cpp'
         find src -name '*_main.cc')
if [[ -x "$build/perfbench/perfbench" ]]; then
  roots+=("$build/perfbench/perfbench")
else
  err "root perfbench was not built"
fi
if [[ "$fail" -ne 0 ]]; then
  echo "check_symbol_reachability: FAILED" >&2
  exit 1
fi

matches() {  # entry member symbol
  [[ "$2" == "$1" || "$3" == *"$1("* ]]
}

declare -A used=()
findings=0
while IFS=$'\t' read -r member sym; do
  findings=$((findings + 1))
  allowed=""
  for entry in "${ALLOWLIST[@]}"; do
    if matches "$entry" "$member" "$sym"; then
      used[$entry]=1
      allowed=1
    fi
  done
  if [[ -z "$allowed" ]]; then
    err "$member: $sym is linked into no program: delete it or use it"
  fi
done < <(unreached "$build/libdbsa.a" "${roots[@]}")

for entry in "${ALLOWLIST[@]}"; do
  if [[ -z "${used[$entry]:-}" ]]; then
    err "allowlisted $entry matches no unreached function: drop the entry"
  fi
done

if [[ "$fail" -ne 0 ]]; then
  echo "check_symbol_reachability: FAILED" >&2
  exit 1
fi
echo "check_symbol_reachability: OK (${#roots[@]} root binaries; ${findings} unreached dbsa:: symbols, all allowlisted)"
