#!/usr/bin/env bash
# Correctness smoke of the repository benchmark (perfbench/, recorded in
# BENCHMARK.json): runs each workload for a few seconds and fails unless
# the benchmark's oracle accepted every reply — the served range contains
# the exact answer, a select is a superset of the exact ids, achieved
# epsilon <= requested — and no query failed. An exact count's range is
# a single value, so it must equal the oracle's own PIP answer. No
# timing is gated: the runs are far too short and CI hosts too noisy.
#
# Usage: scripts/run_perfbench_smoke.sh [seconds]    (default 3)
#
# The benchmark builds into $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
seconds="${1:-3}"

for workload in explore_cold dashboard_warm cluster_scatter; do
  echo "== perfbench ${workload} (${seconds} s)"
  last="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
            --seconds "${seconds}" --trace 0 | tail -n 1)"
  python3 - "${workload}" "${last}" <<'PY'
import json
import sys

workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"run_perfbench_smoke: {workload}: correct={result.get('correct')} "
             f"failed={result.get('failed')} attempted={result.get('attempted')}")
print(f"run_perfbench_smoke: {workload}: correct, "
      f"{result['attempted']} queries, 0 failed")
PY
done
