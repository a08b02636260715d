#!/usr/bin/env bash
# Correctness smoke of the repository benchmark (perfbench/, recorded in
# BENCHMARK.json): runs each workload for a few seconds, once untraced and
# once traced, and fails unless the benchmark's oracle accepted every
# reply — the served range contains the exact answer, a select is a
# superset of the exact ids, achieved epsilon <= requested — and no query
# failed. An exact count's range is a single value, so it must equal the
# oracle's own PIP answer. The traced run (--trace 1) also runs the
# workload's stress check (perfbench/src/main.cc), which sets `correct`
# false when the workload no longer stresses the layer it was shaped to
# stress. The traced cluster_scatter run also fails when
# `service.transport.messages_per_query` is above 5: a region aggregate
# must reach each shard in one frame per wave, not one per region (a
# count of frames, not a timing). No timing is gated: the runs are far
# too short and CI hosts too noisy.
#
# Usage: scripts/run_perfbench_smoke.sh [seconds]    (default 3)
#
# The benchmark builds into $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
seconds="${1:-3}"

for workload in explore_cold dashboard_warm cluster_scatter; do
  for trace in 0 1; do
    echo "== perfbench ${workload} (${seconds} s, trace ${trace})"
    last="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
              --seconds "${seconds}" --trace "${trace}" | tail -n 1)"
    python3 - "${workload}" "${trace}" "${last}" <<'PY'
import json
import sys

workload, trace, line = sys.argv[1], sys.argv[2], sys.argv[3]
run = f"{workload} trace={trace}"
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"run_perfbench_smoke: {run}: correct={result.get('correct')} "
             f"failed={result.get('failed')} attempted={result.get('attempted')}")
print(f"run_perfbench_smoke: {run}: correct, "
      f"{result['attempted']} queries, 0 failed")
# One frame per shard per wave: a batched region aggregate costs a few
# frames per query, where one frame per region and shard would cost
# about 25.
MAX_MESSAGES_PER_QUERY = 5
if workload == "cluster_scatter" and trace == "1":
    metric = result.get("metrics", {}).get("service.transport.messages_per_query")
    if metric is None:
        sys.exit(f"run_perfbench_smoke: {run}: no service.transport.messages_per_query")
    if metric["value"] > MAX_MESSAGES_PER_QUERY:
        sys.exit(f"run_perfbench_smoke: {run}: messages_per_query "
                 f"{metric['value']:.2f} > {MAX_MESSAGES_PER_QUERY}")
    print(f"run_perfbench_smoke: {run}: messages_per_query "
          f"{metric['value']:.2f} <= {MAX_MESSAGES_PER_QUERY}")
PY
  done
done
