#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, runs one workload, and
prints the benchmark's result object as the last line of stdout.

Usage, from the repository root:

    python3 perfbench/run.py --workload explore_cold --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. Each run leaves its full record (metrics plus
provenance) in <build>/records/ and, with --trace 1, its spans in
<build>/spans/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("explore_cold", "dashboard_warm", "cluster_scatter")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return out / "perfbench"


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the engine sources: identifies the code when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "core" / "dbsa.h").is_file():
        log(f"engine sources not found under {ROOT / 'src'}")
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / "records").mkdir(exist_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--record_out={out / 'records' / (tag + '.json')}",
           f"--git_sha={git_sha()}", f"--source_digest={source_digest()}"]
    if args.trace:
        (out / "spans").mkdir(exist_ok=True)
        cmd.append(f"--spans_out={out / 'spans' / (tag + '.jsonl')}")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        log(f"no result (exit code {proc.returncode})")
        return 1
    sys.stdout.write(proc.stdout)
    log(f"{tag} finished in {time.monotonic() - start:.1f} s, correct={result['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
