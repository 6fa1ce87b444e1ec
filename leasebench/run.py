#!/usr/bin/env python3
"""Build the lease-stack benchmark harness and run one workload.

    python3 leasebench/run.py --workload renewal_scale --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The harness is configured and built
from source (leasebench/CMakeLists.txt builds ../src) into the directory
named by CARGO_TARGET_DIR, default .bench_build. The last line of
standard output is the harness's JSON result; build output and the
harness's diagnostics go to standard error. Exits non-zero, without a
result line, when the build or the harness fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("renewal_scale", "write_fanout", "tcp_invalidate")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One run must end within 180 s; the build check and start-up come first.
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "leasebench"


def build():
    """Configure (once) and build the harness; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "leasebench_harness"


def run_harness(harness, workload, seed, seconds, trace, extra=(),
                timeout=None, stderr=sys.stderr):
    """Run the harness once; returns (parsed result or None, process)."""
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=stderr,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return result, proc


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        harness = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"leasebench: build failed: {err}", file=sys.stderr)
        return 1
    # The first run in a checkout builds; its measurement then gets the
    # full 170 s window of its own.
    remaining = RUN_TIMEOUT_S - (time.monotonic() - start)
    try:
        result, proc = run_harness(harness, args.workload, args.seed,
                                   args.seconds, args.trace,
                                   timeout=max(remaining, 60))
    except subprocess.TimeoutExpired:
        print("leasebench: harness timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0 or result is None:
        print(f"leasebench: harness failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
