#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from anywhere inside a checkout:

  python3 perfbench/run.py --workload pagerank-rmat --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in turn (each prints its own result
line). The build goes to .bench_build/ and the cached cc-store-stream graph
and span traces to .bench_data/, both at the repository root. The last line
of stdout is the benchmark's JSON result; build output goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DATA_DIR = os.path.join(ROOT, ".bench_data")
WORKLOADS = ["pagerank-rmat", "sssp-rmat-async", "cc-store-stream"]


def build() -> str:
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "perfbench")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        done = subprocess.run(
            [binary, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--data-dir", DATA_DIR],
            check=False)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
