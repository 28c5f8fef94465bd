#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload rmat20 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, end to end

Run it from the repository root.  The benchmark program (perfbench.cpp)
is built with CMake into .bench_build/perfbench on first use and
rebuilt incrementally afterwards; build output goes to stderr.  Traced
runs (--trace 1) write a Chrome trace-event file per run into
.bench_build/out.

The workload names come from BENCHMARK.json.  A single-workload run
prints "metric <name> <value> <unit> <better>" lines and,
as its last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is non-zero
when the build fails, the run times out, or any output check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")


def workloads():
    """Workload names, from BENCHMARK.json at the repository root."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [w["name"] for w in json.load(f)["workloads"]]
    except (OSError, ValueError, KeyError) as e:
        sys.exit(f"perfbench: cannot read the workloads from BENCHMARK.json: {e}")


def run_timeout(seconds):
    """Set-up plus up to 1.5 windows of sampling, twice over when traced."""
    return 120 + 5 * seconds


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR], stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", OUT_DIR]
    timeout = run_timeout(seconds)
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {timeout} s", file=sys.stderr)
        return 1


def main():
    names = workloads()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names, help="default: every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    sys.stdout.flush()
    chosen = [args.workload] if args.workload else names
    failed = [w for w in chosen if run(binary, w, args.seed, args.seconds, args.trace) != 0]
    if failed:
        sys.exit("perfbench: failed: " + ", ".join(failed))


if __name__ == "__main__":
    main()
