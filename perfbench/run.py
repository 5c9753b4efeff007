#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload {paper_seq|serve_distinct|serve_hot}
                             --seed N --seconds S --trace {0|1}

Run from the repository root. Builds perfbench/ (which compiles the
library from ../src) into .bench_build/perfbench, runs the benchmark's own
unit tests, then runs one workload. The last line of stdout is the result
JSON; build and test output goes to stderr. Exits non-zero without a
result when the build, the unit tests or the run fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_seq", "serve_distinct", "serve_hot")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout=None):
    """Runs cmd with its stdout sent to stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        os.makedirs(BUILD, exist_ok=True)
        if call(["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
                 "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    if call(["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target",
             "perfbench", "perfbench_test"]) != 0:
        return False
    return call([os.path.join(BUILD, "perfbench_test"), "--gtest_brief=1"],
                timeout=120) == 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if result["attempted"] < 1 or result["failed"] < 0:
        return False
    return all(set(m) == {"value", "unit"}
               for m in result["metrics"].values())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build or unit tests failed")
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace.{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        log(f"run failed (exit {proc.returncode})")
        return 3
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
