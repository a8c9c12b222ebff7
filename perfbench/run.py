#!/usr/bin/env python3
"""Runs one CrossMine benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--db-seed N]

Builds perfbench_driver (perfbench/CMakeLists.txt, which compiles the
libraries under src/) into .bench_build/perfbench, then runs the workload.
Generated inputs are cached in .bench_build/perfbench-data by generator,
config and seed, and traced runs write their spans there too. Everything the
script writes stays under .bench_build/.

The last line of standard output is the driver's JSON result. The exit code
is non-zero, with no result printed, when the build, the input generation or
the run fails or exceeds its time limit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "perfbench-data")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

BUILD_TIMEOUT_S = 600
PREPARE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 150


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; returns True on exit code 0."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out: %s" % " ".join(cmd), file=sys.stderr)
        return False


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    start = time.monotonic()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                            "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           BUILD_TIMEOUT_S):
            return False
    left = BUILD_TIMEOUT_S - (time.monotonic() - start)
    return run_checked(["cmake", "--build", BUILD_DIR, "--target",
                        "perfbench_driver", "-j", "4"], left)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--db-seed", type=int, default=29)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    base = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--db-seed", str(args.db_seed), "--dir", DATA_DIR]
    # Inputs are generated (or found in the cache) by a process of their own,
    # so the measured process's time and peak RSS never include generation.
    if not run_checked(base + ["--prepare", "1"], PREPARE_TIMEOUT_S):
        print("perfbench: input generation failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen(base, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        print("perfbench: driver exited %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys %s" % sorted(result))
    except ValueError as e:
        sys.stderr.write(out)
        print("perfbench: no result line: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
