#!/usr/bin/env python3
"""Build and run the firmup end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hunt_hot --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the benchmark program with the
given arguments. The program prints its result as the last line of
standard output; this script adds nothing after it and exits with the
program's exit code. Build output goes to <build dir>/build.log.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "firmup_perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                result = subprocess.run(cmd, stdout=log,
                                        stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.stderr.write("perfbench: build exceeded %d s\n"
                                 % BUILD_TIMEOUT_S)
                return False
            if result.returncode != 0:
                sys.stderr.write("perfbench: build failed (%s); see %s\n"
                                 % (" ".join(cmd[:2]), log_path))
                return False
    return True


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "firmup_perfbench")
    cmd = [binary, "--state-dir", out, "--commit", git_commit()] + sys.argv[1:]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
