#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload pprime-tumbling --seed 1 \
      --seconds 10 --trace 0
  python3 perfbench/run.py --selftest     # the answer references' tests

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) as a Release CMake build; a second run only checks
that it is up to date. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Any build failure exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            sys.exit(2)
    return os.path.join(build_dir, target)


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        sys.exit(subprocess.run([build("reference_test")]).returncode)
    binary = build("perfbench")
    sys.stdout.flush()
    sys.exit(subprocess.run([binary] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
