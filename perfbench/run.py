#!/usr/bin/env python3
"""Build the Bonsai benchmark from source and run one workload.

    python3 perfbench/run.py --workload dc-all|wan-all|change-review \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source tree. The program is built with dune into
.bench_build (release profile, dune cache off, so nothing is written
outside the tree) and run once; its standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. The exit code is
the program's: 1 when a correctness check failed, 2 when the tree is
not a Bonsai source tree, and the build's when the build fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
WORKLOADS = ("dc-all", "wan-all", "change-review")
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the root of a "
                  "Bonsai source tree", file=sys.stderr)
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, TARGET],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    exe = os.path.join(BUILD_DIR, "default", TARGET)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    sys.stdout.flush()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 124


if __name__ == "__main__":
    sys.exit(main())
