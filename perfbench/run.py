#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload net-udp-rx --seed 1 --seconds 10 --trace 0

Run from the root of the repository.  The executable is built with dune
into .bench_build/ (dune's shared cache is disabled so nothing is written
outside the checkout); build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  All arguments are passed through
to perfbench/bench.exe, which rejects any it does not know.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, stdin=subprocess.DEVNULL,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
