#!/usr/bin/env python3
"""aquad end-to-end load benchmark.

Builds aquad and the load generator from the sources of the checkout it
sits in, then runs one workload and prints its metrics; the last line of
standard output is one JSON object. Run from the root of the checkout:

    python3 loadbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

See loadbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("scan", "dist", "small")


def build():
    """Configures and builds the load generator (and aquad) in .bench_build/."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "loadbench",
                    "-j3"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "loadbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The benchmark measures the program in the same checkout; without its
    # sources there is nothing to build or run.
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"loadbench: no '{needed}' in {ROOT}; cannot build aquad",
                  file=sys.stderr)
            return 2
    try:
        loadgen = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"loadbench: build failed: {err}", file=sys.stderr)
        return 2
    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    return subprocess.run([loadgen, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
