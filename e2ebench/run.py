#!/usr/bin/env python3
"""Builds and runs the AD-PROM end-to-end benchmark.

Usage (from the repository root):
  python3 e2ebench/run.py --workload bash|tenants --seed N --seconds S \
      --trace 0|1
  python3 e2ebench/run.py --selftest

The first call configures and builds the AD-PROM libraries and the
benchmark from source into the build directory ($CARGO_TARGET_DIR, else
.bench_build); later calls only rebuild what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Traced runs write their spans under .bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "3"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no AD-PROM sources (src/CMakeLists.txt) next to "
                 "the benchmark; run it from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["bash", "tenants"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("e2ebench: build failed: %s" % error)

    if args.selftest:
        command = [os.path.join(build_dir, "e2ebench_selftest")]
    else:
        command = [os.path.join(build_dir, "e2ebench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out-dir", os.path.abspath(".bench_out")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
