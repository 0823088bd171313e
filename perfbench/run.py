#!/usr/bin/env python3
"""Entry point of the SunChase benchmark.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library sources under src/) into the build directory, runs one workload and
relays its output. The last line of stdout is the result object.

    python3 perfbench/run.py --workload pareto-large --seed 1 --seconds 10 --trace 0

The build directory is $CARGO_TARGET_DIR/perfbench when that variable is
set, else .bench_build/perfbench, relative to the repository root. Pass
--tiny for the smoke test's small lattices.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pareto-large", "publish-churn")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then brings the program up to date. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the SunChase sources (src/) are missing beside perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "sunchase_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    try:
        program = build(out)
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed ({err})")
    command = [
        program, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--work-dir", os.path.join(out, "work"),
        "--reference", os.path.join(HERE, "reference", "pareto-large.txt"),
    ]
    if args.tiny:
        command.append("--tiny")
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded its time limit")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
