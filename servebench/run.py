#!/usr/bin/env python3
"""Builds and runs the served-path benchmark (see README.md).

    python3 servebench/run.py --workload anl_flood --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
product libraries and the benchmark in Release mode under the directory
named by CARGO_TARGET_DIR (default .bench_build); later runs rebuild only
what changed. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. With --trace 1 the raw spans are written to
<build dir>/trace-<workload>-<seed>.tsv.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build(build_dir):
    env = dict(os.environ, TMPDIR=build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "served_path",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "served_path")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["anl_flood", "dcp_flood"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ next to servebench/; run it from a checkout")

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    os.makedirs(build_dir, exist_ok=True)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.tsv")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                                env=dict(os.environ, TMPDIR=build_dir))
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
