#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and reports, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
against the metric's bound in BENCHMARK.json.

    python3 servebench/steadiness.py --seeds 10
    python3 servebench/steadiness.py --workloads dcp_flood --seeds 5 --first-seed 100

A spread is marked "ok" when it is below a third of the bound. setup_s is
measured the same way, but only its median is held to the bound between two
sets of runs, so its spread is shown for information.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                 f"{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds)
                for seed in range(args.first_seed,
                                  args.first_seed + args.seeds)]
        print(f"{workload}: {len(runs)} seeds from {args.first_seed}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            steady = steady and (ok or name == "setup_s")
            print(f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.4f}  bound {bound:5.3f}  "
                  f"{'ok' if ok else 'WIDE'}")
            print(f"  {'':16s} values {' '.join(f'{v:.6g}' for v in values)}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
