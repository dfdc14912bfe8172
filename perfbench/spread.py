#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads live-aes,store-replay,bus-mixed]
        [--runs 10] [--first-seed 1] [--seconds <s>] [--trace 0|1]

For every workload and metric it prints the median of the runs, the
interquartile range as a share of the median (statistics.quantiles with
n=4) and, for end-to-end metrics, the bound from BENCHMARK.json; a spread
at or above a third of its bound is marked "!". Exits non-zero if any run
fails or reports correct = false. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correct = false")
    return result, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        walls = []
        for i in range(args.runs):
            result, wall = run_once(workload, args.first_seed + i,
                                    args.seconds, args.trace)
            walls.append(wall)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {args.runs} runs, wall median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "!" if bound is not None and spread >= bound / 3 else " "
            bound_text = f"bound {bound:.2f}" if bound is not None else ""
            print(f" {flag} {name:48s} median {med:14.6g}  spread "
                  f"{spread:7.4f}  {bound_text}")
            print("     " + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
