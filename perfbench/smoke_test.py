#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny budgets.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json untraced and traced with --seconds 1
and --scale 0.05, and checks that each run exits 0, that its last stdout
line is the result object with exactly the keys correct/attempted/failed/
metrics, that the correctness gate passed, and that every named metric is
printed with its unit. Then checks that a directory holding only
BENCHMARK.json and perfbench/ (no sources) exits non-zero without a result.
Run from the repository root.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "0.05"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n" + \
        proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], \
        f"{where}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{where}: metrics {got} != {expected}"
    for name, metric in result["metrics"].items():
        assert sorted(metric) == ["unit", "value"], f"{where}: {name}"
        assert isinstance(metric["value"], (int, float)), f"{where}: {name}"
    print(f"ok  {where}: {len(got)} metrics, attempted "
          f"{result['attempted']}")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "live-aes",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, "bare directory: exit 0"
        assert '"metrics"' not in proc.stdout, "bare directory: printed a result"
        print("ok  bare directory exits", proc.returncode, "without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_run(workload, 0, end_to_end)
        check_run(workload, 1, per_layer)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
