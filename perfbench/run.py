#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <live-aes|store-replay|bus-mixed> \
        --seed <n> --seconds <s> --trace <0|1> [--scale <f>]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; build output goes to stderr, so the last
stdout line is the benchmark's JSON result. Exits non-zero without a
result when the library sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "runner.h")):
        print("perfbench: library sources not found under src/",
              file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in ([] if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt"))
                else [configure]) + [["cmake", "--build", build_dir,
                                      "-j", jobs]]:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        return 2
    # The binary binds a Unix socket under the work directory; a path
    # relative to the checkout keeps it within the socket path limit.
    work_dir = os.path.relpath(os.path.join(target, "perfbench-work"), ROOT)
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--work-dir", work_dir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
