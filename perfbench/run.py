#!/usr/bin/env python3
"""Builds and runs the scan benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness is built from source into the
directory named by CARGO_TARGET_DIR (default .bench_build) and run there;
build output goes to stderr, so the last line of stdout is the harness's
JSON result. Exits non-zero when the build fails (printing no result) or
when a check fails (the result line then says "correct": false).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("direct_cifar10", "service_triage")
# The harness sizes its own pool; the build may use every core.
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", BUILD_JOBS]
    for command in (configure, compile_):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work_dir,
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
