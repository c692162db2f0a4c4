#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <star-solo|scan-burst|star-mixed> \
        --seed <n> --seconds <s> --trace <0|1> [--rate <requests/s>]

Run from the repository root. The engine and the benchmark are compiled
(Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
the build log goes to standard error. The benchmark's standard output is
passed through: `metric` lines, a host/build fingerprint, and the JSON
result object as the last line. Traced runs write their spans to
<build dir>/traces/. Exits non-zero, without a result, when the engine
sources are missing or the build or run fails. --rate overrides
star-mixed's offered rate; sweep.py uses it to find the mix's saturation.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("star-solo", "scan-burst", "star-mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "core", "database.hpp")):
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    log = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, **log).returncode != 0:
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, **log).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--rate", type=float)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.rate is not None:
        cmd += ["--rate", str(args.rate)]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
