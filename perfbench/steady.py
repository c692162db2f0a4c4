#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs each workload N times, each
with another seed, and reports every metric's spread, taken as the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--seconds S] [--out FILE]

Run from the repository root; runs go through perfbench/run.py, one at a
time. --out writes the record as JSON, replacing the entries of the
workloads just run in an existing file (perfbench/steadiness.json holds the
committed one).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, _unit = line.split()
            values[name] = float(value)
    return result, values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    record = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    for workload in workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        series, failed = {}, 0
        for seed in seeds:
            result, values = one_run(workload, seed, args.seconds)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name, value in values.items():
                series.setdefault(name, []).append(value)
        metrics = {}
        print(f"{workload}: seeds {seeds[0]}..{seeds[-1]}, failed {failed}")
        for name, values in series.items():
            s = spread(values)
            s["values"] = values
            bound = bounds.get(name)
            s["bound"] = bound
            metrics[name] = s
            shown = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            limit = f"bound {bound}" if bound is not None else "not gated"
            print(f"  {name:24s} median {s['median']:.6g}  spread {shown}  ({limit})")
        record["workloads"][workload] = {
            "seconds": args.seconds, "seeds": seeds, "failed": failed,
            "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
