#!/usr/bin/env python3
"""Checks that the metrics perfbench prints are the ones BENCHMARK.json and
perfbench/metrics.json name, for every workload (gated or not), untraced
and traced, and that metrics.json only adds to BENCHMARK.json.

    python3 perfbench/tests/test_bench.py <path to the perfbench binary>

Each workload runs for one second per mode.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(path):
    with open(path) as f:
        return json.load(f)


def run(binary, workload, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "11", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True).stdout
    lines = out.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


def main():
    binary = sys.argv[1]
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load(os.path.join(ROOT, "perfbench", "metrics.json"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    gated_workloads = [w["name"] for w in bench["workloads"]]
    workloads = gated_workloads + list(catalog["ungated_workloads"])
    errors = []

    # metrics.json holds only what BENCHMARK.json lacks: gated metrics carry
    # no unit there, ungated ones carry their unit and workloads.
    ungated = {}
    for name, m in catalog["end_to_end"].items():
        if name in e2e:
            if "unit" in m or "workloads" in m:
                errors.append(f"metrics.json repeats BENCHMARK.json for {name}")
        elif not set(m["workloads"]) <= set(workloads):
            errors.append(f"metrics.json {name}: unknown workload")
        else:
            ungated[name] = m
    if not set(e2e) <= set(catalog["end_to_end"]):
        errors.append("metrics.json lacks a gated end_to_end metric")
    if list(catalog["per_layer"]) != list(layers):
        errors.append("metrics.json per_layer names differ from BENCHMARK.json")
    for name, m in catalog["per_layer"].items():
        for workload, moved in m["moves"].items():
            if workload not in workloads or not set(moved) <= set(
                    catalog["end_to_end"]):
                errors.append(f"metrics.json {name}: bad moves entry {workload}")
    for w in bench["workloads"]:
        if len(w["why"]) > 200:
            errors.append(f"why of {w['name']} is longer than 200 characters")
    if set(gated_workloads) & set(catalog["ungated_workloads"]):
        errors.append("a workload is both gated and ungated")

    for workload in workloads:
        for trace, listed in ((0, e2e), (1, layers)):
            result, printed = run(binary, workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{workload} --trace {trace}"
            if got != listed:
                errors.append(f"{tag}: result metrics {sorted(got)} != {sorted(listed)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                errors.append(f"{tag}: not a clean run: {result}")
            for name, unit in listed.items():
                if printed.get(name, (None, unit))[1] != unit:
                    errors.append(f"{tag}: printed unit of {name} differs")
            if trace == 0:
                for name, m in ungated.items():
                    if workload in m["workloads"] and printed.get(
                            name, (None, None))[1] != m["unit"]:
                        errors.append(f"{tag}: {name} not printed in {m['unit']}")
                for name in e2e:
                    if not printed.get(name, (0,))[0] > 0:
                        errors.append(f"{tag}: {name} is not positive")

    for e in errors:
        print("FAIL:", e)
    print("metric names:", "FAILED" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
