#!/usr/bin/env python3
"""Finds where the star-mixed mix saturates: runs star-mixed at a ladder of
offered rates and reports, per rate, the rate answered by the end of the
offer, the short queries' p50 and p99, the heavy joins' p50 and the backlog
(requests sent but unanswered) at the end of the offer.

    python3 perfbench/sweep.py [--rates 65,130,...] [--seconds 15]
        [--seed 1] [--out FILE]

A rate keeps up when its backlog at the end of the offer is at most
max(8, 50 ms of arrivals), the same "no growing backlog" test
max_qps_under_slo applies on scan-burst; it meets the SLO when it also
keeps the short queries' p99 within 50 ms. Saturation is the highest rate
that keeps up; capacity is the highest rate answered at any rung, which the
overloaded rungs reach. Run from the repository root; runs go through
perfbench/run.py, one at a time. --out writes the record as JSON
(perfbench/saturation.json holds the committed one).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SLO_S = 0.050
DEFAULT_RATES = "65,130,200,215,230,245,260,330"


def one_run(rate, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "star-mixed", "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--rate", str(rate)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    row = {"rate": rate, "failed": result["failed"],
           "correct": result["correct"]}
    for line in lines:
        parts = line.split()
        if parts[0] == "metric" and parts[1] in (
                "qps", "latency_p50_ms", "latency_p99_ms",
                "latency_p50_ms.heavy"):
            row[parts[1]] = float(parts[2])
        elif parts[0] == "backlog_end":
            row["backlog_end"] = int(parts[1])
    row["keeps_up"] = row["backlog_end"] <= max(8.0, rate * SLO_S)
    row["meets_slo"] = (row["keeps_up"]
                        and row["latency_p99_ms"] <= SLO_S * 1e3)
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rates", default=DEFAULT_RATES)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    rows = []
    for rate in (float(r) for r in args.rates.split(",")):
        row = one_run(rate, args.seed, args.seconds)
        rows.append(row)
        print(f"rate {rate:6g}/s  answered {row['qps']:7.1f}/s  "
              f"short p50 {row['latency_p50_ms']:7.2f} ms  "
              f"p99 {row['latency_p99_ms']:8.2f} ms  "
              f"heavy p50 {row['latency_p50_ms.heavy']:8.2f} ms  "
              f"backlog_end {row['backlog_end']:5d}  "
              f"{'keeps up' if row['keeps_up'] else 'FALLS BEHIND'}"
              f"{'' if row['meets_slo'] else ', misses SLO'}", flush=True)
    kept = [r["rate"] for r in rows if r["keeps_up"]]
    slo = [r["rate"] for r in rows if r["meets_slo"]]
    record = {"workload": "star-mixed", "seed": args.seed,
              "seconds": args.seconds, "slo_p99_ms": SLO_S * 1e3,
              "saturation": max(kept) if kept else None,
              "capacity": max(r["qps"] for r in rows),
              "max_rate_under_slo": max(slo) if slo else None,
              "rungs": rows}
    print(f"saturation {record['saturation']}/s, "
          f"capacity {record['capacity']:.1f}/s, "
          f"under SLO {record['max_rate_under_slo']}/s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
