#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on one workload and
prints, for each end-to-end metric, the median of the runs and the
distance between their first and third quartiles as a share of that
median, next to the metric's bound.

    python3 perfbench/spread.py --workload fleet --seeds 1-10

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="a-b or a,b,c")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in seed_list(args.seeds):
        command = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        started = time.monotonic()
        run = subprocess.run(command, capture_output=True, text=True)
        wall = time.monotonic() - started
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s", flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])

    print(f"{'metric':<32} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = m.get("bound")
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"{m['name']:<32} {med:>14.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{x:.6g}" for x in v))


if __name__ == "__main__":
    main()
