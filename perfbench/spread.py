#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload rbtree-remote --seeds 1-10 [--trace 0]

Run from the repository root. For every metric it prints the median of the
runs and the distance between the first and third quartile as a share of
the median (`statistics.quantiles(values, n=4)`), next to the metric's
bound from BENCHMARK.json. The runs use the command and `run_seconds` of
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}: {last}")
        res = json.loads(last)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':36} {'median':>14} {'iqr/median':>10} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) > 1 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = f"{(q3 - q1) / med:10.4f}"
        else:
            share = f"{'-':>10}"
        bound = bounds.get(name)
        print(f"{name:36} {med:14.4f} {share} {'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
