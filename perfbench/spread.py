#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py serve-b3-fp32 --seeds 1 2 3 4 5 [--trace 1]

For every metric of the result line: the median over the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace",
                                  args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                  f"{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        listed = bench["per_layer" if args.trace == "1" else "end_to_end"]
        if sorted(result["metrics"]) != sorted(m["name"] for m in listed):
            print(f"seed {seed}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ {m['name'] for m in listed})}")
            return 1
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) > 1 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = "  <-- > bound/3" if bound and spread > bound / 3 else ""
        print(f"{name:40} {med:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
