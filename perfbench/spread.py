#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload closure --seeds 1-10 --seconds 30

For every metric it prints the median of the runs and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as
a share of the median, next to the bound that BENCHMARK.json gives it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def relative_iqr(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               check=True).stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) < 2:
        return
    print(f"{'metric':<40} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        bound = bounds.get(name)
        print(f"{name:<40} {statistics.median(vals):>12.5g} "
              f"{relative_iqr(vals):>11.3f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
