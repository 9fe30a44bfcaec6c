#!/usr/bin/env python3
"""Runs one workload N times, each with another seed, and prints each
metric's median, quartiles and quartile spread (Q3 - Q1, as a share of the
median) -- the figures the bounds in BENCHMARK.json are set and checked by.

    python3 perfbench/repeat.py --workload realtime [--runs 10]
        [--first-seed 1] [--seconds 10] [--trace 0]
        [--json perfbench-results-realtime.json]

`--json` keeps every run's result; the root .gitignore ignores
perfbench-results*.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d: exit %d" % (seed, out.returncode))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: a check failed (see stderr above)" % seed)
        result["seed"] = seed
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"],
               result["failed"]), file=sys.stderr)

    print("%-36s %14s %14s %14s %8s" %
          ("metric", "median", "q1", "q3", "spread"))
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        spread = (q3 - q1) / median if median else 0.0
        print("%-36s %14.4f %14.4f %14.4f %8.4f %s" %
              (name, median, q1, q3, spread, first["unit"]))
    shares = {r["failed"] / r["attempted"] for r in results}
    print("correct in every run; failed shares: %s" % sorted(shares))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
