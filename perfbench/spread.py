#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check sees it.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

With --runs 1 this is the one command that runs every workload, each in its
own process, and prints every end-to-end metric by name and unit.

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each named workload (default: all in BENCHMARK.json), untraced, for the
declared run_seconds. For every end-to-end metric it prints the median of the
runs and the distance between the first and third quartile of the values
(statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound. Exits 1 if a run fails or a spread other than setup_s's
reaches a third of its bound.
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
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: run failed ({proc.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g} {m['unit']}"
                for n, m in result["metrics"].items()), flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("inf")
            steady = share < m["bound"] / 3
            if not steady and m["name"] != "setup_s":
                ok = False
            print(f"{w:14s} {m['name']:18s} median {med:14.6g} {m['unit']:9s}"
                  f" spread {share:7.4f} bound {m['bound']:.2f}"
                  f"{'' if steady else '  <-- not below bound/3'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
