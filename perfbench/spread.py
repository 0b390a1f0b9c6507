#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10]

Every run is untraced. For every metric it prints the median over the runs
and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound in BENCHMARK.json. A spread above the bound makes the
benchmark unusable for that metric; the aim is a third of it. The medians of
the program's detail lines (shares, counts) follow. Exits non-zero when a
run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    details = {}
    failed = False
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"] or result["failed"]:
            print("seed %d: run failed or incorrect" % seed)
            failed = True
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in lines:
            if line.startswith("detail "):
                _, name, value, _unit = line.split()
                details.setdefault(name, []).append(float(value))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)

    print("%-34s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "OVER BOUND"
                failed = True
            elif spread > bound / 3:
                flag = "over a third of the bound"
        print("%-34s %12.6g %8.4f %8s %s" % (name, median, spread,
                                             "-" if bound is None else bound, flag))
    for name, vals in details.items():
        if not name.startswith("setup_s."):
            print("%-34s %12.6g   (detail, median)" % (name, statistics.median(vals)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
