#!/usr/bin/env python3
"""Steadiness report: runs one workload k times and shows how much each
metric moves between runs.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--sets 1] [--seconds S] [--trace 0|1]

Run it from the repository root. Run i uses seed first-seed + i. For
every metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), and the spread
(Q3 - Q1) / median beside the metric's bound from BENCHMARK.json. A
metric is flagged when its spread exceeds a tenth, a third of its
bound, or the bound itself. With --sets 2 the same seeds run twice and
each metric's second median is compared with the first, and the second
set's spread is shown; a change worse than the bound is flagged too.
Exits 1 when a run fails or reports incorrect output, when an end-to-end
metric spreads beyond its bound in either set, or when a second median
is worse than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    if out.returncode != 0:
        return None
    return json.loads(out.stdout.strip().split("\n")[-1])


def collect(args, label):
    values = {}
    units = {}
    problems = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if result is None:
            problems.append("seed %d: the run failed" % seed)
            continue
        if not result["correct"] or result["failed"]:
            problems.append("seed %d: correct=%s, %d of %d failed" % (
                seed, result["correct"], result["failed"],
                result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("%s: run %d/%d (seed %d) done" % (label, i + 1, args.runs, seed),
              file=sys.stderr)
    return values, units, problems


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, values[0], values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q1 == q3:
        return median, q1, q3, 0.0
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    sets = [collect(args, "set %d" % (s + 1)) for s in range(args.sets)]
    failed = False
    for _, _, problems in sets:
        for problem in problems:
            print("FAILED " + problem)
            failed = True

    values, units, _ = sets[0]
    print("%-32s %-6s %13s %13s %13s %8s %6s  %s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "bound", "flags"))
    for name in sorted(values):
        spec = specs.get(name, {})
        bound = spec.get("bound")
        median, q1, q3, spread = summarize(values[name])
        flags = []
        if spread > 0.10:
            flags.append("does not repeat within a tenth")
        if bound is not None and spread > bound:
            flags.append("ABOVE BOUND")
            failed = True
        elif bound is not None and spread > bound / 3:
            flags.append("above a third of the bound")
        if args.sets == 2 and bound is not None and name in sets[1][0]:
            second = statistics.median(sets[1][0][name])
            worse = (second - median) / abs(median) if median else 0.0
            if spec.get("better") == "higher":
                worse = -worse
            flags.append("second median %+.1f%% worse" % (100 * worse))
            if worse > bound:
                flags.append("SECOND MEDIAN BEYOND BOUND")
                failed = True
            second_spread = summarize(sets[1][0][name])[3]
            flags.append("second spread %.1f%%" % (100 * second_spread))
            if second_spread > bound:
                flags.append("SECOND SPREAD ABOVE BOUND")
                failed = True
        print("%-32s %-6s %13.6g %13.6g %13.6g %7.1f%% %6s  %s" % (
            name, units[name], median, q1, q3, 100 * spread,
            "-" if bound is None else "%.0f%%" % (100 * bound),
            "; ".join(flags)))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
