#!/usr/bin/env python3
"""Repeatability check: run the benchmark in two sets and compare them
against the benchmark's own bounds, the way the acceptance driver does.

    python3 benchmark/repeat.py                 # 2 sets x 10 seeds x 6 workloads (~35 min)
    python3 benchmark/repeat.py --runs 1        # two full sets back to back on one seed
    python3 benchmark/repeat.py --runs 1 --traced --workloads learn_beside_predict

Per workload and end-to-end metric it prints both medians, how much worse
the second is than the first, the spread of each set (distance between the
first and third quartile over the median) and the bound. It exits non-zero
when a second median is worse than the first by more than the bound, when a
spread other than `setup_s` exceeds its bound, or when a run is incorrect.
`--traced` adds one traced run per set: the learner's counters must repeat
exactly, and the gap between traced and untraced `rows_per_s` is printed as
the tracing overhead.

Reads the command, the bounds and `run_seconds` from `/BENCHMARK.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTERS = ["learn.folds", "learn.publishes", "learn.publishes_rejected", "learn.rows_heldout"]


def run(spec, workload, seed, seconds, trace):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}\n{done.stdout}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """Interquartile distance as a share of the median; None for one value."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="seeds per set (default 10)")
    parser.add_argument("--seed0", type=int, default=1, help="first seed (default 1)")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--traced", action="store_true", help="also one traced run per set")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    problems = []

    for workload in workloads:
        sets, traced = [], []
        for s in range(2):
            runs = []
            for seed in range(args.seed0, args.seed0 + args.runs):
                runs.append(run(spec, workload, seed, seconds, 0))
                print(f"  {workload} set {s + 1} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
            sets.append(runs)
            if args.traced:
                traced.append(run(spec, workload, args.seed0, seconds, 1))

        print(f"\n{workload}: {args.runs} run(s) per set, {seconds} s each")
        print(f"  {'metric':<18}{'median 1':>14}{'median 2':>14}{'worse by':>10}{'spread 1':>10}{'spread 2':>10}{'bound':>8}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r[name] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            worse = worse_by(medians[0], medians[1], metric["better"])
            spreads = [spread(v) for v in values]
            loose = name != "setup_s" and [s for s in spreads if s is not None and s > bound]
            if worse > bound:
                verdict = "  SECOND SET WORSE THAN BOUND"
            elif loose:
                verdict = "  SPREAD WIDER THAN BOUND"
            else:
                verdict = ""
            if verdict:
                problems.append(f"{workload} {name}:{verdict}")
            shown = ["     n/a" if s is None else f"{s:>8.2%}" for s in spreads]
            print(f"  {name:<18}{medians[0]:>14.6g}{medians[1]:>14.6g}{worse:>+10.2%}  {shown[0]}  {shown[1]}{bound:>8.0%}{verdict}")

        if args.traced:
            untraced = statistics.median(r["rows_per_s"] for r in sets[0])
            overhead = 1 - traced[0]["bench.traced_rows_per_s"] / untraced
            print(f"  tracing overhead on rows_per_s: {overhead:+.1%} ({traced[0]['bench.traced_rows_per_s']:.6g} traced, {untraced:.6g} untraced)")
            for counter in EXACT_COUNTERS:
                a, b = traced[0][counter], traced[1][counter]
                if a == b == 0:
                    continue
                if a != b:
                    problems.append(f"{workload} {counter}: {a} then {b}; must repeat exactly")
                print(f"  {counter:<28}{a:>10.0f}{b:>10.0f}{'' if a == b else '  DIFFERS'}")
        print(flush=True)

    if problems:
        print("NOT REPEATABLE:")
        for problem in problems:
            print("  " + problem)
        sys.exit(1)
    print("repeatable: every pair within its bound")


if __name__ == "__main__":
    main()
