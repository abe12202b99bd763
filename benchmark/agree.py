#!/usr/bin/env python3
"""Noise tooling: do two sets of runs of the same code agree?

Runs the benchmark twice RUNS times on each workload, every run with another
--seed, and prints for each end-to-end metric x workload

  * the spread of each set: the distance between the first and third quartile
    of its RUNS values (statistics.quantiles(values, n=4)) as a share of their
    median, which must stay within the metric's bound;
  * the drift: how much worse the second set's median is than the first's,
    as a share of the first, which must stay within the bound.

It also runs the traced run twice with one seed on each workload and checks
that every count metric repeats exactly, and that no run had a failed
operation.  Bounds, workloads, command and run length come from
BENCHMARK.json.  Exits non-zero when anything is outside.

  benchmark/agree.sh [--runs 10] [--seed 1000] [--workload W ...] [--keep FILE]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        print(f"FAILED OPERATIONS {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} (correct={result['correct']})")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    parser.add_argument("--workload", action="append", help="only these workloads")
    parser.add_argument("--keep", help="write every run's result to this JSON file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    kept = {}

    for workload in workloads:
        sets = []
        for which in range(2):
            seeds = [args.seed + which * args.runs + i for i in range(args.runs)]
            results = [run(spec, workload, seed, 0) for seed in seeds]
            ok &= all(r["correct"] and r["failed"] == 0 for r in results)
            sets.append(results)
        kept[workload] = sets
        print(f"\n{workload}: {args.runs} runs per set, seeds from {args.seed}")
        print(f"  {'metric':<16} {'median A':>12} {'median B':>12} {'spread A':>9} "
              f"{'spread B':>9} {'drift':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["metrics"][name]["value"] for r in results] for results in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = [spread(a), spread(b)]
            verdicts = []
            if max(spreads) > bound:
                verdicts.append("SPREAD")
            if worse > bound:
                verdicts.append("DRIFT")
            if max(spreads) > bound / 3 and not verdicts:
                verdicts.append("(spread above a third of the bound)")
            ok &= not any(v in ("SPREAD", "DRIFT") for v in verdicts)
            print(f"  {name:<16} {med_a:>12.4f} {med_b:>12.4f} {spreads[0]:>8.1%} "
                  f"{spreads[1]:>8.1%} {worse:>+8.1%} {bound:>6.0%}  {' '.join(verdicts)}")

        first, second = (run(spec, workload, args.seed, 1) for _ in range(2))
        ok &= all(r["correct"] and r["failed"] == 0 for r in (first, second))
        differing = [name for name, m in first["metrics"].items()
                     if m["unit"] == "count" and m["value"] != second["metrics"][name]["value"]]
        counts = sum(1 for m in first["metrics"].values() if m["unit"] == "count")
        if differing:
            ok = False
            print(f"  COUNTS DIFFER between two traced runs of seed {args.seed}: {differing}")
        else:
            print(f"  {counts} count metrics repeat exactly over two traced runs of seed {args.seed}")
        kept[workload + ":traced"] = [first, second]

    if args.keep:
        with open(args.keep, "w") as handle:
            json.dump(kept, handle, indent=1)
    print("\nagree:", "every metric within its bound" if ok else "OUTSIDE THE BOUNDS")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
