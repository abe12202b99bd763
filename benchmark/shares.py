#!/usr/bin/env python3
"""Prints, from the traced runs' files under benchmark/out/, each layer's
share of the set-up, explore-round and analyze-round root spans on every
workload, as the markdown tables of README.md.

  benchmark/run.sh --seed 1 --trace 1      # writes benchmark/out/*.trace1.json
  python3 benchmark/shares.py --seed 1

A layer's share is the self time of its spans over the duration of the root
spans they sit in; `(root)` is the roots' own self time, what the layer spans
do not cover.
"""

import argparse
import json
import os

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
ROOTS = [("setup", "set-up"), ("round.explore", "explore round"), ("round.analyze", "analyze round")]


def shares(spans, root):
    own = [span["self_us"] for span in spans]
    total = sum(s["end_us"] - s["start_us"] for s in spans if s["parent"] is None and s["name"] == root)
    by_layer = {}
    for span, self_us in zip(spans, own):
        if span["parent"] is None and span["name"] == root:
            by_layer["(root)"] = by_layer.get("(root)", 0.0) + self_us
        elif span["parent"] is not None and spans[span["parent"]]["name"] == root:
            by_layer[span["name"]] = by_layer.get(span["name"], 0.0) + self_us
    return {layer: value / total for layer, value in by_layer.items()} if total else {}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(OUT), "..", "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    traces = {}
    for workload in workloads:
        with open(os.path.join(OUT, f"{workload}.seed{args.seed}.trace1.json")) as handle:
            traces[workload] = json.load(handle)["spans"]
    for root, title in ROOTS:
        table = {workload: shares(traces[workload], root) for workload in workloads}
        layers = sorted({layer for row in table.values() for layer in row},
                        key=lambda l: (l == "(root)", -max(row.get(l, 0.0) for row in table.values())))
        print(f"\nShare of the {title} (seed {args.seed}):\n")
        print("| layer span | " + " | ".join(workloads) + " |")
        print("|---|" + "---:|" * len(workloads))
        for layer in layers:
            cells = [f"{table[w][layer]:.1%}" if layer in table[w] else "–" for w in workloads]
            print(f"| `{layer}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
