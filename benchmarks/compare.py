#!/usr/bin/env python3
"""Compare two sets of runs of one workload, metric by metric.

    python3 benchmarks/compare.py old.jsonl new.jsonl

Each file holds the last output line of each run (one JSON object per line),
all of one workload and one ``--trace`` setting. For every metric it prints
each side's median and quartiles and the change of the medians. For the
end-to-end metrics it marks a change worse than the bound in BENCHMARK.json,
and a spread wider than the bound as unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    if not runs:
        sys.exit(f"error: no runs in {path}")
    return runs


def summary(values: list):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for label, runs in (("old", old), ("new", new)):
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{label}: {len(runs)} runs, correct {correct}, failed {failed}/{attempted}")
    print(f"{'metric':<42} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>8}")
    for name in old[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in old]
        b = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not b:
            continue
        (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
        change = (mb - ma) / ma if ma else 0.0
        note = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = change if bounds[name]["better"] == "lower" else -change
            if ma and (a3 - a1) / ma > bound:
                note = "unresolved (spread > bound)"
            elif worse > bound:
                note = f"WORSE than bound {bound}"
        print(f"{name:<42} {ma:>14.6g} [{a1:.4g}, {a3:.4g}] {mb:>14.6g} [{b1:.4g}, {b3:.4g}] {change:>+8.1%} {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
