#!/usr/bin/env python3
"""Benchmark of longmap: four workloads and a traced per-layer run.

    python3 benchmarks/run.py                  # every workload, seed 1, 10 s each
    python3 benchmarks/run.py --workload fixed-mixed --seed 3 --seconds 10 --trace 0

It runs the package under ``src/`` of the checkout it sits in. With
``--trace 0`` it prints the end-to-end metrics, measured with no tracing;
with ``--trace 1`` it also runs one round under the span tracer and prints
the per-layer metrics. The last line of its output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_SAMPLE_SECONDS = 0.001
SETUP_EVERY_SECONDS = 2.0


def nearest_rank(ordered: list, q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def upper_decile(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "longmap").glob("*.py")))


def setup_sample(w, reps: int):
    """Mean time of one build over ``reps`` builds in a row, and the last state."""
    t0 = time.perf_counter()
    for _ in range(reps):
        state = w.build()
    return (time.perf_counter() - t0) / reps, state


def measure_setup(w):
    """Build the starting state a few times before the timed phase.

    Returns the time samples, the last state built and the number of builds
    per sample: enough to last a millisecond, so that a build of a few
    microseconds is not lost in the clock's noise.
    """
    warm = min(setup_sample(w, 1)[0] for _ in range(3))
    reps = max(1, math.ceil(SETUP_SAMPLE_SECONDS / warm))
    samples = []
    for _ in range(SETUP_REPEATS):
        took, state = setup_sample(w, reps)
        samples.append(took)
    return samples, state, reps


def timed_rounds(w, state, seconds: float, setup_samples: list, reps: int):
    """Whole rounds until ``seconds`` of op time have passed.

    Between rounds the starting state is built again, and timed, at least
    every two seconds, so that set-up samples are spread over the run like
    the op times are. A workload that starts each round from a fresh map
    runs on that build.
    """
    rounds = []
    spent = since_setup = 0.0
    while not rounds or spent < seconds:
        if rounds:
            rounds[-1].final_map = None
            if w.fresh_map_per_round or since_setup >= SETUP_EVERY_SECONDS:
                took, built = setup_sample(w, reps)
                setup_samples.append(took)
                since_setup = 0.0
                if w.fresh_map_per_round:
                    state = built
        r = w.run_round(state)
        rounds.append(r)
        spent += r.seconds
        since_setup += r.seconds
    return rounds, state


def traced_round(w, state, last, untraced_ops_per_s: float, name: str):
    """One more round under the span tracer; the per-layer metrics, the
    round, and what to add to the run's record."""
    from tracing import Tracer, empty_span_ns
    from workloads import LONG_MIN

    if w.fresh_map_per_round:
        state = w.build()
    tracer = Tracer()
    with tracer:
        if w.setup_in_trace:
            state = w.build()
        r = w.run_round(state)
        problem = w.finish(r.final_map)
    seen = tracer.root_ops() if r.seen is None else r.seen
    if (r.ops, r.failed, seen) != (last.ops, last.failed, last.ops):
        raise SystemExit(
            f"traced round disagrees with untraced: ops {r.ops}/{last.ops}, "
            f"failed {r.failed}/{last.failed}, ops seen by the tracer {seen}"
        )
    metrics = tracer.layer_metrics()
    inner = getattr(r.final_map, "inner", None)
    if inner is not None:
        tombstones = inner.keys.count(LONG_MIN)
        fill = 1 - inner.keys.count(0) / inner.capacity
    else:
        tombstones, fill = 0, 0.0
    metrics["growable.tombstones_final"] = (tombstones, "count")
    metrics["growable.fill_final"] = (fill, "ratio")
    traced_ops_per_s = r.ops / r.seconds
    metrics["trace.ops_per_s"] = (traced_ops_per_s, "ops/s")
    metrics["trace.slowdown"] = (untraced_ops_per_s / traced_ops_per_s, "x")
    metrics["trace.empty_span_ns"] = (empty_span_ns(), "ns")
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{name}.tsv.gz"
    tracer.write(path)
    info = {"spans": str(path.relative_to(ROOT)), "spans_count": len(tracer.start)}
    return metrics, r, info, problem


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from workloads import WORKLOADS, table_bytes

    w = WORKLOADS[name](seed)
    # The benchmark's own inputs are long-lived; keep them out of the
    # collector's way so that its cost is the program's.
    gc.collect()
    gc.freeze()
    setup_samples, state, reps = measure_setup(w)
    rounds, state = timed_rounds(w, state, seconds, setup_samples, reps)
    setup_s = upper_decile(setup_samples)
    last = rounds[-1]
    problems = w.verify(state, last, len(rounds))

    # The machine's speed flips between a slow and a fast spell, up to 1.8x
    # apart, every second or so. The slow spell is the steady one, so each
    # time is the upper decile over the run's rounds (or set-up samples): a
    # time nine rounds in ten beat. The 99th percentile pools every batch of
    # the run and so always sees the slow spells.
    ops = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    ops_per_s = 1 / upper_decile([r.seconds / r.ops for r in rounds])
    p50 = upper_decile([nearest_rank(sorted(r.batch_us), 0.50) for r in rounds])
    p99 = nearest_rank(sorted(x for r in rounds for x in r.batch_us), 0.99)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "op_us_p50": (p50, "us"),
        "op_us_p99": (p99, "us"),
        "table_bytes": (table_bytes(last.final_map), "bytes"),
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "rounds": len(rounds),
        "ops_per_round": last.ops,
        "batch_ops": w.batch,
        "batches_per_round": len(last.batch_us),
        "setup_samples": len(setup_samples),
        "capacity_final": getattr(last.final_map, "capacity", None),
    }

    if trace:
        metrics, r, extra, problem = traced_round(w, state, last, ops_per_s, name)
        info.update(extra)
        if problem:
            problems.append(problem)
        ops += r.ops
        failed += r.failed

    gc.unfreeze()
    return info, metrics, ops, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "longmap" / "__init__.py").is_file():
        print(f"error: no longmap package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    total_ops = total_failed = 0
    all_problems = []
    out = {}
    for name in names:
        info, metrics, ops, failed, problems = run_workload(name, args.seed, args.seconds, bool(args.trace))
        info.update(attempted=ops, failed=failed, problems=problems)
        print(json.dumps({"run": info}))
        for metric, (value, unit) in metrics.items():
            print(f"  {name:<15} {metric:<40} {value:>16.6g} {unit}")
        total_ops += ops
        total_failed += failed
        all_problems += [f"{name}: {p}" for p in problems]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in metrics.items():
            out[prefix + metric] = {"value": value, "unit": unit}
    for p in all_problems:
        print(f"INCORRECT {p}")
    print(
        json.dumps(
            {"correct": not all_problems, "attempted": total_ops, "failed": total_failed, "metrics": out}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
