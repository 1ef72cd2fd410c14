"""Command-line harness: differential fuzzing, trace replay, invariant
checking of serialized states (whose file format lives here), and occupancy
probe-length reports.

Exit codes: 0 success, 1 contract/invariant violation, 2 bad flags or
unparseable input. All output is deterministic given identical flags and
seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

from .bench import BenchReport, run_bench
from .conformance import (
    FuzzConfig,
    ParseError,
    _shrink_trace,
    format_trace,
    generate_trace,
    parse_int,
    parse_trace,
    read_ascii,
    run_trace,
    split_lines,
)
from .core import LONG_MAX, LONG_MIN, MAX_MASK, MAX_MASK_EXPONENT, FixedLongMap
from .growable import GrowableLongMap
from .invariants import check as check_invariant, count_valid_keys


def dump_state(m: FixedLongMap) -> str:
    """Serialize a map state: mask and extras headers, then nonzero slots."""
    lines = [f"mask {m.mask}", f"extra {m.extra_keys} {m.zero_value} {m.min_value}"]
    for i, k in enumerate(m.keys):
        v = m.values[i]
        if k != 0 or v != 0:
            lines.append(f"slot {i} {k} {v}")
    return "\n".join(lines) + "\n"


def parse_state(text: str) -> FixedLongMap:
    """Parse a serialized state; the result may violate the invariant (that
    is for the checker to report), but must at least be buildable."""
    lines = split_lines(text)
    if len(lines) < 2:
        raise ParseError(1, "expected 'mask' and 'extra' header lines")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "mask":
        raise ParseError(1, f"expected 'mask <decimal>', got {lines[0]!r}")
    mask = parse_int(head[1], 1, "mask", 0, MAX_MASK)
    extra_line = lines[1].split()
    if len(extra_line) != 4 or extra_line[0] != "extra":
        raise ParseError(2, f"expected 'extra <keys> <zero> <min>', got {lines[1]!r}")
    extra_keys = parse_int(extra_line[1], 2, "extra_keys")
    zero_value = parse_int(extra_line[2], 2, "zero_value")
    min_value = parse_int(extra_line[3], 2, "min_value")

    keys = [0] * (mask + 1)
    values = [0] * (mask + 1)
    seen: set = set()
    for ln, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "slot":
            raise ParseError(ln, f"expected 'slot <i> <key> <value>', got {line!r}")
        i = parse_int(parts[1], ln, "slot index", 0, mask)
        if i in seen:
            raise ParseError(ln, f"slot {i} listed twice")
        seen.add(i)
        keys[i] = parse_int(parts[2], ln, "key")
        values[i] = parse_int(parts[3], ln, "value")

    array_size = count_valid_keys(keys)
    tombstones = keys.count(LONG_MIN)
    return FixedLongMap.unchecked(mask, keys, values, array_size, tombstones, extra_keys, zero_value, min_value)


def _int_flag(text: str, what: str = "value", lo: int = LONG_MIN, hi: int = LONG_MAX) -> int:
    """A decimal flag read as the file formats read numbers; argparse exits 2 on a bad one."""
    try:
        return parse_int(text, 0, what, lo, hi)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None


def _fraction(text: str, flag: str) -> float:
    """A fractional flag, refusing the ``_`` and non-ASCII digits that ``float`` takes."""
    if "_" not in text and text.isascii():
        with contextlib.suppress(ValueError):
            return float(text)
    raise ValueError(f"{flag} is not a decimal fraction: {text!r}")


def _mask_exp(text: str) -> int:
    return _int_flag(text, "mask exponent", 0, MAX_MASK_EXPONENT)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longmap",
        description="Fuzz, replay, benchmark and check the 64-bit open-addressing map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuzz", help="run a differential fuzz trace against the model")
    p.add_argument("--seed", type=_int_flag, default=0)
    p.add_argument("--ops", type=_int_flag, default=10000)
    p.add_argument("--mask-exp", type=_mask_exp, required=True)
    p.add_argument("--sentinel-weight", default="0.05")
    p.add_argument("--pool", type=_int_flag, default=None, help="key pool size (default 2x capacity)")
    p.add_argument("--growable", action="store_true", help="drive a growable map (start exponent 1)")
    p.add_argument("--trace-out", default="divergence.trace", help="minimized trace on divergence")
    p.add_argument("--emit-trace", default=None, help="write the generated trace to this path")
    p.add_argument("--dump-state", default=None, help="write the final map state to this path")

    p = sub.add_parser("replay", help="replay a trace file with full contract checking")
    p.add_argument("trace")
    p.add_argument("--growable", action="store_true", help="replay on a growable map, as fuzz --growable runs")

    p = sub.add_parser("bench", help="occupancy-factor benchmark")
    p.add_argument("--mask-exp", type=_mask_exp, required=True)
    p.add_argument("--levels", default="0.1,0.25,0.5,0.7,0.9")
    p.add_argument("--ops-per-level", type=_int_flag, default=2000)
    p.add_argument("--seed", type=_int_flag, default=0)
    p.add_argument("--growable", action="store_true")
    p.add_argument("--out", default=None, help="write the report as JSON to this path")

    p = sub.add_parser("check", help="check invariants of a serialized map state")
    p.add_argument("state")
    return parser


def _growable_factory(mask: int, default_entry) -> GrowableLongMap:
    # Fuzz traces drive the growable map from the smallest useful capacity so
    # growth events actually happen; the trace mask only sizes the key pool.
    return GrowableLongMap(1, default_entry)


def cmd_fuzz(args) -> int:
    try:
        cfg = FuzzConfig(
            seed=args.seed,
            op_count=args.ops,
            mask_exponent=args.mask_exp,
            key_pool_size=args.pool,
            sentinel_weight=_fraction(args.sentinel_weight, "--sentinel-weight"),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mask, ops = generate_trace(cfg)
    if args.emit_trace:
        Path(args.emit_trace).write_text(format_trace(mask, ops), encoding="ascii")

    kwargs = {"map_factory": _growable_factory} if args.growable else {}
    with contextlib.ExitStack() as files:
        # Output paths are opened before the work they record, so one that
        # cannot be opened costs no fuzzing or minimization.
        if args.dump_state:
            state_out = files.enter_context(open(args.dump_state, "w", encoding="ascii"))
        result = run_trace(ops, mask, shrink=False, **kwargs)

        print(f"seed {cfg.seed}")
        print(f"mask-exponent {cfg.mask_exponent}")
        print(f"mode {'growable' if args.growable else 'fixed'}")
        print(f"ops {result.ops_run}")
        counts = " ".join(f"{k}={result.counts.get(k, 0)}" for k in ("U", "R", "G", "C"))
        print(f"counts {counts}")
        print(f"equivalence-checks {result.equivalence_checks}")
        print(f"final-size {result.final_size}")
        if args.dump_state:
            state_out.write(dump_state(result.final_map))

        if result.divergence is None:
            print("result OK")
            return 0
        d = result.divergence
        print(f"result DIVERGENCE at op {d.op_index}: {d.message}")
        trace_out = files.enter_context(open(args.trace_out, "w", encoding="ascii"))
        minimized = _shrink_trace(ops[: d.op_index + 1], mask, **kwargs)
        trace_out.write(format_trace(mask, minimized))
        print(f"minimized {len(minimized)} ops -> {args.trace_out}")
        return 1


def cmd_replay(args) -> int:
    mask, ops = parse_trace(read_ascii(args.trace))
    result = run_trace(ops, mask, shrink=False, map_factory=_growable_factory if args.growable else None)
    print(f"ops {result.ops_run}")
    print(f"final-size {result.final_size}")
    if result.divergence is None:
        print("result OK")
        return 0
    d = result.divergence
    print(f"result VIOLATION at op {d.op_index}: {d.message}")
    return 1


def cmd_bench(args) -> int:
    try:
        report = run_bench(
            args.mask_exp,
            [_fraction(part, "--levels") for part in args.levels.split(",")],
            args.ops_per_level,
            seed=args.seed,
            growable=args.growable,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_bench(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(_bench_json(report), f, indent=2)
        print(f"report -> {args.out}")
    return 0


def _print_bench(report: BenchReport) -> None:
    print(f"capacity {report.capacity}  mode {report.mode}  ops-per-level {report.ops_per_level}")
    print(f"{'target':>8} {'achieved':>9} {'mean-probe':>11}")
    for lv in report.levels:
        print(f"{lv.target_occupancy:>8.3f} {lv.achieved_occupancy:>9.3f} {lv.mean_probe_length:>11.3f}")


def _bench_json(report: BenchReport) -> dict:
    doc = dataclasses.asdict(report)
    for lv in doc["levels"]:
        lv["probe_histogram"] = {str(k): v for k, v in sorted(lv["probe_histogram"].items())}
    return doc


def cmd_check(args) -> int:
    m = parse_state(read_ascii(args.state))
    report = check_invariant(m)
    print(f"simple_valid {str(report.simple_valid).lower()}")
    print(f"count_matches_size {str(report.count_matches_size).lower()}")
    print(f"all_keys_seekable {str(report.all_keys_seekable).lower()}")
    print(f"no_duplicates {str(report.no_duplicates).lower()}")
    if report.first_violation:
        print(f"violation {report.first_violation}")
    print(f"valid {str(report.valid).lower()}")
    return 0 if report.valid else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"fuzz": cmd_fuzz, "replay": cmd_replay, "bench": cmd_bench, "check": cmd_check}
    try:
        return command[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A file that cannot be read or written is bad input, not a violation.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
