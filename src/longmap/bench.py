"""Occupancy-factor benchmark for the map.

Fills a map to a sequence of increasing occupancy levels and, at each level,
times get/update/remove and records the probe-length distribution of the
underlying seeks. The map state is identical before and after each level's
measurements: timed updates overwrite present keys, and each timed removal
of a present key is undone immediately (the reinsert reclaims the exact
tombstone just created), so levels stay stationary and comparable. The twin
model and invariant checker are never involved here.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from .core import LONG_MIN, FixedLongMap, _probe
from .growable import GrowableLongMap


@dataclass
class LevelStats:
    target_occupancy: float
    achieved_occupancy: float
    measured_ops: int
    mean_probe_length: float
    probe_histogram: dict = field(default_factory=dict)  # probe length -> count
    latency_ns: dict = field(default_factory=dict)  # op -> {"median": .., "p99": ..}


@dataclass
class BenchReport:
    capacity: int
    mode: str  # "fixed" | "growable"
    seed: int
    ops_per_level: int
    levels: list = field(default_factory=list)


def _percentile99(samples: list) -> float:
    ordered = sorted(samples)
    return float(ordered[round(0.99 * (len(ordered) - 1))])


def _latency(samples: list) -> Optional[dict]:
    if not samples:
        return None
    return {"median": float(statistics.median(samples)), "p99": _percentile99(samples)}


def _fresh_absent_key(rng: random.Random, taken: set) -> int:
    while True:
        k = rng.getrandbits(64) - (1 << 63)
        if k != 0 and k != LONG_MIN and k not in taken:
            return k


def run_bench(
    mask_exponent: int,
    levels,
    ops_per_level: int,
    *,
    seed: int = 0,
    growable: bool = False,
) -> BenchReport:
    """Measure latency and probe lengths at each occupancy level.

    Levels are fractions of the starting capacity 2**mask_exponent and must
    be strictly increasing in [0, 1); key draws are deterministic from the
    seed, latencies are wall-clock.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("at least one occupancy level required")
    if any(not 0.0 <= lv < 1.0 for lv in levels):
        raise ValueError("occupancy levels must lie in [0, 1)")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("occupancy levels must be strictly increasing")
    if not 0 <= mask_exponent <= 30:
        raise ValueError(f"mask_exponent outside 0..30: {mask_exponent}")
    if ops_per_level <= 0:
        raise ValueError("ops_per_level must be positive")

    mask = (1 << mask_exponent) - 1
    base_capacity = mask + 1
    if growable:
        m = GrowableLongMap(mask)
    else:
        m = FixedLongMap(mask)

    rng = random.Random(seed)
    present: list[int] = []
    stored: dict[int, int] = {}
    taken: set = set()

    report = BenchReport(
        capacity=base_capacity,
        mode="growable" if growable else "fixed",
        seed=seed,
        ops_per_level=ops_per_level,
    )

    for target in levels:
        want = round(target * base_capacity)
        while len(present) < want:
            k = _fresh_absent_key(rng, taken)
            v = rng.getrandbits(64) - (1 << 63)
            if not m.update(k, v):
                raise AssertionError(f"fill insert failed at occupancy {target}")
            taken.add(k)
            present.append(k)
            stored[k] = v
        report.levels.append(
            _measure_level(m, target, present, stored, taken, ops_per_level, rng)
        )
    return report


def _measure_level(
    m, target: float, present: list, stored: dict, taken: set, ops_per_level: int, rng
) -> LevelStats:
    inner = getattr(m, "inner", m)

    def pick_present() -> Optional[int]:
        return present[rng.randrange(len(present))] if present else None

    get_keys = []
    update_keys = []
    remove_keys = []
    for i in range(ops_per_level):
        hit = pick_present() if i % 2 == 0 else None
        get_keys.append(hit if hit is not None else _fresh_absent_key(rng, taken))
        update_keys.append(pick_present())
        hit = pick_present() if i % 2 == 0 else None
        remove_keys.append((hit, True) if hit is not None else (_fresh_absent_key(rng, taken), False))
    update_keys = [k for k in update_keys if k is not None]
    update_values = [rng.getrandbits(64) - (1 << 63) for _ in update_keys]

    perf = time.perf_counter_ns
    get_ns = []
    for k in get_keys:
        t0 = perf()
        m.get(k)
        get_ns.append(perf() - t0)

    update_ns = []
    for k, v in zip(update_keys, update_values):
        t0 = perf()
        m.update(k, v)
        update_ns.append(perf() - t0)
        stored[k] = v

    remove_ns = []
    for k, was_present in remove_keys:
        t0 = perf()
        m.remove(k)
        remove_ns.append(perf() - t0)
        if was_present:
            # Undo outside the timed window; the reinsert reclaims the
            # tombstone the removal just left, restoring the exact layout.
            m.update(k, stored[k])

    histogram: dict[int, int] = {}
    probes_total = 0
    measured = 0
    keys_arr, msk = inner.keys, inner.mask
    for k in get_keys + update_keys + [k for k, _ in remove_keys]:
        _, _, iters = _probe(k, keys_arr, msk)
        histogram[iters + 1] = histogram.get(iters + 1, 0) + 1
        probes_total += iters + 1
        measured += 1

    latency = {"get": _latency(get_ns), "update": _latency(update_ns), "remove": _latency(remove_ns)}
    return LevelStats(
        target_occupancy=target,
        achieved_occupancy=inner.array_size / inner.capacity,
        measured_ops=measured,
        mean_probe_length=probes_total / measured if measured else 0.0,
        probe_histogram=histogram,
        latency_ns=latency,
    )
