"""Occupancy-factor report for the map: probe lengths, nothing timed.

Fills a map to a sequence of increasing occupancy levels and, at each level,
draws the keys of a get/overwrite/remove mix and records the probe-length
distribution of their seeks (``core._probe``) on the filled table. No drawn
op is executed, so each level sees exactly the state its fill left, and the
report is a function of the flags and the seed. The twin model and invariant
checker are never involved here; wall-clock timing lives under
``benchmarks/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import LONG_MIN, MAX_MASK_EXPONENT, FixedLongMap, _probe
from .growable import GrowableLongMap


@dataclass
class LevelStats:
    target_occupancy: float
    achieved_occupancy: float
    measured_ops: int  # probed keys
    mean_probe_length: float
    probe_histogram: dict = field(default_factory=dict)  # probe length -> count


@dataclass
class BenchReport:
    capacity: int
    mode: str  # "fixed" | "growable"
    seed: int
    ops_per_level: int
    levels: list = field(default_factory=list)


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
    """Probe-length histogram and mean at each occupancy level.

    Levels are fractions of the starting capacity 2**mask_exponent and must
    be strictly increasing in [0, 1); fill keys and probed keys are drawn
    from the seed, so equal arguments give an equal report.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("at least one occupancy level required")
    if any(not 0.0 <= lv < 1.0 for lv in levels):
        raise ValueError("occupancy levels must lie in [0, 1)")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("occupancy levels must be strictly increasing")
    if not 0 <= mask_exponent <= MAX_MASK_EXPONENT:
        raise ValueError(f"mask_exponent outside 0..{MAX_MASK_EXPONENT}: {mask_exponent}")
    if ops_per_level <= 0:
        raise ValueError("ops_per_level must be positive")

    mask = (1 << mask_exponent) - 1
    base_capacity = mask + 1
    m = GrowableLongMap(mask) if growable else FixedLongMap(mask)

    rng = random.Random(seed)
    present: list[int] = []
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
            if not m.update(k, rng.getrandbits(64) - (1 << 63)):
                raise AssertionError(f"fill insert failed at occupancy {target}")
            taken.add(k)
            present.append(k)
        report.levels.append(_measure_level(m, target, present, taken, ops_per_level, rng))
    return report


def _measure_level(m, target: float, present: list, taken: set, ops_per_level: int, rng) -> LevelStats:
    def draw(hit: bool) -> int:
        if hit and present:
            return present[rng.randrange(len(present))]
        return _fresh_absent_key(rng, taken)

    # Per op a get, an overwrite of a present key and a remove; even ops get
    # and remove a present key, odd ones an absent key.
    probed = []
    for i in range(ops_per_level):
        probed.append(draw(i % 2 == 0))
        if present:
            probed.append(draw(True))
        probed.append(draw(i % 2 == 0))
    # One unused value draw per overwrite keeps each seed's keys those of earlier versions.
    for _ in range(ops_per_level if present else 0):
        rng.getrandbits(64)

    histogram: dict[int, int] = {}
    for k in probed:
        _, _, iters = _probe(k, m.keys, m.mask)
        histogram[iters + 1] = histogram.get(iters + 1, 0) + 1
    return LevelStats(
        target_occupancy=target,
        achieved_occupancy=m.array_size / m.capacity,
        measured_ops=len(probed),
        mean_probe_length=sum(n * c for n, c in histogram.items()) / len(probed),
        probe_histogram=histogram,
    )
