"""Seeded defects for mutation testing of the differential checker.

Each mutant is the library's own source for one function with a small
textual edit (DeMillo, Lipton & Sayward, "Hints on test data selection",
1978). ``applied(mutant)`` compiles the edited source in the original's
module namespace and patches it over the original for the length of a
``with`` block, so the map under test runs the defect and nothing else
changes. An edit whose text no longer occurs in the source raises instead
of silently testing the unmutated code.
"""

from __future__ import annotations

import inspect
import re
import textwrap
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import longmap.core as core
import longmap.growable as growable


@dataclass(frozen=True)
class Mutant:
    name: str
    owner: object  # the module or class whose attribute is replaced
    attr: str
    edits: dict  # old text -> new text, all applied at once
    map_factory: Optional[Callable] = None
    default_entry: Callable[[int], int] = core.zero_entry


def _growable_from_one(mask, default_entry):
    return growable.GrowableLongMap(1, default_entry)


MUTANTS = (
    Mutant("remove-writes-zero", core.FixedLongMap, "remove", {"self.keys[i] = LONG_MIN": "self.keys[i] = 0"}),
    Mutant("size-not-decremented", core.FixedLongMap, "remove", {"self.array_size -= 1": "self.array_size -= 0"}),
    Mutant(
        "sentinel-bits-swapped",
        core.FixedLongMap,
        "update",
        {"self.extra_keys |= 1": "self.extra_keys |= 2", "self.extra_keys |= 2": "self.extra_keys |= 1"},
    ),
    Mutant(
        "get-ignores-default",
        core.FixedLongMap,
        "get",
        {"self.default_entry(key)": "0"},
        default_entry=lambda k: ~k,
    ),
    Mutant(
        "growth-drops-a-pair",
        growable.GrowableLongMap,
        "_rebuild",
        # Skips the first live pair the slot-order walk reaches.
        {
            "new = FixedLongMap(mask)": "dropped = False; new = FixedLongMap(mask)",
            "x = 0": "x = 0\n        if not dropped:\n            dropped = True\n            continue",
        },
        map_factory=_growable_from_one,
    ),
    Mutant("probe-step-off-by-one", core, "_probe", {"* x - 3)": "* x - 2)"}),
    Mutant("tombstone-not-counted", core.FixedLongMap, "remove", {"self.tombstones += 1": "self.tombstones += 0"}),
    Mutant(
        "rebuild-keeps-tombstones",
        growable.GrowableLongMap,
        "_rebuild",
        {"self.tombstones = 0": "self.tombstones = self.tombstones"},
        map_factory=_growable_from_one,
    ),
    Mutant(
        "rebuild-ignores-occupied-slots",
        growable.GrowableLongMap,
        "_rebuild",
        {"while keys[e]:": "while False:"},
        map_factory=_growable_from_one,
    ),
    Mutant(
        "rebuild-placement-budget-1",
        growable.GrowableLongMap,
        "_rebuild",
        {"if x == MAX_PROBES:": "if x == 1:"},
        map_factory=_growable_from_one,
    ),
    Mutant(
        "rebuild-mask-never-settles",
        growable.GrowableLongMap,
        "_rebuild_mask",
        {"return 2 * self.mask + 1 if can_grow else None": "return self.mask"},
        map_factory=_growable_from_one,
    ),
)

# Observable only where a probe path runs 2048 slots deep, which no fuzz
# trace of the corpus above reaches; keys sharing one hash do.
BUDGET_MUTANT = Mutant("probe-budget-2047", core, "_probe", {"while x < MAX_PROBES:": "while x < MAX_PROBES - 1:"})


def mutated(fn, edits: dict):
    """``fn`` recompiled from its source with every ``old -> new`` edit made."""
    src = textwrap.dedent(inspect.getsource(fn))
    for old in edits:
        if old not in src:
            raise LookupError(f"{fn.__qualname__} no longer contains {old!r}")
    pattern = "|".join(map(re.escape, edits))
    src = re.sub(pattern, lambda mo: edits[mo.group()], src)
    namespace: dict = {}
    exec(compile(src, f"<mutant of {fn.__qualname__}>", "exec"), fn.__globals__, namespace)
    return namespace[fn.__name__]


@contextmanager
def applied(mutant: Mutant):
    """Run the block with ``mutant`` patched over the original function."""
    original = vars(mutant.owner)[mutant.attr]
    setattr(mutant.owner, mutant.attr, mutated(original, mutant.edits))
    try:
        yield
    finally:
        setattr(mutant.owner, mutant.attr, original)
