"""Executable class invariant for FixedLongMap, usable as a test oracle.

``check`` evaluates the shallow bookkeeping conditions plus three deep
conditions over the key array: the valid-key and tombstone counts match the
stored ``array_size`` and ``tombstones``, every stored key is reachable by
its own probe sequence (walked here, independently of ``core._probe``), and
no valid key is duplicated, which is looked for only when a key is
unseekable. It reports rather than raises on any state, corrupt ones too;
full evaluation may cost O(n * MAX_PROBES), so gate it behind debug paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import LONG_MIN, MAX_MASK_EXPONENT, MAX_PROBES, next_probe, to_index, valid_mask


@dataclass
class InvariantReport:
    simple_valid: bool
    count_matches_size: bool
    all_keys_seekable: bool
    no_duplicates: bool
    first_violation: Optional[str] = None

    @property
    def valid(self) -> bool:
        return (
            self.simple_valid
            and self.count_matches_size
            and self.all_keys_seekable
            and self.no_duplicates
        )


def count_valid_keys(a) -> int:
    """Number of valid keys (neither 0 nor LONG_MIN) in ``a``."""
    return len(a) - a.count(0) - a.count(LONG_MIN)


def first_slots(keys) -> dict[int, int]:
    """The live-key index of a key array: each valid key (neither 0 nor
    LONG_MIN) mapped to the first slot that holds it. Built from the end at
    C speed, so the first slot's entry overwrites the later ones."""
    index = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    index.pop(0, None)
    index.pop(LONG_MIN, None)
    return index


@lru_cache(maxsize=None)
def _probe_offsets(mask: int) -> tuple:
    """Distinct offsets from the home slot of the first MAX_PROBES probes.

    The probe step does not depend on the home slot, so the slots a key's
    probe budget covers are ``(to_index(k, mask) + d) & mask`` for these d.
    """
    e = 0
    offsets = [e]
    for x in range(1, MAX_PROBES):
        e = next_probe(e, x, mask)
        offsets.append(e)
    return tuple(dict.fromkeys(offsets))


def _stop_slot(keys, k: int, home: int, offsets) -> Optional[int]:
    """First slot holding ``k`` or 0 on its probe path from ``home`` through
    ``offsets`` (``_probe_offsets`` of the mask), or None when the budget runs out."""
    mask = len(keys) - 1
    for d in offsets:
        i = (home + d) & mask
        q = keys[i]
        if q == k or not q:
            return i
    return None


def _seekability_violation(keys, mask: int) -> Optional[int]:
    offsets = _probe_offsets(mask)
    for i, k in enumerate(keys):
        if k != 0 and k != LONG_MIN:
            home = to_index(k, mask)
            # The first offset is 0, so a key in its home slot stops there.
            if home != i and _stop_slot(keys, k, home, offsets) != i:
                return i
    return None


def _duplicate_witness(keys) -> Optional[tuple[int, int, int]]:
    """``(key, earlier slot, slot)`` for the first slot whose key an earlier slot holds, or None."""
    first = first_slots(keys)
    return next(((k, first[k], i) for i, k in enumerate(keys) if first.get(k, i) != i), None)


def check(m) -> InvariantReport:
    """Evaluate the full invariant on ``m`` and report the first violation."""
    problems = []

    if not valid_mask(m.mask):
        problems.append(f"mask {m.mask} is not 2**n - 1 with n <= {MAX_MASK_EXPONENT}")
    if len(m.values) != m.mask + 1:
        problems.append(f"values length {len(m.values)} != mask + 1 = {m.mask + 1}")
    if len(m.keys) != len(m.values):
        problems.append(f"keys length {len(m.keys)} != values length {len(m.values)}")
    if m.array_size < 0:
        problems.append(f"array_size {m.array_size} < 0")
    if m.array_size > m.mask + 1:
        problems.append(f"array_size {m.array_size} > capacity {m.mask + 1}")
    if not 0 <= m.extra_keys <= 3:
        problems.append(f"extra_keys {m.extra_keys} outside 0..3")
    simple = not problems

    counted = count_valid_keys(m.keys)
    tombstones = m.keys.count(LONG_MIN)
    count_ok = counted == m.array_size and tombstones == m.tombstones
    if counted != m.array_size:
        problems.append(f"counted {counted} valid keys but array_size is {m.array_size}")
    if tombstones != m.tombstones:
        problems.append(f"counted {tombstones} tombstones but tombstones is {m.tombstones}")

    # Probing indexes through `& mask`, so seekability is only evaluable on a
    # structurally sound array.
    structural = valid_mask(m.mask) and len(m.keys) == m.mask + 1
    if structural:
        bad = _seekability_violation(m.keys, m.mask)
        seek_ok = bad is None
        if not seek_ok:
            problems.append(f"key {m.keys[bad]} at index {bad} is not seekable")
    else:
        seek_ok = False
        problems.append("seekability not evaluable: mask/array structure invalid")

    # Every seekable key is at its own stop slot, and a key has one stop
    # slot, so a duplicate is looked for only when seekability fails.
    dup = None if seek_ok else _duplicate_witness(m.keys)
    dup_ok = dup is None
    if not dup_ok:
        k, i, j = dup
        problems.append(f"key {k} duplicated at indexes {i} and {j}")

    return InvariantReport(
        simple_valid=simple,
        count_matches_size=count_ok,
        all_keys_seekable=seek_ok,
        no_duplicates=dup_ok,
        first_violation=problems[0] if problems else None,
    )
