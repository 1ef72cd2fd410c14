"""Executable class invariant for FixedLongMap, usable as a test oracle.

``check`` evaluates the shallow bookkeeping conditions plus three deep
conditions over the key array: the valid-key count matches the stored size,
every stored key is reachable by its own probe sequence, and no valid key is
duplicated. It accepts arbitrary (including corrupt) states and reports
rather than raises; full evaluation may cost O(n * MAX_PROBES), so gate it
behind debug paths in production code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import core
from .core import FOUND, LONG_MIN, is_valid_key, valid_mask


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


def _seekability_violation(keys, mask: int) -> Optional[int]:
    # Through the module attribute, so a wrapper patched over core._probe
    # sees these seeks too.
    for i, k in enumerate(keys):
        if k != 0 and k != LONG_MIN:
            kind, index, _ = core._probe(k, keys, mask)
            if (kind, index) != (FOUND, i):
                return i
    return None


def _duplicate_witness(a) -> Optional[tuple[int, int, int]]:
    first: dict[int, int] = {}
    for i in range(len(a)):
        k = a[i]
        if is_valid_key(k):
            if k in first:
                return k, first[k], i
            first[k] = i
    return None


def check(m) -> InvariantReport:
    """Evaluate the full invariant on ``m`` and report the first violation."""
    problems = []

    if not valid_mask(m.mask):
        problems.append(f"mask {m.mask} is not 2**n - 1 with n <= 30")
    if len(m.values) != m.mask + 1:
        problems.append(f"values length {len(m.values)} != mask + 1 = {m.mask + 1}")
    if len(m.keys) != len(m.values):
        problems.append(f"keys length {len(m.keys)} != values length {len(m.values)}")
    if m.array_size < 0:
        problems.append(f"array_size {m.array_size} < 0")
    if m.array_size > m.mask + 1:
        problems.append(f"array_size {m.array_size} > capacity {m.mask + 1}")
    if m.size < m.array_size:
        problems.append(f"size {m.size} < array_size {m.array_size}")
    if m.size != m.array_size + (m.extra_keys + 1) // 2:
        problems.append(f"size {m.size} inconsistent with array_size/extra_keys")
    if not 0 <= m.extra_keys <= 3:
        problems.append(f"extra_keys {m.extra_keys} outside 0..3")
    simple = not problems

    counted = count_valid_keys(m.keys)
    count_ok = counted == m.array_size
    if not count_ok:
        problems.append(f"counted {counted} valid keys but array_size is {m.array_size}")

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

    # Fewer distinct valid keys than valid slots means a duplicate; only
    # then is one looked for.
    distinct = set(m.keys)
    distinct.discard(0)
    distinct.discard(LONG_MIN)
    dup = None if len(distinct) == counted else _duplicate_witness(m.keys)
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
