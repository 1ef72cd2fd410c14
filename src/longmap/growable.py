"""A FixedLongMap that rebuilds its own arrays.

Live keys and tombstones both use up slots. When an insert into a 0 slot
would take the used slots past ``growth_threshold`` of the capacity, the map
rebuilds, reinserting every live pair into fresh arrays: at double the
capacity when the live keys alone would pass the threshold or tombstones
make up at most a fifth of the table, else at the same capacity, which only
clears the tombstones. An insert that reuses a tombstone never rebuilds.
An insert that its probe budget cannot place repacks in place when there
are tombstones and otherwise doubles only within ``REJECTION_GROWTH_LIMIT``.
Sentinel keys 0 and LONG_MIN live outside the array and never trigger a
rebuild. There is no shrinking.
"""

from __future__ import annotations

from typing import Callable

from . import core
from .core import (
    FOUND,
    LONG_MIN,
    MAX_MASK_EXPONENT,
    MISSING_VACANT,
    MISSING_ZERO,
    FixedLongMap,
    live_pairs,
    zero_entry,
)

# An insert that no probe budget admits doubles the map only while its
# capacity is below this multiple of the smallest one whose threshold holds
# the live keys plus the new one. Keys sharing one 32-bit hash share their
# probe path at every capacity, so for them growth gains nothing.
REJECTION_GROWTH_LIMIT = 2


class GrowableLongMap(FixedLongMap):
    """FixedLongMap minus the capacity ceiling (up to 2**30)."""

    __slots__ = ("growth_threshold", "growth_count")

    def __init__(
        self,
        mask: int = 1,
        default_entry: Callable[[int], int] = zero_entry,
        *,
        growth_threshold: float = 0.5,
    ):
        if not 0.0 < growth_threshold <= 1.0:
            raise ValueError(f"growth_threshold must be in (0, 1], got {growth_threshold}")
        FixedLongMap.__init__(self, mask, default_entry)
        self.growth_threshold = growth_threshold
        self.growth_count = 0

    def update(self, key: int, value: int) -> bool:
        """Insert or overwrite, rebuilding first if the slot budget demands it.

        Returns False, leaving the map unchanged, only when the key's probe
        budget holds neither the key nor a free slot on a table without
        tombstones whose capacity has reached the 2**30 ceiling or
        ``REJECTION_GROWTH_LIMIT`` times what its live keys need.
        """
        if key == 0 or key == LONG_MIN:
            # Sentinels occupy no array slot.
            return FixedLongMap.update(self, key, value)
        while True:
            # Through the module attribute, as FixedLongMap's own ops look
            # it up, so a wrapper patched over core._probe sees these too.
            kind, i, _ = core._probe(key, self.keys, self.mask)
            if kind == FOUND:
                self.values[i] = value
                return True
            capacity = self.mask + 1
            limit = self.growth_threshold * capacity
            if kind == MISSING_VACANT or (
                kind == MISSING_ZERO and self.array_size + self.tombstones + 1 <= limit
            ):
                self._fill(kind, i, key, value)
                return True
            if kind == MISSING_ZERO:
                # Scala's LongMap repacks in place only when tombstones are
                # more than a fifth of the table; with fewer, a map whose live
                # keys sit just under the threshold would repack every few
                # inserts.
                if self.array_size + 1 <= limit and 5 * self.tombstones > capacity:
                    self._rebuild(self.mask)
                elif self._can_grow():
                    self._rebuild(2 * self.mask + 1)
                else:  # at the ceiling: past the threshold, as a fixed map would
                    self._fill(kind, i, key, value)
                    return True
            elif self.tombstones:
                self._rebuild(self.mask)
            elif self._can_grow() and capacity < REJECTION_GROWTH_LIMIT * self._needed_capacity():
                self._rebuild(2 * self.mask + 1)
            else:
                return False

    def _needed_capacity(self) -> int:
        """Smallest capacity whose threshold holds the live keys plus one."""
        c = 1
        while self.array_size + 1 > self.growth_threshold * c:
            c *= 2
        return c

    def _can_grow(self) -> bool:
        return self.capacity < (1 << MAX_MASK_EXPONENT)

    def _rebuild(self, mask: int) -> None:
        """Move the live pairs into fresh arrays of ``mask + 1`` slots."""
        new = FixedLongMap(mask)
        # Ascending key order fixes the new layout independently of the old.
        for k, v in live_pairs(self):
            if not new.update(k, v):
                raise AssertionError(f"reinsert of {k} failed while rebuilding")
        if mask != self.mask:
            self.growth_count += 1
        self.mask, self.keys, self.values = new.mask, new.keys, new.values
        self.tombstones = 0
