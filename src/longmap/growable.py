"""A FixedLongMap that rebuilds its own arrays: the rule for when, and how.

Every insert runs ``FixedLongMap.update``, which asks ``_rebuild_mask``.
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

from .core import (
    MAX_MASK_EXPONENT,
    MISSING_VACANT,
    MISSING_ZERO,
    UNDEFINED,
    FixedLongMap,
    live_pairs,
    zero_entry,
)

# An insert that no probe budget admits doubles the map only while this
# multiple of the live keys plus the new one exceeds the threshold, that is
# while capacity is below this multiple of what those keys need. Keys sharing
# one 32-bit hash share their probe path at every capacity: growth cannot help.
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

    def _rebuild_mask(self, kind: int) -> int | None:
        """The mask to rebuild at before inserting a ``kind`` key, or None to
        go ahead. So ``update`` refuses (returns False, map unchanged) only a
        key whose probe budget holds neither it nor a free slot, on a table
        without tombstones whose capacity has reached the 2**30 ceiling or
        ``REJECTION_GROWTH_LIMIT`` times what its live keys need.
        """
        capacity = self.mask + 1
        limit = self.growth_threshold * capacity
        if kind == MISSING_VACANT or (
            kind == MISSING_ZERO and self.array_size + self.tombstones + 1 <= limit
        ):
            return None
        can_grow = capacity < (1 << MAX_MASK_EXPONENT)
        if kind == UNDEFINED:
            if self.tombstones:
                return self.mask
            if can_grow and REJECTION_GROWTH_LIMIT * (self.array_size + 1) > limit:
                return 2 * self.mask + 1
            return None
        # Scala's LongMap repacks in place only when tombstones are more than
        # a fifth of the table; with fewer, a map whose live keys sit just
        # under the threshold would repack every few inserts.
        if self.array_size + 1 <= limit and 5 * self.tombstones > capacity:
            return self.mask
        # At the ceiling: past the threshold, as a fixed map would.
        return 2 * self.mask + 1 if can_grow else None

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
