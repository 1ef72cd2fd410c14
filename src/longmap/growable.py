"""A FixedLongMap that rebuilds its own arrays: the rule for when, and how.

Every insert runs ``FixedLongMap.update``, which asks ``_rebuild_mask``.
Live keys and tombstones both use up slots. An insert into a 0 slot that
would take them past half the capacity, Scala's fixed threshold, rebuilds
the map. As Scala's ``repack`` does, it walks the old arrays by index and
puts each live pair, in that slot order, into the first 0 slot of its probe
path in fresh arrays: at double the capacity when the live keys alone would
pass half or tombstones make up at most a fifth of the table, else at the
same capacity, which only clears the tombstones. The new layout depends on
the old one and, for a given trace, is deterministic. An insert that reuses
a tombstone never rebuilds. An insert that its probe budget cannot place
repacks in place when there are tombstones and otherwise doubles only
within ``REJECTION_GROWTH_LIMIT``. Sentinel keys 0 and LONG_MIN live
outside the array and never trigger a rebuild. There is no shrinking.
"""

from __future__ import annotations

from typing import Callable

from .core import (
    LONG_MIN,
    MAX_MASK_EXPONENT,
    MAX_PROBES,
    MISSING_VACANT,
    MISSING_ZERO,
    UNDEFINED,
    FixedLongMap,
    next_probe,
    to_index,
    zero_entry,
)

# An insert that no probe budget admits doubles the map only while capacity
# is below this multiple of what the live keys plus the new one need. Keys on
# one 32-bit hash share their probe path at every capacity: growth can't help.
REJECTION_GROWTH_LIMIT = 2


class GrowableLongMap(FixedLongMap):
    """FixedLongMap minus the capacity ceiling (up to 2**30)."""

    __slots__ = ("growth_count",)

    def __init__(self, mask: int = 1, default_entry: Callable[[int], int] = zero_entry):
        FixedLongMap.__init__(self, mask, default_entry)
        self.growth_count = 0

    def _rebuild_mask(self, kind: int) -> int | None:
        """The mask to rebuild at before inserting a ``kind`` key, or None to
        go ahead. So ``update`` refuses (returns False, map unchanged) only a
        key whose probe budget holds neither it nor a free slot, on a table
        without tombstones whose capacity has reached the 2**30 ceiling or
        ``REJECTION_GROWTH_LIMIT`` times what its live keys need at half load.
        Each rule compares twice a slot count with the capacity, in integers.
        """
        capacity = self.mask + 1
        if kind == MISSING_VACANT or (
            kind == MISSING_ZERO and 2 * (self.array_size + self.tombstones + 1) <= capacity
        ):
            return None
        can_grow = capacity < (1 << MAX_MASK_EXPONENT)
        if kind == UNDEFINED:
            if self.tombstones:
                return self.mask
            if can_grow and 2 * REJECTION_GROWTH_LIMIT * (self.array_size + 1) > capacity:
                return 2 * self.mask + 1
            return None
        # Scala's LongMap repacks in place only when tombstones are more than
        # a fifth of the table; with fewer, a map whose live keys sit just
        # under half the table would repack every few inserts.
        if 2 * (self.array_size + 1) <= capacity and 5 * self.tombstones > capacity:
            return self.mask
        # At the ceiling: past half the table, as a fixed map would.
        return 2 * self.mask + 1 if can_grow else None

    def _rebuild(self, mask: int) -> None:
        """Move the live pairs, in old slot order, into fresh arrays of ``mask + 1``
        slots, each key to the first 0 slot of its probe path, within ``_probe``'s budget."""
        new = FixedLongMap(mask)
        keys, values = new.keys, new.values
        for k, v in zip(self.keys, self.values):
            if k == 0 or k == LONG_MIN:
                continue
            e = to_index(k, mask)
            x = 0
            while keys[e]:
                x += 1
                if x == MAX_PROBES:
                    raise AssertionError(f"reinsert of {k} failed while rebuilding")
                e = next_probe(e, x, mask)
            keys[e] = k
            values[e] = v
        if mask != self.mask:
            self.growth_count += 1
        self.mask, self.keys, self.values = mask, keys, values
        self.tombstones = 0
