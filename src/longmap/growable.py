"""A FixedLongMap that reallocates its own arrays.

Whenever an insert would push the in-array occupancy past
``growth_threshold`` (or the fixed-capacity insert rejects it outright), the
map moves to the next power-of-two capacity, reinserting every stored pair
into fresh arrays. Sentinel keys 0 and LONG_MIN live outside the array and
never trigger growth. There is no shrinking, and tombstone pressure alone
does not trigger reallocation.
"""

from __future__ import annotations

from typing import Callable

from .core import MAX_MASK_EXPONENT, FixedLongMap, is_valid_key, live_pairs, zero_entry


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
        """Insert or overwrite, growing first if the slot budget demands it.

        Returns False only when the map is already at the 2**30 capacity
        ceiling and the maximal table rejects the insert.
        """
        if not is_valid_key(key):
            # Sentinels occupy no array slot.
            return FixedLongMap.update(self, key, value)
        while self._would_overfill(key) and self._can_grow():
            self._grow()
        ok = FixedLongMap.update(self, key, value)
        while not ok and self._can_grow():
            self._grow()
            ok = FixedLongMap.update(self, key, value)
        return ok

    def _would_overfill(self, key: int) -> bool:
        """True iff inserting ``key`` would take occupancy past the threshold.

        Only at the threshold's edge does the answer depend on whether
        ``key`` is already stored, so only there is it probed for.
        """
        n = self.array_size
        limit = self.growth_threshold * self.capacity
        return n + 1 > limit and (n > limit or not self.contains(key))

    def _can_grow(self) -> bool:
        return self.capacity < (1 << MAX_MASK_EXPONENT)

    def _grow(self) -> None:
        new = FixedLongMap(2 * self.mask + 1)
        # Ascending key order fixes the new layout independently of the old.
        for k, v in live_pairs(self):
            if not new.update(k, v):
                raise AssertionError(f"reinsert of {k} failed while growing")
        self.mask, self.keys, self.values = new.mask, new.keys, new.values
        self.growth_count += 1
