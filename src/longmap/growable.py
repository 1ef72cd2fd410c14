"""Growth decorator over FixedLongMap.

Wraps a fixed-capacity map and transparently reallocates at the next
power-of-two capacity whenever an insert would push the in-array occupancy
past ``growth_threshold`` (or the inner map rejects the insert outright),
reinserting every stored pair into the fresh map. Sentinel keys 0 and
LONG_MIN live outside the array and never trigger growth. There is no
shrinking, and tombstone pressure alone does not trigger reallocation.
"""

from __future__ import annotations

from typing import Callable

from .core import MAX_MASK_EXPONENT, FixedLongMap, is_valid_key, live_pairs, zero_entry


class GrowableLongMap:
    """Same interface as FixedLongMap, minus the capacity ceiling (up to 2**30)."""

    __slots__ = ("inner", "growth_threshold", "growth_count")

    def __init__(
        self,
        mask: int = 1,
        default_entry: Callable[[int], int] = zero_entry,
        *,
        growth_threshold: float = 0.5,
    ):
        if not 0.0 < growth_threshold <= 1.0:
            raise ValueError(f"growth_threshold must be in (0, 1], got {growth_threshold}")
        self.inner = FixedLongMap(mask, default_entry)
        self.growth_threshold = growth_threshold
        self.growth_count = 0

    @property
    def mask(self) -> int:
        return self.inner.mask

    @property
    def capacity(self) -> int:
        return self.inner.capacity

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def is_empty(self) -> bool:
        return self.inner.is_empty

    @property
    def default_entry(self):
        return self.inner.default_entry

    def contains(self, key: int) -> bool:
        return self.inner.contains(key)

    def get(self, key: int) -> int:
        return self.inner.get(key)

    def remove(self, key: int) -> bool:
        return self.inner.remove(key)

    def update(self, key: int, value: int) -> bool:
        """Insert or overwrite, growing first if the slot budget demands it.

        Returns False only when the map is already at the 2**30 capacity
        ceiling and the maximal inner map rejects the insert.
        """
        if not is_valid_key(key):
            # Sentinels occupy no array slot.
            return self.inner.update(key, value)
        while self._would_overfill(key) and self._can_grow():
            self._grow()
        ok = self.inner.update(key, value)
        while not ok and self._can_grow():
            self._grow()
            ok = self.inner.update(key, value)
        return ok

    def _would_overfill(self, key: int) -> bool:
        """True iff inserting ``key`` would take occupancy past the threshold.

        Only at the threshold's edge does the answer depend on whether
        ``key`` is already stored, so only there is it probed for.
        """
        inner = self.inner
        n = inner.array_size
        limit = self.growth_threshold * inner.capacity
        return n + 1 > limit and (n > limit or not inner.contains(key))

    def _can_grow(self) -> bool:
        return self.inner.capacity < (1 << MAX_MASK_EXPONENT)

    def _grow(self) -> None:
        old = self.inner
        new = FixedLongMap(2 * (old.mask + 1) - 1, old.default_entry)
        # Ascending key order fixes the new layout independently of the old.
        for k, v in live_pairs(old):
            if not new.update(k, v):
                raise AssertionError(f"reinsert of {k} failed while growing")
        new.extra_keys = old.extra_keys
        new.zero_value = old.zero_value
        new.min_value = old.min_value
        self.inner = new
        self.growth_count += 1

    def __len__(self) -> int:
        return self.inner.size

    def __contains__(self, key: int) -> bool:
        return self.inner.contains(key)

    def __repr__(self) -> str:
        return f"GrowableLongMap(size={self.size}, capacity={self.capacity})"
