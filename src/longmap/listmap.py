"""Strictly-ordered association-list map: the reference model.

Entries are kept as a tuple of (key, value) pairs with keys strictly
increasing under signed 64-bit order, so structural equality coincides with
map equality. Operations return new maps; instances are never mutated.

Deliberately simple rather than fast: this is the paper's specification,
whose lemmas the tests check; the checker's twin is a dict.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Any, Optional

_key_of = itemgetter(0)


class ListMap:
    """Immutable map with 64-bit int keys and opaque equatable values."""

    __slots__ = ("_entries",)

    def __init__(self, pairs=()):
        entries: tuple = ()
        for k, v in pairs:
            entries = _insert(entries, k, v)
        self._entries = entries

    @classmethod
    def empty(cls) -> "ListMap":
        return _EMPTY

    @classmethod
    def _from_sorted(cls, entries: tuple) -> "ListMap":
        # Trusted constructor: entries must already be strictly key-ascending.
        m = object.__new__(cls)
        m._entries = entries
        return m

    def insert(self, key: int, value: Any) -> "ListMap":
        """New map with key -> value added or replaced."""
        return ListMap._from_sorted(_insert(self._entries, key, value))

    def remove(self, key: int) -> "ListMap":
        """New map without ``key``; equal to self when the key is absent."""
        entries = self._entries
        i = bisect_left(entries, key, key=_key_of)
        if i < len(entries) and entries[i][0] == key:
            return ListMap._from_sorted(entries[:i] + entries[i + 1 :])
        return self

    def contains(self, key: int) -> bool:
        entries = self._entries
        i = bisect_left(entries, key, key=_key_of)
        return i < len(entries) and entries[i][0] == key

    def get(self, key: int) -> Optional[Any]:
        entries = self._entries
        i = bisect_left(entries, key, key=_key_of)
        if i < len(entries) and entries[i][0] == key:
            return entries[i][1]
        return None

    def apply(self, key: int) -> Any:
        """Value for a key that must be present."""
        entries = self._entries
        i = bisect_left(entries, key, key=_key_of)
        if i < len(entries) and entries[i][0] == key:
            return entries[i][1]
        raise KeyError(key)

    def items(self) -> tuple:
        return self._entries

    def keys(self) -> tuple:
        return tuple(k for k, _ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ListMap):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"ListMap({list(self._entries)!r})"


def _insert(entries: tuple, key: int, value: Any) -> tuple:
    i = bisect_left(entries, key, key=_key_of)
    if i < len(entries) and entries[i][0] == key:
        return entries[:i] + ((key, value),) + entries[i + 1 :]
    return entries[:i] + ((key, value),) + entries[i:]


_EMPTY = ListMap()
