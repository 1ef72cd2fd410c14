"""Fixed-capacity open-addressing hash map for 64-bit signed integer keys.

Keys and values are signed 64-bit integers. The backing arrays have a
power-of-two length ``mask + 1`` (at most 2**30); collisions are resolved by
quadratic probing. Two key values are unrepresentable in the key array
because they mark slot states: 0 means "never used" and LONG_MIN marks a
tombstone (a slot whose key was removed). Mappings for the keys 0 and
LONG_MIN therefore live in side fields (``extra_keys`` bits 0/1 plus
``zero_value`` / ``min_value``). The map counts its tombstones in
``tombstones``.

The probe loop gives up after ``MAX_PROBES`` slot inspections and reports
UNDEFINED; ``update`` surfaces this as a ``False`` return instead of
looping forever on a map with no reachable free slot.

``FixedLongMap.update`` is the one insert: before storing a new key it asks
``_rebuild_mask`` whether to rebuild, and only ``GrowableLongMap`` says yes.
"""

from __future__ import annotations

from array import array
from typing import Callable

LONG_MIN = -(1 << 63)
LONG_MAX = (1 << 63) - 1

MAX_MASK_EXPONENT = 30
MAX_MASK = (1 << MAX_MASK_EXPONENT) - 1

# Probe-loop iteration cap; reaching it yields UNDEFINED.
MAX_PROBES = 2048

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1


def zero_entry(key: int) -> int:
    """Default entry used by the test harness: every absent key maps to 0."""
    return 0


def valid_mask(mask: int) -> bool:
    """True iff mask == 2**n - 1 for some 0 <= n <= 30."""
    return 0 <= mask <= MAX_MASK and (mask & (mask + 1)) == 0


def is_valid_key(key: int) -> bool:
    """True iff ``key`` may be stored in the key array (not 0, not LONG_MIN)."""
    return key != 0 and key != LONG_MIN


def to_index(key: int, mask: int) -> int:
    """Hash a 64-bit key to a slot index in [0, mask].

    All shifts are logical and all 32-bit arithmetic wraps modulo 2**32.
    """
    k = key & _U64
    h = (k ^ (k >> 32)) & _U32
    x = ((h ^ (h >> 16)) * 0x85EBCA6B) & _U32
    return (x ^ (x >> 13)) & mask


def live_pairs(m) -> list:
    """Ascending ``(key, value)`` pairs of the slots holding neither 0 nor LONG_MIN.

    Growth reinserts them in this order; the checker compares them with the model.
    """
    return sorted((k, v) for k, v in zip(m.keys, m.values) if k != 0 and k != LONG_MIN)


def next_probe(e: int, x: int, mask: int) -> int:
    """Next slot after ``e`` on probe iteration ``x`` (caller pre-increments x)."""
    # mask + 1 divides 2**32, so masking directly matches 32-bit wraparound.
    return (e + 2 * (x + 1) * x - 3) & mask


# Probe outcomes as small ints, the kinds ``_probe`` returns.
FOUND, MISSING_ZERO, MISSING_VACANT, UNDEFINED = range(4)


def _probe(k: int, keys, mask: int) -> tuple[int, int, int]:
    """The probe loop: ``(kind, index, iterations)`` for key ``k``.

    Walks the probe sequence from ``to_index(k, mask)`` until a slot holds
    ``k`` (FOUND at it) or 0. A 0 slot yields MISSING_ZERO at that slot when
    no tombstone was crossed, else MISSING_VACANT at the first tombstone, the
    slot an insert of ``k`` reuses. After ``MAX_PROBES`` iterations without
    either it yields UNDEFINED with index -1 and ``MAX_PROBES`` iterations.
    The paper's two seek phases (up to the first tombstone, then past it)
    share this one loop and its iteration budget.
    """
    e = to_index(k, mask)
    vacant = -1
    x = 0
    # Below MAX_PROBES slots the first mask + 1 probes visit every slot once
    # and later ones only revisit them, so stopping there changes no outcome.
    limit = mask + 1 if mask < MAX_PROBES else MAX_PROBES
    while x < limit:
        q = keys[e]
        if q == k:
            return FOUND, e, x
        if not q:  # a never-used slot; cheaper than q == 0 on 64-bit values
            if vacant < 0:
                return MISSING_ZERO, e, x
            return MISSING_VACANT, vacant, x
        if vacant < 0 and q == LONG_MIN:
            vacant = e
        x += 1
        e = (e + 2 * (x + 1) * x - 3) & mask
    return UNDEFINED, -1, MAX_PROBES


class FixedLongMap:
    """Mutable fixed-capacity map from 64-bit int keys to 64-bit int values.

    ``default_entry`` is fixed at construction and returned by ``get`` for
    absent keys. Single-owner mutable state: no internal synchronization.
    """

    __slots__ = (
        "mask",
        "keys",
        "values",
        "array_size",
        "tombstones",
        "extra_keys",
        "zero_value",
        "min_value",
        "default_entry",
    )

    def __init__(self, mask: int, default_entry: Callable[[int], int] = zero_entry):
        if not valid_mask(mask):
            raise ValueError(
                f"mask must be 2**n - 1 with 0 <= n <= {MAX_MASK_EXPONENT}, got {mask}"
            )
        self.mask = mask
        self.keys = array("q", bytes(8 * (mask + 1)))
        self.values = array("q", bytes(8 * (mask + 1)))
        self.array_size = 0
        self.tombstones = 0
        self.extra_keys = 0
        self.zero_value = 0
        self.min_value = 0
        self.default_entry = default_entry

    @classmethod
    def unchecked(
        cls,
        mask: int,
        keys,
        values,
        array_size: int,
        tombstones: int,
        extra_keys: int,
        zero_value: int,
        min_value: int,
        default_entry: Callable[[int], int] = zero_entry,
    ) -> "FixedLongMap":
        """Assemble a map from raw parts without validation.

        For loading serialized states and building corrupt fixtures; the
        invariant checker is the judge of what comes out.
        """
        m = object.__new__(cls)
        m.mask = mask
        m.keys = array("q", keys)
        m.values = array("q", values)
        m.array_size = array_size
        m.tombstones = tombstones
        m.extra_keys = extra_keys
        m.zero_value = zero_value
        m.min_value = min_value
        m.default_entry = default_entry
        return m

    @property
    def capacity(self) -> int:
        return self.mask + 1

    @property
    def size(self) -> int:
        return self.array_size + (self.extra_keys + 1) // 2

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def contains(self, key: int) -> bool:
        if key == 0 or key == LONG_MIN:
            return (self.extra_keys & (1 if key == 0 else 2)) != 0
        return _probe(key, self.keys, self.mask)[0] == FOUND

    def get(self, key: int) -> int:
        """Value mapped to ``key``, or ``default_entry(key)`` when absent."""
        if key == 0 or key == LONG_MIN:
            if (self.extra_keys & (1 if key == 0 else 2)) == 0:
                return self.default_entry(key)
            return self.zero_value if key == 0 else self.min_value
        kind, i, _ = _probe(key, self.keys, self.mask)
        if kind == FOUND:
            return self.values[i]
        return self.default_entry(key)

    def update(self, key: int, value: int) -> bool:
        """Insert or overwrite ``key -> value``.

        Returns False (leaving the map unchanged) only when the probe budget
        runs out without finding the key or a free slot and ``_rebuild_mask``
        asks for no rebuild. A key or value array('q') cannot hold raises.
        """
        if key == 0 or key == LONG_MIN:
            # Held to what the value array can hold: raises as the array
            # path does, before anything is stored.
            value = array("q", (value,))[0]
            if key == 0:
                self.zero_value = value
                self.extra_keys |= 1
            else:
                self.min_value = value
                self.extra_keys |= 2
            return True
        while True:
            kind, i, _ = _probe(key, self.keys, self.mask)
            if kind == FOUND:
                self.values[i] = value
                return True
            mask = self._rebuild_mask(kind)
            if mask is None:
                break
            array("q", (key, value))  # raises as the store would, before the rebuild
            self._rebuild(mask)
        if kind == UNDEFINED:
            return False
        keys = self.keys
        keys[i] = key
        try:
            self.values[i] = value
        except (OverflowError, TypeError):
            keys[i] = 0 if kind == MISSING_ZERO else LONG_MIN
            raise
        self.array_size += 1
        if kind == MISSING_VACANT:
            self.tombstones -= 1
        return True

    def _rebuild_mask(self, kind: int) -> int | None:
        """The mask to rebuild at before inserting a key ``_probe`` reported
        as ``kind`` (not FOUND), or None to go ahead. A fixed map never does."""
        return None

    def remove(self, key: int) -> bool:
        """Remove ``key`` if present; removing an absent key is a no-op.

        Returns False only when the probe budget runs out, in which case the
        map is unchanged.
        """
        if key == 0 or key == LONG_MIN:
            if key == 0:
                self.extra_keys &= 2
                self.zero_value = 0
            else:
                self.extra_keys &= 1
                self.min_value = 0
            return True
        kind, i, _ = _probe(key, self.keys, self.mask)
        if kind == FOUND:
            # Tombstone the slot; the value reset keeps state dumps
            # deterministic but is not observable through the interface.
            self.keys[i] = LONG_MIN
            self.values[i] = 0
            self.array_size -= 1
            self.tombstones += 1
            return True
        return kind != UNDEFINED

    def __len__(self) -> int:
        return self.size

    def __contains__(self, key: int) -> bool:
        return self.contains(key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self.size}, capacity={self.capacity})"
