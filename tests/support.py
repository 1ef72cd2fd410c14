"""Helpers that several test modules share: key pools that collide on one
probe path, growth watching, the hang guard, the two-phase reference probe
and criterion 6's corpus. Test modules import from here, never from each
other."""

import faulthandler
import random
from contextlib import contextmanager

import longmap.core as core
import longmap.growable as growable
from longmap import (
    LONG_MAX,
    LONG_MIN,
    MAX_PROBES,
    FixedLongMap,
    GrowableLongMap,
    is_valid_key,
    next_probe,
    snapshot_model,
    to_index,
)
from longmap.conformance import _rejection_violation
from longmap.core import FOUND, MISSING_VACANT, MISSING_ZERO, UNDEFINED

# 64 fixed keys: sentinels, boundary values, powers of two in both signs,
# all-ones patterns and assorted constants.
FIXED_KEYS = (
    [0, 1, -1, LONG_MIN, LONG_MAX]
    + [1 << i for i in (1, 2, 3, 4, 5, 7, 8, 13, 16, 21, 31, 32, 33, 42, 47, 52, 62)]
    + [-(1 << i) for i in (1, 2, 4, 8, 16, 31, 32, 48, 62)]
    + [(1 << i) - 1 for i in (4, 8, 16, 32, 33, 48)]
    + [-(1 << i) + 1 for i in (8, 16, 32, 63)]
    + [
        -1000003,
        7,
        -7,
        42,
        -42,
        123456789,
        -123456789,
        1000003,
        0x5DEECE66D,
        0x85EBCA6B,
        0xC2B2AE35,
        0x0123456789ABCDEF,
        -0x0123456789ABCDEF,
        0x7FFFFFFF00000001,
        -987654321987654321,
        4611686018427387907,
        -4611686018427387907,
        3141592653589793238,
        -2718281828459045235,
        0x4000000000000001,
        -0x4000000000000001,
        999999999999999989,
        -999999999999999989,
    ]
)


def colliding_keys(n, h=0x2545F491):
    """``n`` distinct keys ``(c << 32) | (h ^ c)``: ``to_index`` folds each to
    the 32-bit hash ``h`` first, so they share their home slot and whole
    probe path at every capacity and the n-th sits n - 1 probes deep."""
    return [(c << 32) | (h ^ c) for c in range(1, n + 1)]


def fill_colliding(n):
    """A growable map from mask 1 after ``update(k, k)`` of ``colliding_keys(n)``,
    and the keys it refused, each refusal checked against the probe budget.

    The capacity ceiling is patched to 2**18 for the call: without a bound on
    growth these keys would take the map to 2**30 slots, two 8 GiB arrays.
    """
    ceiling = growable.MAX_MASK_EXPONENT
    growable.MAX_MASK_EXPONENT = 18
    try:
        g = GrowableLongMap(1)
        refused = []
        for k in colliding_keys(n):
            if not g.update(k, k):
                assert _rejection_violation(g, "update", k) is None
                refused.append(k)
        assert snapshot_model(g).items() == tuple((k, k) for k in colliding_keys(n) if k not in refused)
        return g, refused
    finally:
        growable.MAX_MASK_EXPONENT = ceiling


def tombstone_free_capacity(n):
    """Smallest capacity, at least 2, whose half holds ``n`` keys."""
    c = 2
    while 2 * n > c:
        c *= 2
    return c


@contextmanager
def hang_guard(seconds=60):
    """End the whole run, exit status 1, if the block takes longer than
    ``seconds``: a defect that loops forever fails the run instead of
    stalling it. The stack dump goes to stderr, which pytest captures and
    loses on that exit; run with ``-s`` to see it."""
    faulthandler.dump_traceback_later(seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@contextmanager
def growth_watched(on_grow):
    """Wrap ``GrowableLongMap._rebuild`` for the length of the block so that
    every rebuild of any growable map, growing or in place, calls
    ``on_grow(old, new)`` with a copy of the map from before it and the map
    itself after it."""
    rebuild = GrowableLongMap._rebuild

    def watched(self, mask):
        old = FixedLongMap.unchecked(
            self.mask,
            self.keys,
            self.values,
            self.array_size,
            self.tombstones,
            self.extra_keys,
            self.zero_value,
            self.min_value,
            self.default_entry,
        )
        rebuild(self, mask)
        on_grow(old, self)

    GrowableLongMap._rebuild = watched
    try:
        yield
    finally:
        GrowableLongMap._rebuild = rebuild


def two_phase_probe(k, keys, mask):
    """The paper's seek, phase by phase, as (kind, index, iterations).

    seekKeyOrZeroOrMin walks from the home slot to the first slot holding
    ``k``, 0 or LONG_MIN; past a tombstone, seekKeyOrZeroReturnVacant walks
    on to ``k`` or 0 and remembers the tombstone. Both phases count against
    one MAX_PROBES budget.
    """
    x, e = 0, to_index(k, mask)
    while x < MAX_PROBES:
        q = keys[e]
        if q == k or q == 0 or q == LONG_MIN:
            break
        x += 1
        e = next_probe(e, x, mask)
    else:
        return UNDEFINED, -1, x
    if keys[e] == k:
        return FOUND, e, x
    if keys[e] == 0:
        return MISSING_ZERO, e, x
    vacant = e
    while x < MAX_PROBES:
        q = keys[e]
        if q == k:
            return FOUND, e, x
        if q == 0:
            return MISSING_VACANT, vacant, x
        x += 1
        e = next_probe(e, x, mask)
    return UNDEFINED, -1, x


def probe_violation(keys, mask, k):
    """Why ``core._probe`` is wrong for ``k`` on ``keys``, or None.

    Criterion 6's check: one call of the loop must equal the two-phase
    reference, the slot it names must hold ``k``, 0 or LONG_MIN as its
    kind says, and on any miss ``k`` must be absent from the array.
    """
    got = core._probe(k, keys, mask)  # through the module, for the auditor
    want = two_phase_probe(k, keys, mask)
    if got != want:
        return f"_probe({k}) = {got}, two-phase reference {want}"
    kind, i, _ = got
    held = {FOUND: k, MISSING_ZERO: 0, MISSING_VACANT: LONG_MIN}
    if kind in held and keys[i] != held[kind]:
        return f"_probe({k}) = {got} but slot {i} holds {keys[i]}"
    if kind != FOUND and k in keys:
        return f"_probe({k}) = {got} but the key is in the array"
    return None


def agreement_arrays(count):
    """The first ``count`` arrays of the criterion-6 corpus, each built
    through map ops and yielded as ``(map, keys to probe in it)``."""
    rng = random.Random(66066)
    for arrays in range(1, count + 1):
        mask = (1 << ((arrays - 1) % 7)) - 1
        m = FixedLongMap(mask)
        pool = []
        pool_set = set()
        while len(pool) < 2 * (mask + 1):
            k = rng.getrandbits(64) - (1 << 63)
            if is_valid_key(k) and k not in pool_set:
                pool_set.add(k)
                pool.append(k)
        for _ in range(min(2 * (mask + 1), 48)):
            k = pool[rng.randrange(len(pool))]
            if rng.random() < 0.6:
                m.update(k, rng.getrandbits(64) - (1 << 63))
            else:
                m.remove(k)
        probes = pool[: min(len(pool), 6)]
        while True:
            fresh = rng.getrandbits(64) - (1 << 63)
            if is_valid_key(fresh) and fresh not in pool_set:
                probes.append(fresh)
                break
        yield m, probes
