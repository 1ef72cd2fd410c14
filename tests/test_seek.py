"""Probe-loop semantics: both seek phases of the paper, the 2048 cap, and
agreement with the two-phase reference walk that criterion 6 checks the
loop against."""

import random

import pytest

from longmap import LONG_MIN, MAX_PROBES, FixedLongMap, next_probe, to_index
from longmap.core import FOUND, MAX_MASK_EXPONENT, MISSING_VACANT, MISSING_ZERO, UNDEFINED, _probe
from longmap.invariants import _probe_offsets
from support import two_phase_probe

K = 741776177  # arbitrary valid key


def test_phase_one_stops_at_first_zero():
    keys = [0] * 16
    start = to_index(K, 15)
    assert _probe(K, keys, 15) == (MISSING_ZERO, start, 0)


def test_phase_one_stops_at_key():
    keys = [0] * 16
    start = to_index(K, 15)
    keys[start] = K
    assert _probe(K, keys, 15) == (FOUND, start, 0)


def test_phase_two_immediate_zero_returns_vacant():
    keys = [0] * 16
    t = to_index(K, 15)
    keys[t] = LONG_MIN
    assert _probe(K, keys, 15) == (MISSING_VACANT, t, 1)


def test_phase_two_finds_key():
    keys = [0] * 16
    t = to_index(K, 15)
    nxt = next_probe(t, 1, 15)
    keys[t] = LONG_MIN
    keys[nxt] = K
    assert _probe(K, keys, 15) == (FOUND, nxt, 1)


# The paper's seekEntry (hit or miss) and seekEntryOrOpen (hit, or the slot
# an insert takes), both answered by the one loop.


def test_seek_entry_all_zero():
    # On an empty table every key misses at its home slot, at every capacity.
    for exp in range(12):
        mask = (1 << exp) - 1
        keys = [0] * (mask + 1)
        for k in (K, -K, 1, LONG_MIN + 1):
            assert _probe(k, keys, mask) == (MISSING_ZERO, to_index(k, mask), 0)


def test_seek_entry_found_at_home_slot():
    # A key in its home slot is found at once, however full the rest is.
    for exp in range(12):
        mask = (1 << exp) - 1
        keys = [K + 1] * (mask + 1)
        t = to_index(K, mask)
        keys[t] = K
        assert _probe(K, keys, mask) == (FOUND, t, 0)


def test_seek_entry_or_open_all_zero():
    # The open slot of an empty table is the home slot, and update fills it.
    m = FixedLongMap(15)
    assert m.update(K, 5)
    assert m.keys[to_index(K, 15)] == K
    assert m.array_size == 1


def test_seek_entry_or_open_remembers_first_tombstone():
    # Two tombstones before the 0: the open slot is the first of them.
    keys = [0] * 16
    t = to_index(K, 15)
    keys[t] = keys[next_probe(t, 1, 15)] = LONG_MIN
    assert _probe(K, keys, 15) == (MISSING_VACANT, t, 2)


def test_seek_entry_or_open_finds_key_after_tombstone():
    # Past a tombstone the second phase skips foreign keys too.
    keys = [0] * 16
    t = to_index(K, 15)
    second = next_probe(t, 1, 15)
    third = next_probe(second, 2, 15)
    keys[t], keys[second], keys[third] = LONG_MIN, K + 1, K
    assert _probe(K, keys, 15) == (FOUND, third, 2)


def test_counter_carries_across_phases():
    # No slot holds K or 0, so neither phase stops early: phase one walks
    # foreign slots, and past a tombstone phase two walks on, over a lone
    # tombstone again and again. The phases share one budget, reported spent.
    for keys in ([K + 1], [K + 1, K + 2], [LONG_MIN, K + 1], [LONG_MIN]):
        assert _probe(K, keys, len(keys) - 1) == (UNDEFINED, -1, MAX_PROBES), keys


@pytest.mark.parametrize("exp", range(MAX_MASK_EXPONENT + 1))
def test_first_capacity_probes_visit_every_slot_once(exp):
    # The first min(mask + 1, MAX_PROBES) probes are distinct, so below
    # MAX_PROBES slots they visit every slot: a walk that _probe's C-speed
    # refusal lets through meets its 0 or k within them, and MAX_PROBES is
    # the one bound the probe loop and the rebuild need.
    mask = (1 << exp) - 1
    n = min(mask + 1, MAX_PROBES)
    e = 0
    offsets = [e]
    for x in range(1, n):
        e = next_probe(e, x, mask)
        offsets.append(e)
    assert len(set(offsets)) == n
    assert len(_probe_offsets(mask)) == n


def test_undefined_never_for_reachable_key():
    # On a table with no 0 and no tombstone a stored key is found in any slot.
    for j in range(4):
        keys = [K + 1, K + 2, K + 3, K + 4]
        keys[j] = K
        kind, index, _ = _probe(K, keys, 3)
        assert (kind, index) == (FOUND, j)


def test_probe_matches_two_phase_reference():
    rng = random.Random(2107)
    kinds = dict.fromkeys((FOUND, MISSING_ZERO, MISSING_VACANT, UNDEFINED), 0)
    seeks = 0
    zero_free = 0  # arrays with no 0 slot, where every absent key is refused
    for _ in range(10_000):
        mask = (1 << rng.randrange(7)) - 1
        # pool[:-1] may fill slots; pool[-1] never does, so it is a foreign key.
        pool = [rng.getrandbits(64) - (1 << 63) for _ in range(mask + 2)]
        p_zero, p_tomb = rng.choice(((0.0, 0.3), (0.1, 0.3), (0.4, 0.2), (0.2, 0.0)))
        keys = []
        for _ in range(mask + 1):
            r = rng.random()
            if r < p_zero:
                keys.append(0)
            elif r < p_zero + p_tomb:
                keys.append(LONG_MIN)
            else:
                keys.append(pool[rng.randrange(mask + 1)])
        zero_free += 0 not in keys
        present = [q for q in keys if q != 0 and q != LONG_MIN]
        probes = [0, LONG_MIN, pool[-1]]
        if present:
            probes.append(rng.choice(present))
        for k in probes:
            want = two_phase_probe(k, keys, mask)
            assert _probe(k, keys, mask) == want, (k, keys, mask)
            kinds[want[0]] += 1
            seeks += 1
    assert seeks >= 30_000
    assert all(n >= 500 for n in kinds.values()), kinds
    assert zero_free >= 200
