"""Probe-loop semantics: both seek phases, the two public seeks, the 2048 cap."""

import random

import pytest

from longmap import (
    LONG_MIN,
    MAX_PROBES,
    Found,
    MissingVacant,
    MissingZero,
    Undefined,
    next_probe,
    seek_entry,
    seek_entry_or_open,
    to_index,
)
from longmap.core import FOUND, MISSING_VACANT, MISSING_ZERO, UNDEFINED, _probe

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


def test_phase_one_gives_up_on_single_foreign_slot():
    assert _probe(K, [K + 1], 0) == (UNDEFINED, -1, MAX_PROBES)


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


def test_phase_two_undefined_without_key_or_zero():
    assert _probe(K, [LONG_MIN, K + 1], 1) == (UNDEFINED, -1, MAX_PROBES)


def test_seek_entry_all_zero():
    keys = [0] * 16
    assert seek_entry(K, keys, 15) == MissingZero(to_index(K, 15))


def test_seek_entry_found_at_home_slot():
    keys = [0] * 16
    t = to_index(K, 15)
    keys[t] = K
    assert seek_entry(K, keys, 15) == Found(t)


def test_seek_entry_relabels_vacant_with_tombstone_index():
    # Tombstone at the home slot, 0 right after: the miss carries the
    # tombstone's index, which callers must not rely on.
    keys = [0] * 16
    t = to_index(K, 15)
    keys[t] = LONG_MIN
    assert next_probe(t, 1, 15) == (t + 1) & 15
    assert seek_entry(K, keys, 15) == MissingZero(t)


def test_seek_entry_or_open_all_zero():
    keys = [0] * 16
    assert seek_entry_or_open(K, keys, 15) == MissingZero(to_index(K, 15))


def test_seek_entry_or_open_remembers_first_tombstone():
    keys = [0] * 16
    t = to_index(K, 15)
    keys[t] = LONG_MIN
    assert seek_entry_or_open(K, keys, 15) == MissingVacant(t)


def test_seek_entry_or_open_finds_key_after_tombstone():
    keys = [0] * 16
    t = to_index(K, 15)
    nxt = next_probe(t, 1, 15)
    keys[t] = LONG_MIN
    keys[nxt] = K
    assert seek_entry_or_open(K, keys, 15) == Found(nxt)


def test_both_seeks_undefined_on_full_foreign_map():
    keys = [K + 1, K + 2]
    assert seek_entry(K, keys, 1) == Undefined()
    assert seek_entry_or_open(K, keys, 1) == Undefined()


def seek_entry_traced(k, keys, mask):
    """``seek_entry`` together with the iteration count ``_probe`` spent."""
    return seek_entry(k, keys, mask), _probe(k, keys, mask)[2]


def seek_entry_or_open_traced(k, keys, mask):
    """``seek_entry_or_open`` together with the iteration count ``_probe`` spent."""
    return seek_entry_or_open(k, keys, mask), _probe(k, keys, mask)[2]


@pytest.mark.parametrize("seek", [seek_entry_traced, seek_entry_or_open_traced])
def test_traced_iterations_hit_bound_exactly_on_undefined(seek):
    res, iters = seek(K, [K + 1], 0)
    assert res == Undefined()
    assert iters == MAX_PROBES


@pytest.mark.parametrize("seek", [seek_entry_traced, seek_entry_or_open_traced])
def test_traced_iterations_zero_for_home_slot_hit(seek):
    keys = [0] * 16
    t = to_index(K, 15)
    keys[t] = K
    res, iters = seek(K, keys, 15)
    assert res == Found(t)
    assert iters == 0


def test_counter_carries_across_phases():
    # One slot holding a tombstone: phase one stops there immediately, phase
    # two would re-examine it forever; the shared budget is reported spent.
    assert _probe(K, [LONG_MIN], 0) == (UNDEFINED, -1, MAX_PROBES)


@pytest.mark.parametrize("exp", range(12))
def test_first_capacity_probes_visit_every_slot_once(exp):
    # Below MAX_PROBES slots, probes past the first mask + 1 only revisit
    # slots, which is why _probe may stop there.
    mask = (1 << exp) - 1
    assert mask < MAX_PROBES
    e = 0
    offsets = [e]
    for x in range(1, mask + 1):
        e = next_probe(e, x, mask)
        offsets.append(e)
    assert sorted(offsets) == list(range(mask + 1))


def test_undefined_never_for_reachable_key():
    keys = [0] * 4
    t = to_index(K, 3)
    keys[t] = K
    for probe in (seek_entry, seek_entry_or_open):
        assert probe(K, keys, 3) == Found(t)


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


def test_probe_matches_two_phase_reference():
    rng = random.Random(2107)
    kinds = dict.fromkeys((FOUND, MISSING_ZERO, MISSING_VACANT, UNDEFINED), 0)
    seeks = 0
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
        present = [q for q in keys if q != 0 and q != LONG_MIN]
        probes = [0, LONG_MIN, pool[-1]]
        if present:
            probes.append(rng.choice(present))
        for k in probes:
            want = two_phase_probe(k, keys, mask)
            assert _probe(k, keys, mask) == want, (k, keys, mask)
            kind, i, _ = want
            kinds[kind] += 1
            seeks += 1
            relabeled = {
                FOUND: Found(i),
                MISSING_ZERO: MissingZero(i),
                MISSING_VACANT: MissingZero(i),
                UNDEFINED: Undefined(),
            }
            assert seek_entry(k, keys, mask) == relabeled[kind]
    assert seeks >= 30_000
    assert all(n >= 500 for n in kinds.values()), kinds
