"""Probe-loop semantics: both seek phases of the paper, the 2048 cap, and
the two-phase reference walk that criterion 6 checks the loop against."""

import random

import pytest

import longmap.core as core
from longmap import LONG_MIN, MAX_PROBES, FixedLongMap, next_probe, to_index
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


def test_both_seeks_undefined_on_full_foreign_map():
    assert _probe(K, [K + 1, K + 2], 1) == (UNDEFINED, -1, MAX_PROBES)


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
    # On a table with no 0 and no tombstone a stored key is found in any slot.
    for j in range(4):
        keys = [K + 1, K + 2, K + 3, K + 4]
        keys[j] = K
        kind, index, _ = _probe(K, keys, 3)
        assert (kind, index) == (FOUND, j)


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
            kinds[want[0]] += 1
            seeks += 1
    assert seeks >= 30_000
    assert all(n >= 500 for n in kinds.values()), kinds
