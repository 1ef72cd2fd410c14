"""Invariant checker: helper recursions, the report, corruption detection."""

import random
from array import array

from hypothesis import given, strategies as st

from longmap import (
    LONG_MIN,
    MAX_MASK_EXPONENT,
    MAX_PROBES,
    FixedLongMap,
    is_valid_key,
    next_probe,
    to_index,
    valid_mask,
)
from longmap.core import FOUND, _probe
from longmap.invariants import InvariantReport, check, count_valid_keys


def test_is_valid_key():
    assert not is_valid_key(0)
    assert not is_valid_key(LONG_MIN)
    assert is_valid_key(1)
    assert is_valid_key(-1)


def test_count_valid_keys():
    assert count_valid_keys([0, 0, 0]) == 0
    assert count_valid_keys([0, 7, LONG_MIN, 3]) == 2
    assert count_valid_keys(array("q", [LONG_MIN, 3])) == 1


keys_arrays = st.lists(
    st.one_of(st.just(0), st.just(LONG_MIN), st.integers(-(10**6), 10**6)),
    max_size=24,
)


@given(keys_arrays, st.data())
def test_count_is_additive_over_splits(a, data):
    mid = data.draw(st.integers(min_value=0, max_value=len(a)))
    assert count_valid_keys(a) == count_valid_keys(a[:mid]) + count_valid_keys(a[mid:])


def seekable(keys, mask):
    """The invariant's seekability verdict on a map holding ``keys``."""
    m = FixedLongMap.unchecked(mask, keys, [0] * len(keys), count_valid_keys(keys), keys.count(LONG_MIN), 0, 0, 0)
    return check(m).all_keys_seekable


def test_all_keys_seekable_vacuous_and_placed():
    assert seekable([0] * 16, 15)
    k = 987654321
    keys = [0] * 16
    keys[to_index(k, 15)] = k
    assert seekable(keys, 15)


def test_displaced_key_is_not_seekable():
    k = 987654321
    keys = [0] * 16
    keys[(to_index(k, 15) + 1) & 15] = k  # home slot stays 0, probe stops there
    assert not seekable(keys, 15)


def test_check_fresh_map_is_valid():
    report = check(FixedLongMap(15))
    assert report.valid
    assert report.first_violation is None


def test_check_detects_size_corruption():
    m = FixedLongMap(15)
    m.update(5, 50)
    m.array_size += 1
    report = check(m)
    assert not report.count_matches_size
    assert not report.valid
    assert "array_size" in report.first_violation


def test_check_detects_tombstone_count_corruption():
    m = FixedLongMap(15)
    m.update(5, 50)
    m.remove(5)
    assert check(m).valid
    m.tombstones -= 1
    report = check(m)
    assert not report.count_matches_size
    assert report.first_violation == "counted 1 tombstones but tombstones is 0"


def test_check_detects_duplicates():
    m = FixedLongMap(15)
    m.update(5, 50)
    i = to_index(5, 15)
    m.keys[(i + 1) & 15] = 5
    m.array_size += 1
    report = check(m)
    assert not report.no_duplicates


def test_check_detects_displaced_key():
    m = FixedLongMap(15)
    k = 987654321
    m.keys[(to_index(k, 15) + 1) & 15] = k
    m.array_size += 1
    report = check(m)
    assert not report.all_keys_seekable
    assert report.count_matches_size


def test_check_detects_bad_mask():
    m = FixedLongMap.unchecked(5, [0] * 6, [0] * 6, 0, 0, 0, 0, 0)
    report = check(m)
    assert not report.simple_valid
    assert not report.valid
    assert "mask" in report.first_violation


def test_check_detects_bad_extra_keys():
    m = FixedLongMap(3)
    m.extra_keys = 7
    report = check(m)
    assert not report.simple_valid


def test_invariant_preserved_under_ops():
    rng = random.Random(31337)
    m = FixedLongMap(7)
    pool = [3, 5, 14, 999, -999, 2**40, -(2**40), 0, LONG_MIN]
    for _ in range(1500):
        k = pool[rng.randrange(len(pool))]
        if rng.random() < 0.6:
            m.update(k, rng.getrandbits(64) - (1 << 63))
        else:
            m.remove(k)
        assert check(m).valid


def test_seekable_implies_missing_means_absent():
    rng = random.Random(4242)
    m = FixedLongMap(15)
    pool = [rng.getrandbits(64) - (1 << 63) for _ in range(32)]
    pool = [k for k in pool if is_valid_key(k)]
    for _ in range(200):
        k = pool[rng.randrange(len(pool))]
        if rng.random() < 0.6:
            m.update(k, 1)
        else:
            m.remove(k)
    assert check(m).all_keys_seekable
    for k in pool:
        kind, i, _ = _probe(k, m.keys, m.mask)
        if kind != FOUND:
            assert k not in set(m.keys)
        else:
            assert m.keys[i] == k


def reference_stop_slot(keys, k, mask):
    """First slot holding ``k`` or 0 on ``k``'s probe sequence, walked probe
    by probe; below MAX_PROBES slots the first mask + 1 probes cover all."""
    e = to_index(k, mask)
    for x in range(1, min(MAX_PROBES, mask + 1) + 1):
        if keys[e] == k or keys[e] == 0:
            return e
        e = next_probe(e, x, mask)
    return None


def reference_check(m) -> InvariantReport:
    """The invariant report worked out the long way: every stored key's path
    walked, duplicates counted with a set whatever seekability says."""
    problems = []
    if not valid_mask(m.mask):
        problems.append(f"mask {m.mask} is not 2**n - 1 with n <= {MAX_MASK_EXPONENT}")
    if len(m.values) != m.mask + 1:
        problems.append(f"values length {len(m.values)} != mask + 1 = {m.mask + 1}")
    if len(m.keys) != len(m.values):
        problems.append(f"keys length {len(m.keys)} != values length {len(m.values)}")
    if m.array_size < 0:
        problems.append(f"array_size {m.array_size} < 0")
    if m.array_size > m.mask + 1:
        problems.append(f"array_size {m.array_size} > capacity {m.mask + 1}")
    if not 0 <= m.extra_keys <= 3:
        problems.append(f"extra_keys {m.extra_keys} outside 0..3")
    simple = not problems

    counted = count_valid_keys(m.keys)
    tombstones = list(m.keys).count(LONG_MIN)
    if counted != m.array_size:
        problems.append(f"counted {counted} valid keys but array_size is {m.array_size}")
    if tombstones != m.tombstones:
        problems.append(f"counted {tombstones} tombstones but tombstones is {m.tombstones}")

    seek_ok = valid_mask(m.mask) and len(m.keys) == m.mask + 1
    if seek_ok:
        for i, k in enumerate(m.keys):
            if is_valid_key(k) and reference_stop_slot(m.keys, k, m.mask) != i:
                problems.append(f"key {k} at index {i} is not seekable")
                seek_ok = False
                break
    else:
        problems.append("seekability not evaluable: mask/array structure invalid")

    valid_keys = [k for k in m.keys if is_valid_key(k)]
    dup_ok = len(set(valid_keys)) == len(valid_keys)
    if not dup_ok:
        first = {}
        for i, k in enumerate(m.keys):
            if is_valid_key(k) and first.setdefault(k, i) != i:
                problems.append(f"key {k} duplicated at indexes {first[k]} and {i}")
                break

    return InvariantReport(
        simple_valid=simple,
        count_matches_size=counted == m.array_size and tombstones == m.tombstones,
        all_keys_seekable=seek_ok,
        no_duplicates=dup_ok,
        first_violation=problems[0] if problems else None,
    )


def random_state(rng, pool):
    """A map state at mask 0 to 7: reached by ops, or random slots (with
    duplicates and keys off their paths); its counters, sentinel bits and
    array lengths sometimes wrong."""
    mask = rng.choice((0, 1, 3, 7))
    if rng.random() < 0.5:
        m = FixedLongMap(mask)
        for _ in range(rng.randrange(3 * (mask + 1))):
            k = rng.choice(pool)
            m.update(k, rng.randrange(4)) if rng.random() < 0.6 else m.remove(k)
        keys, values = list(m.keys), list(m.values)
        if rng.random() < 0.3:
            keys[rng.randrange(mask + 1)] = rng.choice(pool)
    else:
        keys = [rng.choice(pool) for _ in range(mask + 1)]
        values = [rng.randrange(4) for _ in range(mask + 1)]
    array_size = count_valid_keys(keys) + rng.choice((0, 0, 0, 0, -1, 1))
    tombstones = keys.count(LONG_MIN) + rng.choice((0, 0, 0, 0, -1, 1))
    extra_keys = rng.choice((0, 1, 2, 3, 4))
    fault = rng.randrange(8)
    if fault == 0:
        keys.append(rng.choice(pool))  # one slot too long
    elif fault == 1:
        mask = 5  # not 2**n - 1
    return FixedLongMap.unchecked(mask, keys, values, array_size, tombstones, extra_keys, 0, 0)


def test_check_reports_what_the_long_way_reports():
    rng = random.Random(13)
    pool = [0, 0, LONG_MIN, LONG_MIN] + [rng.getrandbits(63) + 1 for _ in range(6)]
    reports = [(check(m), reference_check(m)) for m in (random_state(rng, pool) for _ in range(20000))]
    assert [(got, want) for got, want in reports if got != want] == []
    # The states cover every kind of report.
    for field in ("simple_valid", "count_matches_size", "all_keys_seekable", "no_duplicates"):
        assert {getattr(want, field) for _, want in reports} == {True, False}
    assert sum(want.valid for _, want in reports) > 1000
