"""Invariant checker: helper recursions, the report, corruption detection."""

import random
from array import array

from hypothesis import given, strategies as st

from longmap import LONG_MIN, FixedLongMap, is_valid_key, to_index
from longmap.core import FOUND, _probe
from longmap.invariants import check, count_valid_keys


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
    m = FixedLongMap.unchecked(mask, keys, [0] * len(keys), count_valid_keys(keys), 0, 0, 0)
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
    m = FixedLongMap.unchecked(5, [0] * 6, [0] * 6, 0, 0, 0, 0)
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
