"""FixedLongMap public interface: construction, sentinels, capacity limits."""

import os
import random

import pytest

from longmap import (
    LONG_MIN,
    MAX_MASK,
    FixedLongMap,
    snapshot_model,
    valid_mask,
)
from longmap.cli import dump_state
from longmap.invariants import check


def test_mask_validation():
    assert valid_mask(0)
    assert valid_mask(1)
    assert valid_mask(MAX_MASK)
    assert not valid_mask(5)
    assert not valid_mask(-1)
    assert not valid_mask((1 << 31) - 1)
    with pytest.raises(ValueError):
        FixedLongMap(5)
    with pytest.raises(ValueError):
        FixedLongMap((1 << 31) - 1)


def test_capacity_one_map():
    m = FixedLongMap(0)
    assert m.capacity == 1 and m.size == 0 and m.is_empty


def _available_ram() -> int:
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return 0


@pytest.mark.skipif(
    _available_ram() < 20 * 2**30,
    reason="maximum-capacity map needs ~16 GiB for its arrays",
)
def test_max_capacity_accepted():
    m = FixedLongMap(MAX_MASK)
    assert m.capacity == 1 << 30 and m.is_empty


def test_fresh_map_contains_nothing():
    m = FixedLongMap(15)
    assert not m.contains(42)
    assert 42 not in m
    assert m.get(7) == 0
    assert len(m) == 0


def test_update_then_get():
    m = FixedLongMap(15)
    assert m.update(7, 99)
    assert m.get(7) == 99
    assert m.contains(7)
    assert m.size == 1


def test_update_replaces_value():
    m = FixedLongMap(15)
    m.update(7, 99)
    m.update(7, 100)
    assert m.get(7) == 100
    assert m.size == 1


def test_zero_key_update():
    m = FixedLongMap(15)
    assert m.update(0, 5)
    assert m.extra_keys == 1
    assert m.zero_value == 5
    assert m.contains(0)
    assert m.get(0) == 5
    assert m.array_size == 0


def test_min_key_update():
    m = FixedLongMap(15)
    assert m.update(LONG_MIN, -6)
    assert m.extra_keys == 2
    assert m.min_value == -6
    assert m.get(LONG_MIN) == -6


def test_both_sentinels_give_size_two():
    m = FixedLongMap(15)
    m.update(0, 1)
    m.update(LONG_MIN, 2)
    assert m.extra_keys == 3
    assert m.size == 2


def test_remove_zero_clears_bit():
    m = FixedLongMap(15)
    m.update(0, 5)
    m.update(LONG_MIN, 6)
    assert m.remove(0)
    assert m.extra_keys == 2
    assert not m.contains(0)
    assert m.get(0) == 0
    assert m.contains(LONG_MIN)


def test_remove_tombstones_the_slot():
    m = FixedLongMap(15)
    m.update(7, 99)
    assert m.remove(7)
    assert LONG_MIN in list(m.keys)
    assert not m.contains(7)
    assert m.size == 0
    assert m.get(7) == 0


def test_remove_absent_key_is_noop():
    m = FixedLongMap(15)
    m.update(3, 30)
    before = snapshot_model(m)
    assert m.remove(4)
    assert snapshot_model(m) == before


def test_remove_on_empty_map():
    m = FixedLongMap(3)
    assert m.remove(9)
    assert m.is_empty


def test_remove_is_idempotent():
    m = FixedLongMap(15)
    m.update(7, 99)
    m.remove(7)
    once = snapshot_model(m)
    assert m.remove(7)
    assert snapshot_model(m) == once


def test_update_then_remove_restores_model():
    m = FixedLongMap(15)
    m.update(3, 30)
    before = snapshot_model(m)
    m.update(500, 1)
    m.remove(500)
    assert snapshot_model(m) == before


def test_update_false_when_no_slot_reachable():
    m = FixedLongMap(1)
    assert m.update(11, 1)
    assert m.update(22, 2)
    before = snapshot_model(m)
    assert not m.update(33, 3)
    assert snapshot_model(m) == before
    assert m.size == 2


@pytest.mark.parametrize(
    "key, value", [(5, 1 << 64), (5, LONG_MIN - 1), (5, 1.5), (1 << 64, 1), (0, 1 << 64), (LONG_MIN, 1.5)]
)
@pytest.mark.parametrize("tombstone", [False, True])
def test_unrepresentable_insert_leaves_map_unchanged(key, value, tombstone):
    m = FixedLongMap(7)
    m.update(3, 30)
    if tombstone:
        # Key 5's home slot becomes the tombstone its insert would reuse.
        m.update(5, 50)
        m.remove(5)
    before = dump_state(m)
    with pytest.raises((OverflowError, TypeError)):
        m.update(key, value)
    assert dump_state(m) == before


def test_sentinels_fit_beside_full_array():
    m = FixedLongMap(1)
    m.update(11, 1)
    m.update(22, 2)
    assert m.update(0, 3)
    assert m.update(LONG_MIN, 4)
    assert m.size == 4


def test_n_distinct_updates_give_size_n():
    m = FixedLongMap(63)
    rng = random.Random(5)
    keys = set()
    while len(keys) < 30:
        k = rng.getrandbits(64) - (1 << 63)
        if k not in (0, LONG_MIN):
            keys.add(k)
    for i, k in enumerate(keys):
        m.update(k, i)
    assert m.size == 30


def test_update_leaves_other_keys_alone():
    m = FixedLongMap(15)
    others = [5, 6, 7, 8]
    for k in others:
        m.update(k, k * 10)
    m.update(1000, 1)
    for k in others:
        assert m.get(k) == k * 10


def test_custom_default_entry():
    m = FixedLongMap(15, lambda k: k ^ 12345)
    assert m.get(77) == 77 ^ 12345
    m.update(77, 5)
    assert m.get(77) == 5
    m.remove(77)
    assert m.get(77) == 77 ^ 12345
    assert m.get(0) == 12345
    assert m.get(LONG_MIN) == LONG_MIN ^ 12345


def test_tombstone_slot_is_reused():
    m = FixedLongMap(3)
    m.update(11, 1)
    m.update(22, 2)
    layout = list(m.keys)
    m.remove(11)
    # Reinsertion probes over the tombstone, finds a 0 terminator, and lands
    # back in the remembered vacant slot.
    assert m.update(11, 5)
    assert list(m.keys) == layout
    assert m.get(11) == 5 and m.get(22) == 2


def test_no_zero_slot_means_no_reuse():
    # With every slot tombstoned or foreign there is no 0 to terminate the
    # vacant-seeking probe, so inserts of new keys give up.
    m = FixedLongMap(1)
    m.update(11, 1)
    m.update(22, 2)
    m.remove(11)
    assert not m.update(33, 3)
    assert m.update(22, 9)
    assert m.get(22) == 9


def test_ops_preserve_invariant():
    rng = random.Random(99)
    m = FixedLongMap(15)
    pool = [rng.getrandbits(64) - (1 << 63) for _ in range(40)]
    pool = [k for k in pool if k not in (0, LONG_MIN)] + [0, LONG_MIN]
    for _ in range(2000):
        k = pool[rng.randrange(len(pool))]
        op = rng.random()
        if op < 0.5:
            m.update(k, rng.getrandbits(64) - (1 << 63))
        elif op < 0.8:
            m.remove(k)
        else:
            m.contains(k)
            m.get(k)
        assert check(m).valid
