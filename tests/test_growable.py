"""Growth decorator: trigger arithmetic, model preservation, the ceiling."""

import random
from contextlib import contextmanager

import pytest

import longmap.core as core
import longmap.growable as growable
from longmap import LONG_MIN, FixedLongMap, GrowableLongMap, run_trace, snapshot_model
from longmap.conformance import FuzzConfig, generate_trace
from longmap.invariants import check


@contextmanager
def growth_watched(on_grow):
    """Wrap ``GrowableLongMap._grow`` for the length of the block so that
    every growth of any growable map calls ``on_grow(old, new)`` with the
    inner maps from before and after it."""
    grow = GrowableLongMap._grow

    def watched(self):
        old = self.inner
        grow(self)
        on_grow(old, self.inner)

    GrowableLongMap._grow = watched
    try:
        yield
    finally:
        GrowableLongMap._grow = grow


def test_third_distinct_key_triggers_growth():
    g = GrowableLongMap(3)  # capacity 4, threshold 0.5
    assert g.update(11, 1)
    assert g.update(22, 2)
    assert g.inner.mask == 3 and g.growth_count == 0
    assert g.update(33, 3)
    assert g.inner.mask == 7
    assert g.growth_count == 1
    assert g.size == 3


def test_overwrite_does_not_trigger_growth():
    g = GrowableLongMap(3)
    g.update(11, 1)
    g.update(22, 2)
    g.update(11, 9)
    g.update(22, 8)
    assert g.growth_count == 0
    assert g.get(11) == 9


def test_inserts_below_the_threshold_probe_once(monkeypatch):
    # The growth check needs to know whether the key is stored only when one
    # more key would cross the threshold; below it each insert is one probe.
    probes = []
    probe = core._probe
    monkeypatch.setattr(core, "_probe", lambda k, keys, mask: probes.append(k) or probe(k, keys, mask))
    g = GrowableLongMap(1023)
    for k in range(1, 401):
        assert g.update(k, k)
    assert g.growth_count == 0
    assert len(probes) == 400


def test_sentinel_workload_never_grows():
    g = GrowableLongMap(1)
    for v in range(50):
        g.update(0, v)
        g.update(LONG_MIN, -v)
    assert g.growth_count == 0
    assert g.size == 2
    assert g.capacity == 2


def test_growth_preserves_model_and_seekability():
    rng = random.Random(17)
    snapshots = []

    def on_grow(old, new):
        snapshots.append((snapshot_model(old), snapshot_model(new)))

    g = GrowableLongMap(1)
    with growth_watched(on_grow):
        for _ in range(300):
            k = rng.getrandbits(64) - (1 << 63)
            g.update(k, rng.getrandbits(64) - (1 << 63))
    assert g.growth_count >= 5
    assert len(snapshots) == g.growth_count
    for before, after in snapshots:
        assert before == after
    assert check(g.inner).valid


def test_growth_lays_out_pairs_in_ascending_key_order():
    # Growth reinserts the old map's pairs in ascending key order, so the new
    # arrays match a fresh map filled with the sorted snapshot, whatever
    # tombstones and sentinels the old map held.
    rng = random.Random(29)
    grown = []

    def on_grow(old, new):
        fresh = FixedLongMap(new.mask, old.default_entry)
        for k, v in snapshot_model(old).items():
            assert fresh.update(k, v)
        assert new.keys == fresh.keys
        assert new.values == fresh.values
        assert (new.extra_keys, new.zero_value, new.min_value) == (
            fresh.extra_keys,
            fresh.zero_value,
            fresh.min_value,
        )
        grown.append((LONG_MIN in old.keys, old.extra_keys))

    g = GrowableLongMap(1)
    pool = [rng.getrandbits(64) - (1 << 63) for _ in range(400)] + [0, LONG_MIN]
    with growth_watched(on_grow):
        for i in range(3000):
            k = pool[rng.randrange(len(pool))]
            if rng.random() < 0.7:
                g.update(k, i)
            else:
                g.remove(k)
    assert len(grown) == g.growth_count >= 8
    assert any(tombstones for tombstones, _ in grown)
    assert any(extra == 3 for _, extra in grown)


def test_occupancy_bounded_after_updates():
    rng = random.Random(23)
    g = GrowableLongMap(1, growth_threshold=0.5)
    for i in range(200):
        k = rng.getrandbits(62) + 1
        assert g.update(k, i)
        inner = g.inner
        assert inner.array_size <= 0.5 * inner.capacity or not g._can_grow()


def test_capacity_ceiling(monkeypatch):
    monkeypatch.setattr(growable, "MAX_MASK_EXPONENT", 2)
    g = GrowableLongMap(1, growth_threshold=1.0)
    keys = [11, 22, 33, 44]
    for i, k in enumerate(keys):
        assert g.update(k, i)
    assert g.capacity == 4
    before = snapshot_model(g.inner)
    assert not g.update(55, 5)
    assert snapshot_model(g.inner) == before
    # Sentinels still fit beside a maxed-out array.
    assert g.update(0, 7)
    assert g.size == 5


def test_delegation():
    g = GrowableLongMap(3, default_entry=lambda k: -k)
    assert g.is_empty
    assert g.get(9) == -9
    g.update(9, 90)
    assert g.contains(9)
    assert 9 in g
    assert len(g) == 1
    assert g.remove(9)
    assert not g.contains(9)
    assert g.get(9) == -9


def test_default_entry_survives_growth():
    g = GrowableLongMap(1, default_entry=lambda k: k + 1)
    for k in (5, 6, 7, 8, 9):
        g.update(k, 0)
    assert g.growth_count >= 1
    assert g.get(1000) == 1001


def test_remove_never_shrinks():
    g = GrowableLongMap(1)
    for k in range(1, 20):
        g.update(k, k)
    cap = g.capacity
    for k in range(1, 20):
        g.remove(k)
    assert g.capacity == cap
    assert g.size == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        GrowableLongMap(1, growth_threshold=0.0)
    with pytest.raises(ValueError):
        GrowableLongMap(1, growth_threshold=1.5)
    with pytest.raises(ValueError):
        GrowableLongMap(2)


def test_growable_fuzz_trace_clean():
    cfg = FuzzConfig(seed=404, op_count=2500, mask_exponent=5)
    mask, ops = generate_trace(cfg)
    res = run_trace(
        ops,
        mask,
        map_factory=lambda m, de: GrowableLongMap(1, de),
        invariant_stride=32,
    )
    assert res.ok, res.divergence
    assert res.final_map.growth_count >= 1
