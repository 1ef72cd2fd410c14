"""Growable map: trigger arithmetic, model preservation, the ceiling."""

import random
from contextlib import contextmanager

import pytest

import longmap.core as core
import longmap.growable as growable
from longmap import LONG_MIN, FixedLongMap, GrowableLongMap, run_trace, snapshot_model, to_index
from longmap.conformance import FuzzConfig, _rejection_violation, generate_trace
from longmap.invariants import check


def colliding_keys(n, h=0x2545F491):
    """``n`` distinct keys ``(c << 32) | (h ^ c)``: ``to_index`` folds each to
    the 32-bit hash ``h`` first, so they share their home slot and whole
    probe path at every capacity and the n-th sits n - 1 probes deep."""
    return [(c << 32) | (h ^ c) for c in range(1, n + 1)]


def fill_colliding(n, growth_threshold=0.5):
    """A growable map from mask 1 after ``update(k, k)`` of ``colliding_keys(n)``,
    and the keys it refused, each refusal checked against the probe budget.

    The capacity ceiling is patched to 2**18 for the call: without a bound on
    growth these keys would take the map to 2**30 slots, two 8 GiB arrays.
    """
    ceiling = growable.MAX_MASK_EXPONENT
    growable.MAX_MASK_EXPONENT = 18
    try:
        g = GrowableLongMap(1, growth_threshold=growth_threshold)
        refused = []
        for k in colliding_keys(n):
            if not g.update(k, k):
                assert _rejection_violation(g, "update", k) is None
                refused.append(k)
        assert snapshot_model(g).items() == tuple((k, k) for k in colliding_keys(n) if k not in refused)
        return g, refused
    finally:
        growable.MAX_MASK_EXPONENT = ceiling


def tombstone_free_capacity(n, growth_threshold=0.5):
    """Smallest capacity, at least 2, whose threshold holds ``n`` keys."""
    c = 2
    while n > growth_threshold * c:
        c *= 2
    return c


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


def test_third_distinct_key_triggers_growth():
    g = GrowableLongMap(3)  # capacity 4, threshold 0.5
    assert g.update(11, 1)
    assert g.update(22, 2)
    assert g.mask == 3 and g.growth_count == 0
    assert g.update(33, 3)
    assert g.mask == 7
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
    assert check(g).valid


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
        assert g.array_size <= 0.5 * g.capacity or g.capacity >= 1 << growable.MAX_MASK_EXPONENT


def test_capacity_ceiling(monkeypatch):
    monkeypatch.setattr(growable, "MAX_MASK_EXPONENT", 2)
    g = GrowableLongMap(1, growth_threshold=1.0)
    keys = [11, 22, 33, 44]
    for i, k in enumerate(keys):
        assert g.update(k, i)
    assert g.capacity == 4
    before = snapshot_model(g)
    assert not g.update(55, 5)
    assert snapshot_model(g) == before
    # Sentinels still fit beside a maxed-out array.
    assert g.update(0, 7)
    assert g.size == 5


def test_capacity_ceiling_fills_past_the_threshold(monkeypatch):
    # At the ceiling an insert into a 0 slot past the threshold is stored,
    # as a fixed map would store it, instead of growing or refusing.
    monkeypatch.setattr(growable, "MAX_MASK_EXPONENT", 2)
    g = GrowableLongMap(3)
    for k in (11, 22, 33):
        assert g.update(k, k)
    assert (g.capacity, g.array_size, g.growth_count) == (4, 3, 0)
    assert g.get(33) == 33


@pytest.mark.parametrize(
    "kind, live, tombstones, mask",
    [
        ("MISSING_VACANT", 16, 10, None),
        ("MISSING_ZERO", 9, 6, None),  # used slots reach the threshold, not past it
        ("MISSING_ZERO", 9, 7, 31),  # past it; tombstones over a fifth: repack
        ("MISSING_ZERO", 10, 6, 63),  # tombstones at most a fifth: double
        ("MISSING_ZERO", 16, 10, 63),  # live keys alone past it: double
        ("UNDEFINED", 3, 1, 31),  # out of budget with tombstones: repack
        ("UNDEFINED", 8, 0, 63),  # below the rejection growth limit: double
        ("UNDEFINED", 7, 0, None),  # at it: refuse
    ],
)
def test_rebuild_mask_rules(kind, live, tombstones, mask):
    g = GrowableLongMap(31)  # capacity 32, threshold 0.5: 16 used slots
    g.array_size, g.tombstones = live, tombstones
    assert g._rebuild_mask(getattr(core, kind)) == mask


@pytest.mark.parametrize("kind, live", [("MISSING_ZERO", 16), ("UNDEFINED", 8)])
def test_rebuild_mask_at_the_ceiling(monkeypatch, kind, live):
    monkeypatch.setattr(growable, "MAX_MASK_EXPONENT", 5)
    g = GrowableLongMap(31)
    g.array_size = live
    assert g._rebuild_mask(getattr(core, kind)) is None


@pytest.mark.parametrize(
    "key, value, error",
    [(33, 2**64, OverflowError), (2**64, 3, OverflowError), (33, "x", TypeError)],
)
def test_unstorable_insert_leaves_the_map_unchanged(key, value, error):
    # The third key would grow the map; a pair the arrays cannot hold must
    # raise before that rebuild, not after it.
    g = GrowableLongMap(3)
    assert g.update(11, 1) and g.update(22, 2)
    keys = g.keys.tobytes()
    with pytest.raises(error):
        g.update(key, value)
    assert (g.capacity, g.growth_count, g.size) == (4, 0, 2)
    assert g.keys.tobytes() == keys
    assert check(g).valid


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


def test_colliding_keys_share_every_probe_path():
    keys = colliding_keys(64)
    for exp in (1, 10, 18, 30):
        mask = (1 << exp) - 1
        assert len({to_index(k, mask) for k in keys}) == 1


@pytest.mark.parametrize("threshold", [0.25, 0.5, 1.0])
def test_colliding_keys_grow_the_map_a_bounded_number_of_times(threshold):
    # The 2049th key sharing one probe path is out of budget at every
    # capacity, so growth cannot admit it; the map grows exactly up to a
    # fixed multiple of the capacity its live keys need, then refuses.
    g, refused = fill_colliding(2100, threshold)
    assert g.array_size == 2048
    assert len(refused) == 52
    assert g.capacity == growable.REJECTION_GROWTH_LIMIT * tombstone_free_capacity(2049, threshold)
    assert check(g).valid


def test_tombstones_count_toward_the_threshold():
    # One live key and churn of fresh keys, each homed on a 0 slot so that
    # none reuses a tombstone: the tombstones fill the table up to the
    # threshold, and the rebuild that follows is in place.
    g = GrowableLongMap(7)
    fresh = (k for k in range(1, 1000) if g.keys[to_index(k, g.mask)] == 0)
    assert g.update(next(fresh), 1)
    for _ in range(3):
        k = next(fresh)
        assert g.update(k, k)
        assert g.remove(k)
    assert (g.capacity, g.array_size, g.tombstones) == (8, 1, 3)
    k = next(fresh)
    assert g.update(k, 6)
    assert (g.capacity, g.array_size, g.tombstones, g.growth_count) == (8, 2, 0, 0)
    assert len(snapshot_model(g)) == 2
    assert check(g).valid


def test_few_tombstones_double_instead_of_repacking():
    # With tombstones at most a fifth of the table a rebuild doubles, so a
    # map whose live keys sit just under the threshold does not repack on
    # every few inserts.
    g = GrowableLongMap(15)
    for k in range(1, 8):
        assert g.update(k, k)
    assert g.update(100, 0) and g.remove(100)
    assert (g.capacity, g.array_size, g.tombstones) == (16, 7, 1)
    assert g.update(101, 0)
    assert (g.capacity, g.tombstones, g.growth_count) == (32, 0, 1)

