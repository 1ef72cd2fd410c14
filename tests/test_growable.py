"""Growable map: trigger arithmetic, model preservation, the ceiling."""

import random

import pytest
from hypothesis import event, given, settings, strategies as st

import longmap.core as core
import longmap.growable as growable
from longmap import LONG_MIN, FixedLongMap, GrowableLongMap, run_trace, snapshot_model, to_index
from longmap.core import UNDEFINED
from longmap.conformance import FuzzConfig, generate_trace
from longmap.invariants import check
from support import colliding_keys, fill_colliding, growth_watched, hang_guard, tombstone_free_capacity


def test_third_distinct_key_triggers_growth():
    g = GrowableLongMap(3)  # capacity 4, threshold half of it
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


def slot_order_fill(old, mask):
    """A fresh map of ``mask + 1`` slots that received ``old``'s live array
    pairs by ``update`` in ``old``'s slot order, then its sentinel pairs."""
    fresh = FixedLongMap(mask, old.default_entry)
    for k, v in zip(old.keys, old.values):
        if k != 0 and k != LONG_MIN:
            assert fresh.update(k, v)
    if old.extra_keys & 1:
        fresh.update(0, old.zero_value)
    if old.extra_keys & 2:
        fresh.update(LONG_MIN, old.min_value)
    return fresh


def test_growth_lays_out_pairs_in_old_slot_order():
    # Growth reinserts the old map's pairs in the old arrays' slot order, so
    # the new arrays match a fresh map filled in that order, whatever
    # tombstones and sentinels the old map held. Some of these layouts
    # differ from a fill in ascending key order, so the two rules part.
    rng = random.Random(29)
    grown = []

    def on_grow(old, new):
        fresh = slot_order_fill(old, new.mask)
        assert new.keys == fresh.keys
        assert new.values == fresh.values
        assert (new.extra_keys, new.zero_value, new.min_value) == (
            fresh.extra_keys,
            fresh.zero_value,
            fresh.min_value,
        )
        by_key = FixedLongMap(new.mask)
        for k, v in snapshot_model(old).items():
            by_key.update(k, v)
        grown.append((LONG_MIN in old.keys, old.extra_keys, by_key.keys != new.keys))

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
    assert any(tombstones for tombstones, _, _ in grown)
    assert any(extra == 3 for _, extra, _ in grown)
    assert any(differs for _, _, differs in grown)


def random_keys(seed, n):
    rng = random.Random(seed)
    return [rng.getrandbits(64) - (1 << 63) for _ in range(n)]


def repack_regime():
    # Tombstones above a fifth of the table: the rebuild is in place.
    g = GrowableLongMap(63)
    keys = random_keys(31, 30)
    for k in keys:
        assert g.update(k, ~k)
    for k in keys[::2]:
        assert g.remove(k)
    assert (g.capacity, g.tombstones) == (64, 15) and 5 * g.tombstones > g.capacity
    return g, g.mask


def colliding_regime():
    # 300 keys on one probe path: placing the last walks 299 probes deep.
    g = GrowableLongMap(1023)
    for k in colliding_keys(300):
        assert g.update(k, k >> 7)
    return g, 2 * g.mask + 1


def sentinel_regime():
    g = GrowableLongMap(31)
    keys = random_keys(37, 12)
    for k in keys + [0, LONG_MIN]:
        assert g.update(k, k ^ 5)
    assert g.remove(keys[0])
    assert g.extra_keys == 3 and g.tombstones == 1
    return g, 2 * g.mask + 1


@pytest.mark.parametrize("regime", [repack_regime, colliding_regime, sentinel_regime])
def test_rebuild_matches_a_fresh_fill_in_old_slot_order(regime):
    # A rebuild lays the live pairs out as a fresh map does that receives
    # them by update in the old arrays' slot order.
    g, mask = regime()
    model = snapshot_model(g)
    fresh = slot_order_fill(g, mask)
    grown = g.growth_count + (mask != g.mask)
    g._rebuild(mask)
    assert g.keys == fresh.keys
    assert g.values == fresh.values
    assert (g.extra_keys, g.zero_value, g.min_value) == (fresh.extra_keys, fresh.zero_value, fresh.min_value)
    assert (g.mask, g.tombstones, g.growth_count) == (mask, 0, grown)
    assert snapshot_model(g) == model
    assert check(g).valid


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="rebuild cannot re-place keys that share one hash")
def test_rebuild_places_colliding_keys_among_others():
    # 2048 keys on one probe path fill its whole budget. When the map grows
    # from 8192 to 16384 slots, the pairs placed before the last colliding
    # key take slots on that path, so it finds no 0 slot within its budget
    # and the rebuild raises out of a plain update.
    g = GrowableLongMap(1)
    for k in colliding_keys(2048):
        assert g.update(k, k)
    assert g.capacity == 4096
    for k in random_keys(3, 2049):
        assert g.update(k, k)
    assert g.capacity == 16384
    assert check(g).valid


MISS = "miss"  # a history step: the rebuild a probe-budget miss asks for
STEPS = ["U"] * 16 + ["R"] * 24 + [MISS]  # removes outweigh updates, so tombstones pile up


def rebuild_history(exp, pool, history):
    """Run ``history`` on a growable map of ``2**exp`` slots, checking every
    rebuild against a slot-order fill, and return the kinds of rebuild seen:
    ``"repack"`` at the same mask, ``"double"`` from updates, and ``MISS``.

    Each step ``n`` of the history is ``STEPS[n % len(STEPS)]`` of the key
    at ``n // len(STEPS)`` in ``pool`` (wrapped round), with value ``n``.
    Below ``MAX_PROBES`` slots a probe walk covers the table, so no update
    misses its budget; a ``MISS`` step makes the rebuild that the rule asks
    for on a miss, in place with tombstones and else doubling at any load.
    """
    calls = []
    seen = []

    def counted(k, mask):
        calls.append(k)
        return to_index(k, mask)

    def on_grow(old, new):
        fresh = slot_order_fill(old, new.mask)
        assert (new.keys, new.values) == (fresh.keys, fresh.values)
        assert (new.extra_keys, new.zero_value, new.min_value) == (old.extra_keys, old.zero_value, old.min_value)
        assert snapshot_model(new) == snapshot_model(old)
        assert new.tombstones == 0
        assert check(new).valid
        assert len(calls) == old.array_size
        calls.clear()
        seen.append("repack" if new.mask == old.mask else "double")

    g = GrowableLongMap((1 << exp) - 1)
    with growth_watched(on_grow):
        growable.to_index = counted
        try:
            for n in history:
                i, step = divmod(n, len(STEPS))
                k = pool[i % len(pool)]
                if STEPS[step] == "U":
                    g.update(k, n)
                elif STEPS[step] == "R":
                    g.remove(k)
                elif (mask := g._rebuild_mask(UNDEFINED)) is not None:
                    g._rebuild(mask)
                    seen[-1] = MISS
        finally:
            growable.to_index = to_index
    assert check(g).valid
    return seen


rebuild_pools = st.builds(
    lambda keys, colliding: keys + colliding_keys(colliding) + [0, LONG_MIN],
    st.lists(st.integers(LONG_MIN, (1 << 63) - 1), min_size=8, max_size=24),
    st.integers(0, 4),
)
rebuild_steps = st.lists(st.sampled_from(range(32 * len(STEPS))), min_size=100, max_size=200)


@settings(deadline=None)
@given(st.integers(1, 6), rebuild_pools, rebuild_steps)
def test_rebuild_is_a_fresh_fill_in_old_slot_order(exp, pool, history):
    for kind in set(rebuild_history(exp, pool, history)):
        event(kind)


def test_rebuild_histories_reach_every_kind_of_rebuild():
    # Histories drawn as the property test draws them reach all three kinds.
    seen = set()
    for seed in range(20):
        rng = random.Random(seed)
        pool = random_keys(seed, 16) + colliding_keys(3) + [0, LONG_MIN]
        steps = [rng.randrange(32 * len(STEPS)) for _ in range(150)]
        seen.update(rebuild_history(rng.randrange(1, 7), pool, steps))
    assert seen == {"repack", "double", MISS}


def test_occupancy_bounded_after_updates():
    # Without removes each fresh insert leaves the map at exactly the
    # smallest capacity whose half holds its keys: not one doubling early.
    rng = random.Random(23)
    g = GrowableLongMap(1)
    for i in range(2000):
        k = rng.getrandbits(62) + 1
        assert g.update(k, i)
        assert g.capacity == tombstone_free_capacity(g.array_size)


def test_capacity_ceiling(monkeypatch):
    monkeypatch.setattr(growable, "MAX_MASK_EXPONENT", 2)
    g = GrowableLongMap(1)
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
    g = GrowableLongMap(31)  # capacity 32, threshold half of it: 16 used slots
    g.array_size, g.tombstones = live, tombstones
    assert g._rebuild_mask(getattr(core, kind)) == mask


def test_a_rebuild_rule_that_never_settles_raises():
    # A rebuild leaves no tombstones, so a sound rule asks at most
    # MAX_MASK_EXPONENT + 1 times per insert; one that always asks for the
    # same mask must end in an error, not loop.
    class Unsettled(GrowableLongMap):
        def _rebuild_mask(self, kind):
            return self.mask

    g = Unsettled(1)
    with hang_guard(), pytest.raises(AssertionError, match="asked for 32 rebuilds"):
        g.update(5, 5)
    assert (g.size, g.capacity) == (0, 2)


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
        GrowableLongMap(2)


def test_growable_fuzz_trace_clean():
    cfg = FuzzConfig(seed=404, op_count=2500, mask_exponent=5)
    mask, ops = generate_trace(cfg)
    res = run_trace(ops, mask, map_factory=lambda m, de: GrowableLongMap(1, de))
    assert res.ok, res.divergence
    assert res.final_map.growth_count >= 1


def test_colliding_keys_share_every_probe_path():
    keys = colliding_keys(64)
    for exp in (1, 10, 18, 30):
        mask = (1 << exp) - 1
        assert len({to_index(k, mask) for k in keys}) == 1


def test_colliding_keys_grow_the_map_a_bounded_number_of_times():
    # The 2049th key sharing one probe path is out of budget at every
    # capacity, so growth cannot admit it; the map grows exactly up to a
    # fixed multiple of the capacity its live keys need, then refuses.
    g, refused = fill_colliding(2100)
    assert g.array_size == 2048
    assert len(refused) == 52
    assert g.capacity == growable.REJECTION_GROWTH_LIMIT * tombstone_free_capacity(2049)
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

