"""Conformance apparatus: snapshots, equivalence, trace runner, shrinking."""

import copy
import random
from array import array

import pytest

import longmap.conformance as conformance
from mutants import MUTANTS, applied
from longmap import (
    LONG_MIN,
    MAX_PROBES,
    FixedLongMap,
    GrowableLongMap,
    ListMap,
    check,
    is_valid_key,
    next_probe,
    run_fuzz,
    run_trace,
    snapshot_model,
    to_index,
    zero_entry,
)
from longmap.conformance import (
    FuzzConfig,
    ParseError,
    TraceOp,
    equivalence_violation,
    format_trace,
    generate_trace,
    parse_trace,
)
from test_seek import probe_violation


def fold_snapshot(m) -> ListMap:
    """Literal recursive fold over the arrays, as a snapshot oracle."""

    def rec(i):
        if i >= len(m.keys):
            return ListMap.empty()
        tail = rec(i + 1)
        if is_valid_key(m.keys[i]):
            return tail.insert(m.keys[i], m.values[i])
        return tail

    model = rec(0)
    if m.extra_keys & 1 and m.extra_keys & 2:
        return model.insert(0, m.zero_value).insert(LONG_MIN, m.min_value)
    if m.extra_keys & 1:
        return model.insert(0, m.zero_value)
    if m.extra_keys & 2:
        return model.insert(LONG_MIN, m.min_value)
    return model


def as_listmap(model: dict) -> ListMap:
    """The ListMap of a model dict's entries, built by ``insert``."""
    return ListMap(model.items())


def build_map(mask, ops_count, seed, pool=None):
    rng = random.Random(seed)
    m = FixedLongMap(mask)
    if pool is None:
        pool = [rng.getrandbits(64) - (1 << 63) for _ in range(2 * (mask + 1))]
        pool = [k for k in pool if is_valid_key(k)] + [0, LONG_MIN]
    for _ in range(ops_count):
        k = pool[rng.randrange(len(pool))]
        if rng.random() < 0.6:
            m.update(k, rng.getrandbits(64) - (1 << 63))
        else:
            m.remove(k)
    return m, pool


def test_snapshot_of_empty_map():
    assert snapshot_model(FixedLongMap(7)) == ListMap.empty()


def test_snapshot_includes_extras():
    m = FixedLongMap(7)
    m.update(0, 10)
    m.update(LONG_MIN, 20)
    snap = snapshot_model(m)
    assert snap.get(0) == 10
    assert snap.get(LONG_MIN) == 20
    assert len(snap) == 2


def test_snapshot_skips_sentinel_slots():
    m = FixedLongMap.unchecked(3, [0, 7, LONG_MIN, 0], [9, 55, 9, 9], 1, 1, 0, 0, 0)
    assert snapshot_model(m).items() == ((7, 55),)


def test_snapshot_matches_literal_fold():
    for seed in range(12):
        m, _ = build_map(15, 120, seed)
        assert snapshot_model(m) == fold_snapshot(m)
    # Also on a state with a duplicated key, where fold order matters: the
    # earlier index must win.
    m = FixedLongMap.unchecked(3, [5, 5, 0, 0], [1, 2, 0, 0], 2, 0, 0, 0, 0)
    assert snapshot_model(m) == fold_snapshot(m)
    assert snapshot_model(m).get(5) == 1


def test_equivalence_on_reachable_states():
    for seed in (3, 4, 5):
        m, _ = build_map(15, 200, seed)
        assert equivalence_violation(m, snapshot_model(m)) is None
    assert equivalence_violation(FixedLongMap(0), ListMap.empty()) is None


def test_equivalence_detects_value_flipped_after_snapshot():
    m, _ = build_map(15, 60, seed=8)
    snap = snapshot_model(m)
    idx = next(i for i, k in enumerate(m.keys) if is_valid_key(k))
    m.values[idx] ^= 1
    msg = equivalence_violation(m, snap)
    assert msg is not None and "value mismatch" in msg


def test_equivalence_detects_key_erased_after_snapshot():
    m = FixedLongMap(15)
    m.update(5, 50)
    m.update(9, 90)
    snap = snapshot_model(m)
    i = next(i for i, k in enumerate(m.keys) if k == 9)
    m.keys[i] = 0
    msg = equivalence_violation(m, snap)
    assert msg is not None and "does not occur" in msg


def test_equivalence_witness_for_hidden_key():
    # A key sitting in the array while array_size pretends it is not there:
    # snapshot (first-wins fold) keeps it, so break membership by duplicating
    # with a different value; the model holds the first, index two disagrees.
    m = FixedLongMap(15)
    m.update(5, 50)
    i = next(i for i, k in enumerate(m.keys) if k == 5)
    j = (i + 1) & 15
    m.keys[j] = 5
    m.values[j] = 51
    msg = equivalence_violation(m, snapshot_model(m))
    assert msg is not None and "5" in msg


def test_equivalence_detects_duplicate_with_equal_value():
    # The first-wins snapshot folds the copy away and every index agrees
    # with it on the value; only the duplicate itself is wrong.
    m = FixedLongMap.unchecked(3, [5, 5, 0, 0], [1, 1, 0, 0], 2, 0, 0, 0, 0)
    assert equivalence_violation(m, snapshot_model(m)) == "key 5 duplicated at indexes 0 and 1"


@pytest.mark.parametrize("extra_keys, zero_value", [(0, 0), (1, 8), (3, 7)])
def test_equivalence_detects_sentinel_mismatch(extra_keys, zero_value):
    m = FixedLongMap.unchecked(3, [5, 0, 0, 0], [1, 0, 0, 0], 1, 0, extra_keys, zero_value, 9)
    model = ListMap([(5, 1), (0, 7)])
    msg = equivalence_violation(m, model)
    assert msg is not None and msg.startswith("sentinel fields")


def sorted_pairs_rule(m, model) -> bool:
    """Reference refinement rule: the live pairs in ascending order, one per
    slot, plus the sentinel pairs, are the model's entries."""
    pairs = [(k, v) for k, v in zip(m.keys, m.values) if is_valid_key(k)]
    if m.extra_keys & 1:
        pairs.append((0, m.zero_value))
    if m.extra_keys & 2:
        pairs.append((LONG_MIN, m.min_value))
    return tuple(sorted(pairs)) == model.items()


def test_equivalence_is_the_sorted_pairs_rule_on_random_states():
    # Masks 0..7 over four keys and both sentinels, duplicates allowed, so
    # folded-away slots, corrupt extra_keys and near-miss models all occur.
    rng = random.Random(19)
    pool = [rng.getrandbits(64) - (1 << 63) for _ in range(4)] + [0, LONG_MIN]
    agreed = 0
    for _ in range(20_000):
        mask = rng.choice((0, 1, 3, 7))
        keys = [rng.choice(pool) for _ in range(mask + 1)]
        values = [rng.randrange(3) for _ in range(mask + 1)]
        m = FixedLongMap.unchecked(mask, keys, values, 0, 0, rng.randrange(8), rng.randrange(3), rng.randrange(3))
        r = rng.random()
        if r < 0.4:
            model = fold_snapshot(m)
        elif r < 0.7:
            k = rng.choice(pool)
            model = fold_snapshot(m).insert(k, rng.randrange(3)) if rng.random() < 0.5 else fold_snapshot(m).remove(k)
        else:
            model = ListMap((rng.choice(pool), rng.randrange(3)) for _ in range(rng.randrange(6)))
        assert snapshot_model(m) == fold_snapshot(m)
        verdict = equivalence_violation(m, model)
        assert (verdict is None) == sorted_pairs_rule(m, model), (keys, values, m.extra_keys, model, verdict)
        agreed += verdict is None
    assert 2_000 < agreed < 18_000


def test_run_trace_deterministic_generation():
    cfg = FuzzConfig(seed=77, op_count=500, mask_exponent=4)
    assert generate_trace(cfg) == generate_trace(cfg)


def test_run_fuzz_small_masks_clean():
    for exp in (0, 2, 4):
        cfg = FuzzConfig(seed=100 + exp, op_count=1500, mask_exponent=exp)
        res = run_fuzz(cfg)
        assert res.ok, res.divergence
        assert sum(res.counts.values()) == 1500


def test_run_fuzz_mask_255_clean():
    res = run_fuzz(FuzzConfig(seed=255, op_count=4000, mask_exponent=8))
    assert res.ok, res.divergence
    assert res.equivalence_checks == 4000


def test_trace_capacity_exhaustion():
    ops = [TraceOp("U", 11, 1), TraceOp("U", 22, 2), TraceOp("U", 33, 3), TraceOp("C", 33)]
    res = run_trace(ops, 1)
    assert res.ok
    assert res.final_size == 2


def test_pure_sentinel_trace():
    rng = random.Random(6)
    ops = []
    for _ in range(300):
        kind = rng.choice(("U", "R", "G", "C"))
        key = rng.choice((0, LONG_MIN))
        ops.append(TraceOp(kind, key, rng.getrandbits(16) if kind == "U" else 0))
    res = run_trace(ops, 3)
    assert res.ok
    assert res.final_size in (0, 1, 2)


def test_trace_with_custom_default_entry():
    ops = [TraceOp("G", 7), TraceOp("U", 7, 1), TraceOp("G", 7), TraceOp("R", 7), TraceOp("G", 7)]
    res = run_trace(ops, 7, default_entry=lambda k: k * 3)
    assert res.ok


class DroppedRemoveMap(FixedLongMap):
    """Fault injection: claims to remove valid keys but leaves them stored."""

    def remove(self, key):
        if is_valid_key(key) and self.contains(key):
            return True
        return super().remove(key)


class LyingGetMap(FixedLongMap):
    def get(self, key):
        return super().get(key) + 1


class LyingContainsMap(FixedLongMap):
    def contains(self, key):
        return not super().contains(key)


class RefusingMap(FixedLongMap):
    """Fault injection: rejects every update and remove."""

    def update(self, key, value):
        return False

    def remove(self, key):
        return False


@pytest.mark.parametrize(
    "op, why",
    [
        (TraceOp("U", 5, 50), "slot"),
        (TraceOp("R", 5), "slot"),
        (TraceOp("U", 0, 1), "sentinel"),
        (TraceOp("R", LONG_MIN), "sentinel"),
    ],
)
def test_false_with_budget_left_detected(op, why):
    res = run_trace([op], 7, map_factory=RefusingMap, shrink=False)
    assert res.divergence is not None
    assert res.divergence.op_index == 0
    assert "returned False" in res.divergence.message and why in res.divergence.message


def test_get_divergence_detected():
    ops = [TraceOp("U", 5, 50), TraceOp("G", 5)]
    res = run_trace(ops, 7, map_factory=LyingGetMap, shrink=False)
    assert res.divergence is not None
    assert res.divergence.op_index == 1
    assert "get(5)" in res.divergence.message


def test_contains_divergence_detected():
    ops = [TraceOp("C", 5)]
    res = run_trace(ops, 7, map_factory=LyingContainsMap, shrink=False)
    assert res.divergence is not None
    assert "contains(5)" in res.divergence.message


def test_divergence_detected_and_shrunk():
    cfg = FuzzConfig(seed=21, op_count=2000, mask_exponent=3)
    mask, ops = generate_trace(cfg)
    res = run_trace(ops, mask, map_factory=DroppedRemoveMap)
    assert res.divergence is not None
    assert "snapshot" in res.divergence.message
    assert res.minimized
    assert len(res.minimized) <= 4
    # Shrinking soundness: the minimized trace still reproduces a divergence.
    replay = run_trace(res.minimized, mask, map_factory=DroppedRemoveMap, shrink=False)
    assert replay.divergence is not None
    # And it is clean on the real implementation.
    assert run_trace(res.minimized, mask, shrink=False).ok


def declined(monkeypatch):
    """Turn the delta step off: every op goes to the full check."""
    monkeypatch.setattr(conformance._VerifiedState, "accepts", lambda self, inner, model, k: False)


def count_full_checks(monkeypatch) -> list:
    """Record every call of the full equivalence check, by monkeypatch."""
    calls = []
    full = conformance.equivalence_violation

    def counted(m, model):
        calls.append(m)
        return full(m, model)

    monkeypatch.setattr(conformance, "equivalence_violation", counted)
    return calls


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_delta_step_keeps_every_mutant_divergence(mutant, monkeypatch):
    kwargs = {"default_entry": mutant.default_entry, "shrink": False}
    if mutant.map_factory is not None:
        kwargs["map_factory"] = mutant.map_factory
    for exp in (3, 6, 10):
        mask, ops = generate_trace(FuzzConfig(seed=42, op_count=3000, mask_exponent=exp))
        with applied(mutant):
            on = run_trace(ops, mask, **kwargs)
            with monkeypatch.context() as mp:
                declined(mp)
                off = run_trace(ops, mask, **kwargs)
        assert on.divergence == off.divergence
        assert on.equivalence_checks == off.equivalence_checks


TARGET = 13  # at mask 15 its probe path runs through keys 1 and 4 to slot 15
CORRUPTION_TRACE = [TraceOp("U", k, 10 * k) for k in (1, 2, 3, 4, 5, TARGET)] + [
    TraceOp("R", 1),  # leaves a tombstone at the head of TARGET's path
    TraceOp("U", TARGET, 131),
    TraceOp("U", 0, 7),
    TraceOp("R", TARGET),
    *(TraceOp("G", k) for k in (0, 1, 2, 3, 4, 5, TARGET)),
]


def probe_path(k, mask):
    e = to_index(k, mask)
    yield e
    for x in range(1, MAX_PROBES):
        e = next_probe(e, x, mask)
        yield e


class CorruptsAfterTrigger(FixedLongMap):
    """Fault injection: after the op ``trigger``, the state is broken once."""

    trigger = TraceOp("U", TARGET, 131)

    def update(self, key, value):
        ok = super().update(key, value)
        if TraceOp("U", key, value) == self.trigger:
            self.corrupt()
        return ok

    def other_key_slot(self) -> int:
        return next(i for i, k in enumerate(self.keys) if is_valid_key(k) and k != TARGET)


class RewritesOtherValue(CorruptsAfterTrigger):
    def corrupt(self):
        self.values[self.other_key_slot()] += 1


class RewritesOtherValueOnSentinelOp(RewritesOtherValue):
    trigger = TraceOp("U", 0, 7)


class RewritesTargetValue(CorruptsAfterTrigger):
    def corrupt(self):
        self.values[self.keys.index(TARGET)] += 1


class CopiesTargetTwice(CorruptsAfterTrigger):
    """Copies TARGET into the tombstone ahead of it on its probe path."""

    def corrupt(self):
        i = self.keys.index(TARGET)
        j = next(e for e in probe_path(TARGET, self.mask) if self.keys[e] == LONG_MIN)
        self.keys[j], self.values[j] = TARGET, self.values[i]


class StoresTargetOverOtherKey(CorruptsAfterTrigger):
    """Moves TARGET onto the first other key on its probe path, which is lost."""

    def corrupt(self):
        t = self.keys.index(TARGET)
        s = next(e for e in probe_path(TARGET, self.mask) if is_valid_key(self.keys[e]))
        self.keys[s], self.values[s] = TARGET, self.values[t]
        self.keys[t], self.values[t] = 0, 0


class TombstoneTakesOtherKey(CorruptsAfterTrigger):
    """Removing TARGET leaves another stored pair in its slot, not a tombstone."""

    trigger = TraceOp("R", TARGET)

    def remove(self, key):
        t = self.keys.index(TARGET) if key == TARGET else None
        ok = super().remove(key)
        if t is not None:
            o = self.other_key_slot()
            self.keys[t], self.values[t] = self.keys[o], self.values[o]
        return ok


class FlipsSentinelBit(CorruptsAfterTrigger):
    def corrupt(self):
        self.extra_keys ^= 1


class MovesOtherKey(CorruptsAfterTrigger):
    """Moves a stored key to the first empty slot on its probe path past its
    own, leaving a counted tombstone behind: the pairs, seekability and
    counters are intact."""

    def corrupt(self):
        i = self.other_key_slot()
        path = probe_path(self.keys[i], self.mask)
        next(e for e in path if e == i)
        j = next(e for e in path if self.keys[e] == 0)
        self.keys[j], self.values[j] = self.keys[i], self.values[i]
        self.keys[i], self.values[i] = LONG_MIN, 0
        self.tombstones += 1


@pytest.mark.parametrize(
    "factory, message",
    [
        (RewritesOtherValue, "value mismatch for key 5 at index 0"),
        (RewritesOtherValueOnSentinelOp, "value mismatch for key 5 at index 0"),
        (RewritesTargetValue, f"value mismatch for key {TARGET} "),
        (CopiesTargetTwice, f"key {TARGET} duplicated at indexes"),
        (StoresTargetOverOtherKey, "model key 4 does not occur"),
        (TombstoneTakesOtherKey, "key 5 duplicated at indexes 0 and"),
        (FlipsSentinelBit, "sentinel fields"),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else "",
)
def test_corruption_caught_at_its_op_by_the_full_check(factory, message, monkeypatch):
    res = run_trace(CORRUPTION_TRACE, 15, map_factory=factory, shrink=False)
    assert res.divergence.op_index == CORRUPTION_TRACE.index(factory.trigger)
    assert res.divergence.message.startswith(f"snapshot != model: {message}")
    declined(monkeypatch)
    assert run_trace(CORRUPTION_TRACE, 15, map_factory=factory, shrink=False).divergence == res.divergence


class RewritesOtherValueByNegativeIndex(CorruptsAfterTrigger):
    def corrupt(self):
        self.values[self.other_key_slot() - len(self.values)] += 1


class RewritesOtherValueBySlice(CorruptsAfterTrigger):
    def corrupt(self):
        i = self.other_key_slot()
        self.values[i : i + 1] = array("q", [self.values[i] + 1])


class RewritesOtherValueByDel(CorruptsAfterTrigger):
    """Deletes another key's value and inserts it back changed: the length
    is kept and the insert goes past the journal, so only the deletion's
    record shows the write."""

    def corrupt(self):
        i = self.other_key_slot()
        v = self.values[i]
        del self.values[i]
        self.values.insert(i, v + 1)


@pytest.mark.parametrize(
    "factory",
    [RewritesOtherValue, RewritesOtherValueByNegativeIndex, RewritesOtherValueBySlice, RewritesOtherValueByDel],
    ids=lambda f: f.__name__,
)
def test_stray_write_caught_at_its_op_by_the_journal(factory, monkeypatch):
    # Each map writes once to a slot the op did not touch; the journal names
    # the slot, the delta step declines and the full check catches it.
    calls = count_full_checks(monkeypatch)
    res = run_trace(CORRUPTION_TRACE, 15, map_factory=factory, shrink=False)
    assert res.divergence.op_index == CORRUPTION_TRACE.index(factory.trigger)
    assert res.divergence.message.startswith("snapshot != model: value mismatch for key 5 at index 0")
    assert len(calls) == 2  # the first op, then the op of the stray write
    declined(monkeypatch)
    assert run_trace(CORRUPTION_TRACE, 15, map_factory=factory, shrink=False).divergence == res.divergence


class GrowableRewritesOtherValue(RewritesOtherValue, GrowableLongMap):
    pass


def test_no_journal_outlives_a_run():
    mask, ops = generate_trace(FuzzConfig(seed=4, op_count=2048, mask_exponent=10))
    runs = [
        run_trace(ops, mask, shrink=False),
        run_trace(ops, mask, map_factory=lambda mask, entry: GrowableLongMap(1, entry), shrink=False),
        run_trace(CORRUPTION_TRACE, 15, map_factory=RewritesOtherValue, shrink=False),
        run_trace(CORRUPTION_TRACE, 1, map_factory=GrowableRewritesOtherValue, shrink=False),
    ]
    assert [r.ok for r in runs] == [True, True, False, False]
    for r in runs:
        assert type(r.final_map.keys) is array and type(r.final_map.values) is array


def test_equivalent_relayout_falls_back_and_passes(monkeypatch):
    calls = count_full_checks(monkeypatch)
    res = run_trace(CORRUPTION_TRACE, 15, map_factory=MovesOtherKey, shrink=False)
    assert res.ok, res.divergence
    # The first op, then the op whose change touched a slot off TARGET's path.
    assert len(calls) == 2


def test_full_check_runs_once_on_a_clean_trace(monkeypatch):
    calls = count_full_checks(monkeypatch)
    mask, ops = generate_trace(FuzzConfig(seed=4, op_count=2048, mask_exponent=10))
    res = run_trace(ops, mask, shrink=False)
    assert res.ok and res.equivalence_checks == 2048
    assert len(calls) == 1


def test_full_check_runs_once_per_growth(monkeypatch):
    calls = count_full_checks(monkeypatch)
    mask, ops = generate_trace(FuzzConfig(seed=4, op_count=2048, mask_exponent=10))
    res = run_trace(ops, mask, map_factory=lambda mask, entry: GrowableLongMap(1, entry), shrink=False)
    assert res.ok and res.final_map.growth_count > 0
    assert len(calls) == 1 + res.final_map.growth_count


SMALL_VALUES = (1, 2, 3)  # few values, so a rewritten value often equals the old one
MASKS = (0, 1, 3, 7, 15)


def corrupted(rng, m, model, k, pool):
    """At most one fault after an op on ``k``: in one slot's key or value,
    in a sentinel field, in the model dict's entry for ``k``, ``k`` moved to
    another slot over what it held, a counter off by one, the mask changed,
    ``extra_keys`` past 3, or a tombstone emptied with the count kept right."""
    fault = rng.randrange(12)
    i = rng.randrange(len(m.keys))
    if fault == 0:
        m.keys[i] = rng.choice(pool)
    elif fault == 1:
        m.values[i] = rng.choice(SMALL_VALUES)
    elif fault == 2:
        m.extra_keys = rng.randrange(4)
    elif fault == 3:
        m.zero_value = rng.choice(SMALL_VALUES)
    elif fault == 4:
        m.min_value = rng.choice(SMALL_VALUES)
    elif fault == 5:
        if rng.random() < 0.5:
            model.pop(k, None)
        else:
            model[k] = rng.choice(SMALL_VALUES)
    elif fault == 6 and k in m.keys:
        j = m.keys.index(k)
        m.keys[i], m.values[i] = k, m.values[j]
        if i != j:
            m.keys[j] = rng.choice((0, LONG_MIN))
    elif fault == 7:
        m.array_size += rng.choice((-1, 1))
    elif fault == 8:
        m.tombstones += rng.choice((-1, 1))
    elif fault == 9:
        m.mask = rng.choice([x for x in MASKS if x != m.mask])
    elif fault == 10:
        m.extra_keys += 4
    elif fault == 11 and LONG_MIN in m.keys:
        m.keys[rng.choice([j for j, q in enumerate(m.keys) if q == LONG_MIN])] = 0
        m.tombstones -= 1


def test_delta_step_accepts_only_equivalent_states():
    # Random walks from empty maps at masks 0 to 15 over six keys and the
    # two sentinels, the copy kept across ops as run_trace keeps it. Half
    # the ops run on a fork of the map and its copy and are then faulted;
    # whenever the delta step accepts, the full check must agree: the state
    # matches the model and passes the class invariant.
    rng = random.Random(2107)
    pool = [rng.getrandbits(63) + 1 for _ in range(6)] + [0, LONG_MIN]
    unsound = []
    forks = {True: 0, False: 0}
    for _ in range(400):
        mask = rng.choice(MASKS)
        m, model, verified = FixedLongMap(mask), {}, None
        for _ in range(60):
            kind = rng.choice("UUURGC")
            op = TraceOp(kind, rng.choice(pool), rng.choice(SMALL_VALUES) if kind == "U" else 0)
            forked = rng.random() < 0.5
            t, after, state = copy.deepcopy((m, model, verified)) if forked else (m, model, verified)
            if state is not None:  # the copy and its journal survive the fork
                assert type(t.keys) is type(t.values) is conformance._Journaled
                assert t.keys.written is t.values.written is state.written
            assert conformance._apply_checked(t, after, op, zero_entry) is None
            if forked:
                corrupted(rng, t, after, op.key, pool)
            accepted = state is not None and state.accepts(t, after, op.key)
            if accepted and (equivalence_violation(t, as_listmap(after)) is not None or not check(t).valid):
                unsound.append((mask, op, list(t.keys), list(t.values), sorted(after.items())))
            if forked:
                forks[accepted] += 1
                continue
            if not accepted:
                assert equivalence_violation(m, as_listmap(model)) is None and check(m).valid
                verified = conformance._VerifiedState(m)
    assert unsound == []
    assert min(forks.values()) > 100


def test_model_twin_is_the_listmap_fold():
    # Seeded walks on correct fixed maps at masks 0 to 15 over six keys and
    # the two sentinels: after every op the twin dict's sorted entries are
    # the paper's model, the ListMap folded by insert and remove over the
    # same ops. A refused update folds nothing.
    rng = random.Random(1972)
    pool = [rng.getrandbits(63) + 1 for _ in range(6)] + [0, LONG_MIN]
    refused = {mask: 0 for mask in MASKS}
    absent_removes = 0
    for _ in range(300):
        mask = rng.choice(MASKS)
        m, model, fold = FixedLongMap(mask), {}, ListMap.empty()
        for _ in range(40):
            kind = rng.choice("UUURGC")
            op = TraceOp(kind, rng.choice(pool), rng.choice(SMALL_VALUES) if kind == "U" else 0)
            assert conformance._apply_checked(m, model, op, zero_entry) is None, op
            if op.kind == "U" and m.contains(op.key):  # a refused update leaves the key out
                fold = fold.insert(op.key, op.value)
            elif op.kind == "U":
                refused[mask] += 1
            elif op.kind == "R":
                absent_removes += not fold.contains(op.key)
                fold = fold.remove(op.key)
            assert tuple(sorted(model.items())) == fold.items(), (mask, op)
    assert refused[0] > 0 and refused[1] > 0
    assert absent_removes > 0


def test_checked_growable_fill_to_2_pow_18_slots(monkeypatch):
    # 2^16 + 1 fresh keys from mask 1: under the half-load rule the last one
    # doubles the map to 2^18 slots. The full check runs on the first op and
    # once after each of the 17 doublings.
    rng = random.Random(2107)
    seen, ops = set(), []
    while len(ops) < (1 << 16) + 1:
        k = rng.getrandbits(64) - (1 << 63)
        if is_valid_key(k) and k not in seen:
            seen.add(k)
            ops.append(TraceOp("U", k, k & 0xFF))
    calls = count_full_checks(monkeypatch)
    res = run_trace(ops, 1, map_factory=GrowableLongMap, shrink=False)
    assert res.ok, res.divergence
    assert len(res.final_map.keys) == 1 << 18 and res.final_map.growth_count == 17
    assert len(calls) == 1 + res.final_map.growth_count


def count_walks(monkeypatch) -> list:
    """Record the key of every probe-path walk the checker makes, by monkeypatch."""
    walked = []
    walk = conformance._stop_slot

    def counted(keys, k, *rest):
        walked.append(k)
        return walk(keys, k, *rest)

    monkeypatch.setattr(conformance, "_stop_slot", counted)
    return walked


def test_delta_step_walks_only_for_fresh_inserts(monkeypatch):
    mask, ops = generate_trace(FuzzConfig(seed=4, op_count=2048, mask_exponent=10))
    bare, held, fresh = FixedLongMap(mask), set(), []
    for op in ops:
        if op.kind == "U":
            if is_valid_key(op.key) and op.key not in held:
                fresh.append(op.key)
            held.add(op.key)
            assert bare.update(op.key, op.value)  # no refusal, so none is walked
        elif op.kind == "R":
            held.discard(op.key)
            assert bare.remove(op.key)
    walked = count_walks(monkeypatch)
    assert run_trace(ops, mask, shrink=False).ok
    assert walked == fresh


def test_delta_step_walks_no_path_for_reads_overwrites_and_removes_of_absent_keys(monkeypatch):
    rng = random.Random(5)
    stored = [rng.getrandbits(63) + 1 for _ in range(48)]
    absent = [rng.getrandbits(63) + 1 for _ in range(16)]
    m, model = FixedLongMap(63), {}
    for k in stored + [0]:
        assert conformance._apply_checked(m, model, TraceOp("U", k, k & 0xFF), zero_entry) is None
    verified = conformance._VerifiedState(m)
    tail = [TraceOp(kind, k) for k in stored + [0, LONG_MIN] for kind in "GC"]
    tail += [TraceOp("U", k, 7) for k in stored + [0]] + [TraceOp("R", k) for k in absent + [LONG_MIN]]
    tail += [TraceOp(kind, k) for k in absent for kind in "GC"]
    walked = count_walks(monkeypatch)
    for op in tail:
        assert conformance._apply_checked(m, model, op, zero_entry) is None, op
        assert verified.accepts(m, model, op.key), op
    assert walked == []


def test_trace_format_round_trip():
    cfg = FuzzConfig(seed=5, op_count=64, mask_exponent=3)
    mask, ops = generate_trace(cfg)
    text = format_trace(mask, ops)
    mask2, ops2 = parse_trace(text)
    assert mask2 == mask
    assert ops2 == ops


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("mask five\n", 1),
        ("mask 5\n", 1),
        ("size 7\n", 1),
        ("mask 7\nU 1\n", 2),
        ("mask 7\nX 1 2\n", 2),
        ("mask 7\nU 1 99999999999999999999999\n", 2),
        ("mask 7\nG abc\n", 2),
        ("mask 7\nU 1_0 2\n", 2),
        ("mask 7\nR \u0661\n", 2),
        ("mask 1_5\n", 1),
        # A line ends at \n alone; str.splitlines would also end it at these.
        *[(f"mask 3\nU 1 2{sep}X\n", 2) for sep in "\x0b\x0c\x1c\x1d\x1e\r"],
    ],
)
def test_trace_parse_errors(text, line):
    with pytest.raises(ParseError) as exc:
        parse_trace(text)
    assert exc.value.line_number == line


def test_trace_parses_crlf_lines():
    assert parse_trace("mask 3\r\nU 1 2\r\n\r\nG 1\r\n") == (3, [TraceOp("U", 1, 2), TraceOp("G", 1)])


def test_fuzz_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(seed=1, op_count=10, mask_exponent=31)
    with pytest.raises(ValueError):
        FuzzConfig(seed=1, op_count=0, mask_exponent=3)
    with pytest.raises(ValueError):
        FuzzConfig(seed=1, op_count=10, mask_exponent=3, sentinel_weight=0.9)


# Criterion 6's check of the probe loop against the two-phase reference.


def test_seek_agreement_on_empty_array():
    assert probe_violation([0] * 16, 15, 424242) is None


def test_seek_agreement_present_key():
    keys = [0] * 16
    k = 424242
    keys[to_index(k, 15)] = k
    assert probe_violation(keys, 15, k) is None


def test_seek_agreement_tombstone_relabel():
    # A tombstone at the home slot is the open slot the miss reports.
    k = 424242
    keys = [0] * 16
    keys[to_index(k, 15)] = LONG_MIN
    assert probe_violation(keys, 15, k) is None


def test_seek_agreement_over_generated_maps():
    for seed in range(25):
        m, pool = build_map(7, 40, seed=900 + seed)
        for k in pool:
            if is_valid_key(k):
                assert probe_violation(m.keys, m.mask, k) is None
