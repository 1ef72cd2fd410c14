"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager

import pytest

from longmap import (
    LONG_MIN,
    MAX_PROBES,
    FixedLongMap,
    GrowableLongMap,
    ListMap,
    is_valid_key,
    next_probe,
    run_fuzz,
    run_trace,
    snapshot_model,
    to_index,
)
import longmap.core as core
from longmap.bench import run_bench
from longmap.conformance import FuzzConfig, TraceOp, generate_trace
from longmap.invariants import check

from hash_oracle import to_index_oracle
from test_growable import fill_colliding, growth_watched, tombstone_free_capacity
from test_hash import FIXED_KEYS
from test_seek import probe_violation

FUZZ_EXPONENTS = (0, 1, 2, 4, 6, 8, 10)
OPS_PER_EXPONENT = 15_000
LEMMA_CASES = 10_000
AGREEMENT_ARRAYS = 10_000


def _announce(line):
    print(line)


@contextmanager
def probe_auditor(stats):
    """Wrap ``core._probe``, the one probe loop every seek runs through, for
    the length of the block and tally its outcomes into ``stats``."""
    probe = core._probe

    def audited(k, keys, mask):
        result = probe(k, keys, mask)
        kind, _, iters = result
        stats["seeks"] += 1
        if iters > stats["max_iters"]:
            stats["max_iters"] = iters
        undefined = kind == core.UNDEFINED
        if undefined:
            stats["undefined"] += 1
        if undefined != (iters >= MAX_PROBES):
            stats["iff_violations"] += 1
        return result

    core._probe = audited
    try:
        yield stats
    finally:
        core._probe = probe


@pytest.fixture(scope="module")
def fuzz_corpus():
    """Criterion-3 corpus, executed once under the probe auditor."""
    stats = {"seeks": 0, "max_iters": 0, "undefined": 0, "iff_violations": 0}
    results = {}
    started = time.perf_counter()
    with probe_auditor(stats):
        for exp in FUZZ_EXPONENTS:
            cfg = FuzzConfig(
                seed=3000 + exp,
                op_count=OPS_PER_EXPONENT,
                mask_exponent=exp,
                sentinel_weight=0.05,
            )
            results[exp] = run_fuzz(cfg)
    return {"results": results, "audit": stats, "elapsed": time.perf_counter() - started}


def agreement_arrays(count):
    """The first ``count`` arrays of the criterion-6 corpus, each built
    through map ops and yielded as ``(map, keys to probe in it)``."""
    rng = random.Random(66066)
    for arrays in range(1, count + 1):
        mask = (1 << ((arrays - 1) % 7)) - 1
        m = FixedLongMap(mask)
        pool = []
        pool_set = set()
        while len(pool) < 2 * (mask + 1):
            k = rng.getrandbits(64) - (1 << 63)
            if is_valid_key(k) and k not in pool_set:
                pool_set.add(k)
                pool.append(k)
        for _ in range(min(2 * (mask + 1), 48)):
            k = pool[rng.randrange(len(pool))]
            if rng.random() < 0.6:
                m.update(k, rng.getrandbits(64) - (1 << 63))
            else:
                m.remove(k)
        probes = pool[: min(len(pool), 6)]
        while True:
            fresh = rng.getrandbits(64) - (1 << 63)
            if is_valid_key(fresh) and fresh not in pool_set:
                probes.append(fresh)
                break
        yield m, probes


@pytest.fixture(scope="module")
def agreement_corpus():
    """Criterion-6 corpus: each probed key's one probe-loop result checked
    against the two-phase reference and the array."""
    stats = {"seeks": 0, "max_iters": 0, "undefined": 0, "iff_violations": 0}
    arrays = 0
    checks = 0
    failures = []
    with probe_auditor(stats):
        for m, probes in agreement_arrays(AGREEMENT_ARRAYS):
            arrays += 1
            if arrays % 97 == 0:
                assert check(m).valid  # spot-check the construction
            for k in probes:
                checks += 1
                msg = probe_violation(m.keys, m.mask, k)
                if msg is not None:
                    failures.append((m.mask, k, msg))
    return {"arrays": arrays, "checks": checks, "failures": failures, "audit": stats}


def test_criterion_01_hash_bit_exactness():
    started = time.perf_counter()
    assert len(FIXED_KEYS) == 64
    vectors = 0
    for exp in (0, 4, 10, 30):
        mask = (1 << exp) - 1
        for k in FIXED_KEYS:
            assert to_index(k, mask) == to_index_oracle(k, mask), (k, exp)
            vectors += 1
    elapsed = time.perf_counter() - started
    assert vectors == 256
    assert elapsed < 1.0
    _announce(f"criterion 1 PASS: {vectors} hash vectors bit-exact vs oracle in {elapsed:.3f}s")


POOL16 = [LONG_MIN, -(2**40), -4099, -17, -1, 0, 1, 2, 3, 7, 64, 4099, 2**31, 2**45, 2**62, -2]


def _random_model(rng):
    m = ListMap.empty()
    for _ in range(rng.randrange(10)):
        k = POOL16[rng.randrange(16)]
        if rng.random() < 0.75:
            m = m.insert(k, rng.getrandbits(64) - (1 << 63))
        else:
            m = m.remove(k)
    return m


def _distinct(rng, a):
    while True:
        b = POOL16[rng.randrange(16)]
        if b != a:
            return b


def test_criterion_02_listmap_lemma_suite():
    started = time.perf_counter()
    rng = random.Random(2222)
    cases = dict.fromkeys(range(1, 10), 0)

    for _ in range(LEMMA_CASES):
        m = _random_model(rng)
        val = lambda: rng.getrandbits(64) - (1 << 63)
        a = POOL16[rng.randrange(16)]
        a0 = POOL16[rng.randrange(16)]
        b, b1, b2 = val(), val(), val()

        # 1: inserted maps keep containing what they contained
        m1 = m.insert(a0, b1)
        assert m1.insert(a, b).contains(a0)
        cases[1] += 1

        # 2: inserting a different key does not change a lookup
        other = _distinct(rng, a0)
        assert m1.insert(other, b).apply(a0) == m1.apply(a0)
        cases[2] += 1

        # 3: inserting a different key does not create membership
        m3 = m.remove(a0)
        assert not m3.insert(_distinct(rng, a0), b).contains(a0)
        cases[3] += 1

        # 4: inserts of distinct keys commute
        a2 = _distinct(rng, a)
        assert m.insert(a, b1).insert(a2, b2) == m.insert(a2, b2).insert(a, b1)
        cases[4] += 1

        # 5: re-inserting a key keeps only the last value
        assert m.insert(a, b2) == m.insert(a, b1).insert(a, b2)
        cases[5] += 1

        # 6: insert and remove of distinct keys commute
        assert m.insert(a, b1).remove(a2) == m.remove(a2).insert(a, b1)
        cases[6] += 1

        # 7: removing an absent key changes nothing
        m7 = m.remove(a0)
        assert m7.remove(a0) == m7
        cases[7] += 1

        # 8: insert-then-remove of a new key is the identity
        assert m7.insert(a0, b1).remove(a0) == m7
        cases[8] += 1

        # 9: the empty map contains nothing
        assert not ListMap.empty().contains(val())
        cases[9] += 1

    elapsed = time.perf_counter() - started
    assert all(n >= 10_000 for n in cases.values())
    assert elapsed < 30.0
    _announce(
        f"criterion 2 PASS: 9 lemmas x {LEMMA_CASES} randomized cases, "
        f"zero failures in {elapsed:.1f}s"
    )


def test_criterion_03_model_conformance(fuzz_corpus):
    results = fuzz_corpus["results"]
    total = 0
    for exp, res in results.items():
        assert res.ok, f"divergence at exponent {exp}: {res.divergence}"
        total += res.ops_run
    assert total >= 100_000
    assert fuzz_corpus["elapsed"] < 300.0
    _announce(
        f"criterion 3 PASS: {total} ops across exponents {FUZZ_EXPONENTS}, "
        f"zero divergences in {fuzz_corpus['elapsed']:.1f}s"
    )


def test_criterion_04_invariant_preservation(fuzz_corpus):
    results = fuzz_corpus["results"]
    checks = 0
    for exp, res in results.items():
        # Each per-op check covers the class invariant as well as the model.
        assert res.equivalence_checks == OPS_PER_EXPONENT, (exp, res.equivalence_checks)
        checks += res.equivalence_checks
    _announce(f"criterion 4 PASS: {checks} invariant checks, zero violations")


def test_criterion_05_equivalence_lemmas():
    checks = 0
    for exp in FUZZ_EXPONENTS:
        cfg = FuzzConfig(seed=5000 + exp, op_count=1_100, mask_exponent=exp, sentinel_weight=0.05)
        res = run_fuzz(cfg)
        assert res.ok, f"divergence at exponent {exp}: {res.divergence}"
        assert res.equivalence_checks >= 1_000
        checks += res.equivalence_checks
    _announce(
        f"criterion 5 PASS: equivalence lemmas on {checks} fuzz-reachable states "
        f"(>= 1000 per exponent)"
    )


def test_criterion_06_seek_agreement(agreement_corpus):
    assert agreement_corpus["arrays"] >= AGREEMENT_ARRAYS
    assert agreement_corpus["failures"] == []
    _announce(
        f"criterion 6 PASS: seek agreement on {agreement_corpus['arrays']} arrays, "
        f"{agreement_corpus['checks']} probed keys, zero failures"
    )


def test_criterion_07_probe_bound(fuzz_corpus, agreement_corpus):
    a, b = fuzz_corpus["audit"], agreement_corpus["audit"]
    combined = {key: a[key] + b[key] for key in a}
    combined["max_iters"] = max(a["max_iters"], b["max_iters"])
    assert combined["seeks"] > 100_000
    assert combined["max_iters"] <= MAX_PROBES
    assert combined["iff_violations"] == 0
    assert combined["undefined"] > 0
    _announce(
        f"criterion 7 PASS: {combined['seeks']} audited seeks, max {combined['max_iters']} "
        f"iterations, Undefined iff bound hit ({combined['undefined']} occurrences)"
    )


def test_criterion_08_capacity_semantics():
    m = FixedLongMap(1)
    assert m.update(11, 1)
    assert m.update(22, 2)
    before = snapshot_model(m)
    assert not m.update(33, 3)
    assert snapshot_model(m) == before
    assert m.update(0, 4)
    assert m.update(LONG_MIN, 5)
    assert m.size == 4
    _announce("criterion 8 PASS: mask=1 holds 2 array keys + both sentinels, 3rd key rejected")


def test_criterion_09_growable_decorator():
    growth_checks = []

    def factory(mask, default_entry):
        return GrowableLongMap(1, default_entry)

    def on_grow(old, new):
        growth_checks.append(snapshot_model(old) == snapshot_model(new))

    total = 0
    with growth_watched(on_grow):
        for exp in FUZZ_EXPONENTS:
            cfg = FuzzConfig(
                seed=9000 + exp, op_count=OPS_PER_EXPONENT, mask_exponent=exp, sentinel_weight=0.05
            )
            mask, ops = generate_trace(cfg)
            res = run_trace(ops, mask, map_factory=factory)
            assert res.ok, f"divergence at exponent {exp}: {res.divergence}"
            total += res.ops_run
    assert total >= 100_000
    assert growth_checks, "no growth events happened"
    assert all(growth_checks)
    _announce(
        f"criterion 9 PASS: {total} growable ops, {len(growth_checks)} growth events, "
        f"snapshots equal around every growth"
    )


def test_criterion_10_bench_sanity():
    started = time.perf_counter()
    report = run_bench(16, [0.1, 0.25, 0.5, 0.7, 0.9], ops_per_level=3_000, seed=7)
    elapsed = time.perf_counter() - started
    means = [lv.mean_probe_length for lv in report.levels]
    assert all(b > a for a, b in zip(means, means[1:])), means
    for lv in report.levels:
        assert sum(lv.probe_histogram.values()) == lv.measured_ops
    assert elapsed < 120.0
    _announce(
        "criterion 10 PASS: mean probe length strictly increasing "
        f"{[round(v, 3) for v in means]} at capacity 2^16 in {elapsed:.1f}s"
    )


CHURN_LIVE = 1_000
CHURN_STEPS = 60_000


def test_criterion_11_growable_churn():
    # Fresh-key churn around a fixed set of live keys: each step inserts a
    # new key, removes it, and removes a key never stored. Tombstones count
    # toward the threshold, so the map repacks in place instead of growing
    # or running out of probe budget.
    started = time.perf_counter()
    rng = random.Random(11011)
    fresh = set()

    def fresh_key():
        while True:
            k = rng.getrandbits(64) - (1 << 63)
            if is_valid_key(k) and k not in fresh:
                fresh.add(k)
                return k

    rebuilds = []

    def on_grow(old, new):
        rebuilds.append(snapshot_model(old) == snapshot_model(new))

    g = GrowableLongMap(1)
    live = {fresh_key(): rng.getrandbits(63) for _ in range(CHURN_LIVE)}
    refused = 0
    with growth_watched(on_grow):
        for k, v in live.items():
            refused += not g.update(k, v)
        for i in range(CHURN_STEPS):
            k = fresh_key()
            refused += not g.update(k, i)
            refused += not g.remove(k)
            refused += not g.remove(fresh_key())
    bound = 2 * tombstone_free_capacity(CHURN_LIVE)
    assert refused == 0
    assert g.capacity <= bound
    assert rebuilds and all(rebuilds)
    assert snapshot_model(g).items() == tuple(sorted(live.items()))
    assert check(g).valid

    colliding, refusals = fill_colliding(2100)
    colliding_bound = 2 * tombstone_free_capacity(colliding.array_size + 1)
    assert len(refusals) == 2100 - colliding.array_size
    assert colliding.capacity <= colliding_bound
    elapsed = time.perf_counter() - started
    _announce(
        f"criterion 11 PASS: {3 * CHURN_STEPS} churn ops on {CHURN_LIVE} live keys, capacity "
        f"{g.capacity} <= {bound}, zero refusals, {len(rebuilds)} rebuilds with equal snapshots; "
        f"2100 colliding keys: capacity {colliding.capacity} <= {colliding_bound}, "
        f"{len(refusals)} refusals within budget, in {elapsed:.1f}s"
    )


LARGE_EXPONENT = 16


def key_homed_at(slot: int, mask: int) -> int:
    """A positive key below 2**32 whose ``to_index`` at ``mask`` is ``slot``:
    the hash's three steps run backwards from ``slot | (mask + 1)``, which is
    never 0, so neither is the key."""
    y = slot | (mask + 1)
    x = y ^ (y >> 13) ^ (y >> 26)
    h = (x * pow(0x85EBCA6B, -1, 1 << 32)) & 0xFFFFFFFF
    return h ^ (h >> 16)


def growth_past_2_16_trace(seed: int) -> list:
    """Ops that take a growable map from mask 1 to 2^17 slots with no
    tombstone on the way, then churn it.

    2^14 + 1 fresh keys grow it to 2^16 slots. Then one key homed at each
    slot of a further key's probe budget fills that budget, so the key's
    insert is a probe-budget miss, which doubles a map whose live keys fill
    more than a quarter of it. Reads of stored and absent keys, removes of
    absent keys and sentinel ops are mixed in throughout; removes of stored
    keys only once the map is at 2^17.
    """
    rng = random.Random(seed)
    mask = (1 << LARGE_EXPONENT) - 1
    last = rng.getrandbits(64) - (1 << 63)
    e = to_index(last, mask)
    budget = {e}
    for x in range(1, MAX_PROBES):
        e = next_probe(e, x, mask)
        budget.add(e)
    fresh = [rng.getrandbits(64) - (1 << 63) for _ in range((mask + 1) // 4 + 1)]
    fresh += [key_homed_at(slot, mask) for slot in sorted(budget)]
    assert all(to_index(k, mask) in budget for k in fresh[-len(budget):])
    stored = []
    ops = []

    def read_or_miss():
        r = rng.random()
        if r < 0.15:
            ops.append(TraceOp(rng.choice("GC"), rng.choice(stored)))
        elif r < 0.2:
            ops.append(TraceOp(rng.choice("GCR"), rng.getrandbits(63) + 1))
        elif r < 0.22:
            ops.append(TraceOp("U", rng.choice((0, LONG_MIN)), rng.getrandbits(16)))
        elif r < 0.23:
            ops.append(TraceOp("R", rng.choice((0, LONG_MIN))))

    for k in fresh + [last]:
        ops.append(TraceOp("U", k, rng.getrandbits(16)))
        stored.append(k)
        read_or_miss()
    for _ in range(2_000):
        r = rng.random()
        if r < 0.4:
            ops.append(TraceOp("R", rng.choice(stored)))
        elif r < 0.7:
            ops.append(TraceOp("U", rng.choice(stored), rng.getrandbits(16)))
        else:
            read_or_miss()
    return ops


def test_criterion_12_large_capacity_conformance():
    # Past 2^11 slots the probe budget, not the table, bounds every walk, and
    # the checker's delta step costs the slots an op wrote, not the table.
    started = time.perf_counter()
    mask, fixed_ops = generate_trace(
        FuzzConfig(seed=12_000 + LARGE_EXPONENT, op_count=10_000, mask_exponent=LARGE_EXPONENT, key_pool_size=4096)
    )
    fixed = run_trace(fixed_ops, mask, shrink=False)
    assert fixed.ok, fixed.divergence
    assert fixed.equivalence_checks == len(fixed_ops)

    growable_ops = growth_past_2_16_trace(12_017)
    grown = run_trace(growable_ops, 1, map_factory=GrowableLongMap, shrink=False)
    assert grown.ok, grown.divergence
    assert grown.equivalence_checks == len(growable_ops)
    assert grown.final_map.capacity == 1 << (LARGE_EXPONENT + 1)
    assert grown.final_map.growth_count == LARGE_EXPONENT
    elapsed = time.perf_counter() - started
    _announce(
        f"criterion 12 PASS: {len(fixed_ops)} checked ops on a fixed map at 2^{LARGE_EXPONENT} and "
        f"{len(growable_ops)} on a growable map grown from mask 1 to {grown.final_map.capacity} slots "
        f"({grown.final_map.growth_count} growth events), zero divergences in {elapsed:.1f}s"
    )
