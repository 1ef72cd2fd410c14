"""Mutation testing: the differential checker catches every seeded defect.

Each mutant from ``mutants.py`` runs on the same three fuzz traces (seed 42,
3000 ops, capacities 2^3, 2^6 and 2^10), and the op index where ``run_trace``
first reports a divergence is pinned, with the length of the trace the
shrinker minimizes it to. A later index, or none, means the checker got
weaker. A mutant whose map raises or never settles is a divergence like any
other, and a guard ends the run should a shrink hang. ``run_trace`` checks
the model and the class invariant after every op, so a mutant that breaks
either is caught at the op that breaks it: the counter and tombstone
mutants at the first remove of a present key.

The off-by-one probe step lays keys out by its own step; the invariant
walks each stored key's path by the true step, independently of the map's
probe loop, so it sees them off their paths. Criterion 6's comparison of
the probe loop with the two-phase reference walk sees the mutant too; its
catch count is pinned, with the invariant's on the same arrays, and so is
its catch on a trace of keys that share one probe path, which also catches
the 2047-probe budget that no fuzz trace reaches.
"""

import pytest

from mutants import BUDGET_MUTANT, MUTANTS, applied
from longmap.conformance import FuzzConfig, TraceOp, generate_trace, run_trace
from longmap.invariants import check
from support import agreement_arrays, colliding_keys, hang_guard, probe_violation

EXPONENTS = (3, 6, 10)

CAUGHT_AT = {
    "remove-writes-zero": (24, 39, 298),
    "size-not-decremented": (24, 39, 298),
    "sentinel-bits-swapped": (41, 9, 83),
    "get-ignores-default": (4, 3, 11),
    "growth-drops-a-pair": (1, 5, 1),
    "probe-step-off-by-one": (11, 49, 58),
    "tombstone-not-counted": (24, 39, 298),
    "rebuild-keeps-tombstones": (46, 49, 308),
    "rebuild-ignores-occupied-slots": (12, 29, 18),
    "rebuild-placement-budget-1": (12, 29, 18),
    "rebuild-mask-never-settles": (1, 5, 1),
}

# Length of the minimized trace of each catch above.
SHRUNK_TO = {
    "remove-writes-zero": (2, 2, 2),
    "size-not-decremented": (2, 2, 2),
    "sentinel-bits-swapped": (1, 1, 1),
    "get-ignores-default": (1, 1, 1),
    "growth-drops-a-pair": (2, 2, 2),
    "probe-step-off-by-one": (2, 2, 2),
    "tombstone-not-counted": (2, 2, 2),
    "rebuild-keeps-tombstones": (10, 4, 66),
    "rebuild-ignores-occupied-slots": (3, 3, 9),
    "rebuild-placement-budget-1": (3, 3, 9),
    "rebuild-mask-never-settles": (2, 2, 2),
}


def test_corpus_is_pinned():
    assert [m.name for m in MUTANTS] == list(CAUGHT_AT) == list(SHRUNK_TO)
    assert all(any(i is not None for i in row) for row in CAUGHT_AT.values())


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
@pytest.mark.parametrize("exp", EXPONENTS)
def test_mutant_caught(mutant, exp):
    mask, ops = generate_trace(FuzzConfig(seed=42, op_count=3000, mask_exponent=exp))
    kwargs = {"default_entry": mutant.default_entry}
    if mutant.map_factory is not None:
        kwargs["map_factory"] = mutant.map_factory
    with hang_guard(), applied(mutant):
        res = run_trace(ops, mask, **kwargs)
    caught = res.divergence.op_index if res.divergence else None
    assert caught == CAUGHT_AT[mutant.name][EXPONENTS.index(exp)], res.divergence
    assert len(res.minimized) == SHRUNK_TO[mutant.name][EXPONENTS.index(exp)]


def test_unmutated_map_is_clean():
    for exp in EXPONENTS:
        mask, ops = generate_trace(FuzzConfig(seed=42, op_count=3000, mask_exponent=exp))
        assert run_trace(ops, mask, shrink=False).ok


def test_probe_step_mutant_caught_by_the_criterion_6_reference():
    # On the first 250 arrays of criterion 6's corpus, laid out by the
    # mutant's own probe step, the loop disagrees with the reference walk,
    # and the invariant finds stored keys off their true probe paths.
    mutant = next(m for m in MUTANTS if m.name == "probe-step-off-by-one")
    probed = 0
    caught = []
    flagged = 0
    with applied(mutant):
        for m, probes in agreement_arrays(250):
            flagged += not check(m).valid
            for k in probes:
                probed += 1
                msg = probe_violation(m.keys, m.mask, k)
                if msg is not None:
                    caught.append(msg)
    assert (probed, len(caught)) == (1534, 682)
    assert flagged == 124
    assert all("two-phase reference" in msg for msg in caught)


def test_colliding_trace_catches_the_probe_path_mutants():
    # Inserts of 2049 keys sharing one probe path: at capacity 2^10 the
    # table fills and the rest are refused; at 2^12 the 2048th key sits on
    # the budget's last probe and the 2049th is refused. The full invariant
    # check runs on the first op only; after it the delta step walks just
    # each fresh key's path, so the probe-step mutant is caught at op 1.
    ops = [TraceOp("U", k, k) for k in colliding_keys(2049)]
    mutant = next(m for m in MUTANTS if m.name == "probe-step-off-by-one")
    for m, exp, caught in ((mutant, 10, 1), (BUDGET_MUTANT, 12, 2047)):
        mask = (1 << exp) - 1
        assert run_trace(ops, mask, shrink=False).ok
        with applied(m):
            res = run_trace(ops, mask, shrink=False)
        assert res.divergence.op_index == caught, res.divergence
