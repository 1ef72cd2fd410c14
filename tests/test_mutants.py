"""Mutation testing: the differential checker catches every seeded defect.

Each mutant from ``mutants.py`` runs on the same three fuzz traces (seed 42,
3000 ops, capacities 2^3, 2^6 and 2^10), and the op index where ``run_trace``
first reports a divergence is pinned. A later index, or none, means the
checker got weaker.

``None`` marks a trace on which the mutant is not observable: the off-by-one
probe step is self-consistent, so it shows only when an update or remove
returns False with a 0 slot still within the true probe sequence's budget,
and at capacity 2^10 no op of this trace is rejected. Criterion 6's
comparison of the probe loop with the two-phase reference walk sees it
regardless; its catch count is pinned too.
"""

import pytest

from mutants import MUTANTS, applied
from longmap.conformance import FuzzConfig, generate_trace, run_trace
from test_acceptance import agreement_arrays
from test_seek import probe_violation

EXPONENTS = (3, 6, 10)

CAUGHT_AT = {
    "remove-writes-zero": (24, 142, 959),
    "size-not-decremented": (24, 39, 319),
    "sentinel-bits-swapped": (41, 9, 83),
    "get-ignores-default": (4, 3, 11),
    "growth-drops-a-pair": (1, 5, 1),
    "probe-step-off-by-one": (13, 300, None),
}


def test_corpus_is_pinned():
    assert [m.name for m in MUTANTS] == list(CAUGHT_AT)
    assert all(any(i is not None for i in row) for row in CAUGHT_AT.values())


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
@pytest.mark.parametrize("exp", EXPONENTS)
def test_mutant_caught(mutant, exp):
    mask, ops = generate_trace(FuzzConfig(seed=42, op_count=3000, mask_exponent=exp))
    kwargs = {"default_entry": mutant.default_entry}
    if mutant.map_factory is not None:
        kwargs["map_factory"] = mutant.map_factory
    with applied(mutant):
        res = run_trace(ops, mask, shrink=False, **kwargs)
    caught = res.divergence.op_index if res.divergence else None
    assert caught == CAUGHT_AT[mutant.name][EXPONENTS.index(exp)], res.divergence


def test_unmutated_map_is_clean():
    for exp in EXPONENTS:
        mask, ops = generate_trace(FuzzConfig(seed=42, op_count=3000, mask_exponent=exp))
        assert run_trace(ops, mask, shrink=False).ok


def test_probe_step_mutant_caught_by_the_criterion_6_reference():
    # On the first 250 arrays of criterion 6's corpus, laid out by the
    # mutant's own probe step, the loop disagrees with the reference walk.
    mutant = next(m for m in MUTANTS if m.name == "probe-step-off-by-one")
    probed = 0
    caught = []
    with applied(mutant):
        for m, probes in agreement_arrays(250):
            for k in probes:
                probed += 1
                msg = probe_violation(m.keys, m.mask, k)
                if msg is not None:
                    caught.append(msg)
    assert (probed, len(caught)) == (1534, 682)
    assert all("two-phase reference" in msg for msg in caught)
