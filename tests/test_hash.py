"""Slot-index hash: bit-exactness against the big-integer oracle."""

from hypothesis import given, strategies as st

from longmap import LONG_MAX, LONG_MIN, next_probe, to_index

from hash_oracle import to_index_oracle
from support import FIXED_KEYS

MASK_EXPONENTS = (0, 4, 10, 30)

# Spot anchors computed from the oracle alone, frozen here so the oracle and
# the implementation cannot drift together unnoticed.
FROZEN_VECTORS = {
    # (key, mask exponent) -> index
    (1, 4): 5,
    (1, 10): 309,
    (1, 30): 99607861,
    (-1, 30): 0,
    (2, 4): 10,
    (2, 10): 618,
    (2, 30): 198691434,
    (LONG_MIN, 4): 12,
    (LONG_MIN, 10): 428,
    (LONG_MIN, 30): 624339372,
    (LONG_MAX, 30): 624339372,
    (42, 4): 7,
    (42, 10): 247,
    (42, 30): 950595831,
    (-42, 30): 851508536,
    (1 << 32, 30): 99607861,
    (-987654321987654321, 4): 9,
    (-987654321987654321, 10): 633,
    (-987654321987654321, 30): 885534329,
}


def test_key_zero_hashes_to_zero():
    for exp in MASK_EXPONENTS:
        assert to_index(0, (1 << exp) - 1) == 0


def test_mask_zero_sends_everything_to_zero():
    assert len(set(FIXED_KEYS)) == 64  # criterion 1's 64 keys are distinct
    for k in FIXED_KEYS:
        assert to_index(k, 0) == 0


def test_frozen_vectors():
    for (k, exp), want in FROZEN_VECTORS.items():
        assert to_index(k, (1 << exp) - 1) == want, (k, exp)


def test_min_and_max_collide():
    # Both fold to the same 32-bit pattern in the first mixing step.
    for exp in MASK_EXPONENTS:
        mask = (1 << exp) - 1
        assert to_index(LONG_MIN, mask) == to_index(LONG_MAX, mask)


@given(
    st.integers(min_value=LONG_MIN, max_value=LONG_MAX),
    st.integers(min_value=0, max_value=30),
)
def test_index_always_in_range(key, exp):
    mask = (1 << exp) - 1
    assert 0 <= to_index(key, mask) <= mask
    assert to_index(key, mask) == to_index_oracle(key, mask)


def test_next_probe_small_steps():
    assert next_probe(5, 1, 15) == 6
    assert next_probe(6, 2, 15) == 15
    assert next_probe(15, 3, 15) == 4


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=2048),
    st.data(),
)
def test_next_probe_in_range(exp, x, data):
    mask = (1 << exp) - 1
    e = data.draw(st.integers(min_value=0, max_value=mask))
    assert 0 <= next_probe(e, x, mask) <= mask
