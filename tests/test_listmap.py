"""ListMap model: operations and canonical representation. The lemma suite
is criterion 2 of the acceptance suite."""

import pytest
from hypothesis import given, strategies as st

from longmap import LONG_MIN, ListMap

# Small key pool so random cases overlap heavily.
KEY_POOL = [LONG_MIN, -(2**40), -17, -1, 0, 1, 2, 3, 5, 8, 13, 99, 2**31, 2**62, 7, -7]

keys = st.sampled_from(KEY_POOL)
values = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def list_maps(draw):
    m = ListMap.empty()
    for k, v in draw(st.lists(st.tuples(keys, values), max_size=12)):
        m = m.insert(k, v)
    return m


def test_empty():
    e = ListMap.empty()
    assert e.items() == ()
    assert not e.contains(3)
    assert e.remove(3) == e
    assert len(e) == 0


def test_insert_into_empty():
    m = ListMap.empty().insert(5, "v")
    assert m.items() == ((5, "v"),)


def test_insert_keeps_order():
    m = ListMap([(1, "a"), (3, "b")]).insert(2, "c")
    assert m.items() == ((1, "a"), (2, "c"), (3, "b"))
    assert repr(m) == "ListMap([(1, 'a'), (2, 'c'), (3, 'b')])"


def test_insert_replaces():
    m = ListMap([(1, "a")]).insert(1, "b")
    assert m.items() == ((1, "b"),)


def test_remove():
    assert ListMap([(1, "a"), (2, "b")]).remove(1).items() == ((2, "b"),)
    assert ListMap([(2, "b")]).remove(1).items() == ((2, "b"),)
    assert ListMap.empty().remove(1) == ListMap.empty()


def test_get_and_apply():
    m = ListMap([(1, "a")])
    assert m.get(1) == "a"
    assert m.get(2) is None
    assert m.apply(1) == "a"
    with pytest.raises(KeyError):
        m.apply(2)


def test_equality_is_extensional():
    e = ListMap.empty()
    assert e == ListMap.empty()
    assert e.insert(1, "a").insert(2, "b") == e.insert(2, "b").insert(1, "a")
    assert ListMap([(1, "a")]) != ListMap([(1, "b")])
    assert e != ()


def test_constructor_last_pair_wins():
    assert ListMap([(1, "a"), (1, "b")]) == ListMap([(1, "b")])


def test_min_key_sorts_first():
    m = ListMap([(5, "x"), (LONG_MIN, "y"), (0, "z")])
    assert m.keys() == (LONG_MIN, 0, 5)


@given(list_maps())
def test_representation_strictly_ordered(m):
    ks = m.keys()
    assert all(a < b for a, b in zip(ks, ks[1:]))
