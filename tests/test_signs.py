"""Sign-vector algebra: round trips, composition, conformality."""

import pytest
from hypothesis import given, strategies as st

from omsal.errors import LengthMismatch
from omsal.signs import (
    SignVector,
    compose,
    conforms,
    separation_mask,
)

from oracles import element_set, separation_set

sign_strings = st.text(alphabet="+-0", min_size=1, max_size=9)


@st.composite
def vector_pairs(draw, count=2):
    n = draw(st.integers(min_value=1, max_value=9))
    strs = st.text(alphabet="+-0", min_size=n, max_size=n)
    return tuple(SignVector.from_string(draw(strs)) for _ in range(count))


def test_string_round_trip_examples():
    for s in ("+", "-", "0", "+-0", "00++--", "0" * 9):
        assert str(SignVector.from_string(s)) == s


@given(sign_strings)
def test_string_round_trip(s):
    assert str(SignVector.from_string(s)) == s


def test_bad_characters_rejected():
    for bad in ("x", "+-*", "1", "+ -"):
        with pytest.raises(ValueError):
            SignVector.from_string(bad)


def test_masks_are_validated():
    # the + and - masks are disjoint and inside the ground set {1..n}
    with pytest.raises(ValueError, match=r"^an element cannot be both \+ and -$"):
        SignVector(3, 0b011, 0b010)
    for plus, minus in ((0b1000, 0), (0, 0b100000), (-1, 0)):
        with pytest.raises(ValueError, match="^mask bits outside the ground set$"):
            SignVector(3, plus, minus)
    assert SignVector(3, 0b001, 0b110) == SignVector.from_string("+--")


def test_zero_vector():
    z = SignVector.zero(4)
    assert not z.support_mask
    assert str(z) == "0000"
    assert element_set(z.support_mask) == frozenset()
    assert element_set(z.zero_mask) == frozenset({1, 2, 3, 4})


def test_sign_and_support():
    x = SignVector.from_string("+0-")
    assert (x.sign(1), x.sign(2), x.sign(3)) == (1, 0, -1)
    assert element_set(x.support_mask) == frozenset({1, 3})
    assert element_set(x.zero_mask) == frozenset({2})
    assert SignVector.from_signs([1, 0, -1]) == x


@given(sign_strings)
def test_negation_involution(s):
    x = SignVector.from_string(s)
    assert -(-x) == x
    assert (-x).support_mask == x.support_mask


@given(vector_pairs())
def test_compose_idempotent_absorbing(pair):
    x, y = pair
    z = SignVector.zero(x.n)
    assert compose(x, x) == x
    assert compose(x, z) == x
    assert compose(z, x) == x
    assert compose(x, y).support_mask == x.support_mask | y.support_mask


@given(vector_pairs(count=3))
def test_compose_associative(triple):
    x, y, z = triple
    assert compose(compose(x, y), z) == compose(x, compose(y, z))


@given(vector_pairs())
def test_compose_order_matters_only_on_separation(pair):
    x, y = pair
    sep = separation_set(x, y)
    a, b = compose(x, y), compose(y, x)
    for e in range(1, x.n + 1):
        if e not in sep:
            assert a.sign(e) == b.sign(e)
        else:
            assert a.sign(e) == -b.sign(e)


def test_compose_example():
    x = SignVector.from_string("+0-0")
    y = SignVector.from_string("-+++")
    assert str(compose(x, y)) == "++-+"
    assert str(compose(y, x)) == "-+++"


@given(vector_pairs())
def test_separation_symmetric(pair):
    x, y = pair
    assert separation_mask(x, y) == separation_mask(y, x)
    assert separation_mask(x, x) == 0
    assert separation_set(x, -x) == element_set(x.support_mask)


@given(vector_pairs())
def test_conforms_is_a_partial_order(pair):
    x, y = pair
    assert conforms(x, x)
    assert conforms(SignVector.zero(x.n), x)
    if conforms(y, x) and conforms(x, y):
        assert x == y
    if conforms(y, x):
        # y <= x means composing with x changes nothing off supp(y)
        assert compose(y, x) == x


def test_conforms_examples():
    leq = lambda a, b: conforms(SignVector.from_string(a), SignVector.from_string(b))
    assert leq("0+0", "++-")
    assert leq("000", "+-0")
    assert not leq("++-", "0+0")
    assert not leq("+", "-")
    assert not leq("0-", "0+")


def test_length_mismatch_raises():
    x = SignVector.from_string("+-")
    y = SignVector.from_string("+-0")
    with pytest.raises(LengthMismatch):
        compose(x, y)
    with pytest.raises(LengthMismatch):
        separation_mask(x, y)
    with pytest.raises(LengthMismatch):
        conforms(x, y)


def test_canonical_sort_order():
    # '+' < '-' < '0' in ASCII; everything downstream leans on this
    vals = sorted(["0+", "++", "-0", "+-", "00", "--"])
    assert vals == ["++", "+-", "--", "-0", "0+", "00"]
