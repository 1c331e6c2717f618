import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from navier_norms.errors import UndefinedExtendedValue
from navier_norms.extrational import INF, ExtRational, Q

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_construction():
    assert Q(3, 2) == ExtRational(Fraction(3, 2))
    assert Q("3/2") == Q(3, 2)
    assert Q("inf") is INF
    assert Q(1, 0) == INF
    assert Q("1/0") == INF
    assert Q(Q(5)) == Q(5)


def test_exact_arguments_keep_their_meaning():
    # int and Fraction skip the "inf" tests; the other spellings keep them
    assert ExtRational("inf") == INF and ExtRational(float("inf")) == INF
    assert ExtRational(3, 0) == INF
    with pytest.raises(TypeError):
        ExtRational(float("inf"), 2)
    with pytest.raises(UndefinedExtendedValue, match="0/0"):
        ExtRational(0, 0)
    with pytest.raises(UndefinedExtendedValue, match="negative infinity"):
        ExtRational(-3, 0)
    negative = ExtRational(3, -6)
    assert (negative.numerator, negative.denominator) == (-1, 2)
    assert negative == Q("-1/2") and hash(negative) == hash(Fraction(-1, 2))
    assert ExtRational(True) == 1
    assert type(ExtRational(5).as_fraction()) is Fraction


@given(st.one_of(fractions, st.integers(-(10**30), 10**30)))
def test_exact_construction_matches_the_string_path(a):
    exact = ExtRational(a)
    assert exact == Q(str(a)) and hash(exact) == hash(Q(str(a))) == hash(Fraction(a))
    assert (exact.numerator, exact.denominator) == (Fraction(a).numerator, Fraction(a).denominator)


def test_zero_over_zero_rejected():
    with pytest.raises(UndefinedExtendedValue):
        ExtRational(0, 0)
    with pytest.raises(UndefinedExtendedValue):
        ExtRational(-1, 0)


def test_infinity_encoding():
    assert INF.numerator == 1
    assert INF.denominator == 0
    assert INF.is_infinite and not INF.is_finite
    assert float(INF) == math.inf
    assert str(INF) == "inf"


def test_reciprocal_conventions():
    assert INF.inv() == Q(0)
    assert Q(0).inv() == INF
    assert Q(3, 2).inv() == Q(2, 3)


def test_infinity_arithmetic():
    assert INF + Q(5) == INF
    assert Q(5) + INF == INF
    assert INF - Q(5) == INF
    assert INF * Q(2) == INF
    assert Q(5) / INF == Q(0)
    assert Q(5) / Q(0) == INF


@pytest.mark.parametrize(
    "op",
    [
        lambda: INF - INF,
        lambda: Q(5) - INF,
        lambda: Q(0) * INF,
        lambda: INF * Q(0),
        lambda: INF / INF,
        lambda: -INF,
    ],
)
def test_indeterminate_forms_raise(op):
    with pytest.raises(UndefinedExtendedValue):
        op()


def test_comparisons():
    assert Q(1) < Q(3, 2) < Q(2) < INF
    assert not (INF < INF)
    assert INF <= INF
    assert INF == INF
    assert Q(2) <= 2
    assert sorted([INF, Q(1), Q(1, 2)]) == [Q(1, 2), Q(1), INF]


def test_hash_and_equality_with_ints():
    assert Q(4, 2) == 2
    assert hash(Q(4, 2)) == hash(Q(2))
    assert {Q(1, 2), Q(2, 4)} == {Q(1, 2)}


def test_power():
    assert Q(2, 3) ** 2 == Q(4, 9)
    assert Q(0) ** -1 == INF
    assert INF**3 == INF
    with pytest.raises(UndefinedExtendedValue):
        INF**0


@given(a=fractions, b=fractions)
def test_finite_arithmetic_matches_fraction(a, b):
    qa, qb = ExtRational(a), ExtRational(b)
    assert (qa + qb).as_fraction() == a + b
    assert (qa - qb).as_fraction() == a - b
    assert (qa * qb).as_fraction() == a * b
    if b != 0:
        assert (qa / qb).as_fraction() == a / b
    assert (qa < qb) == (a < b)


@given(a=fractions)
def test_float_conversion(a):
    assert float(ExtRational(a)) == pytest.approx(float(a), rel=1e-15, abs=1e-300)
