from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forestnull import PrimeField, QQ, ValidationError, parse_field_spec

GF5 = PrimeField(5)
GF7 = PrimeField(7)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
gf7_elements = st.integers(min_value=0, max_value=6)


def test_rational_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.mul(Fraction(7, 4), QQ.inv(Fraction(7, 4))) == 1
    assert QQ.add(Fraction(-3), QQ.zero) == Fraction(-3)


def test_prime_field_basics():
    assert GF5.add(3, 4) == 2
    assert GF7.inv(3) == 5
    assert GF7.mul(3, GF7.inv(3)) == 1
    assert GF5.neg(0) == 0


def test_inverse_of_zero_is_reported():
    with pytest.raises(ValidationError):
        QQ.inv(Fraction(0))
    with pytest.raises(ValidationError):
        GF7.inv(0)


def test_prime_field_rejects_composites():
    with pytest.raises(ValidationError):
        PrimeField(4)
    with pytest.raises(ValidationError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(1000003)


def test_prime_field_rejects_strong_pseudoprimes():
    # composite, yet a strong probable prime to each of the bases 2..37
    with pytest.raises(ValidationError, match="prime"):
        PrimeField(399165290221 * 798330580441)
    # the smallest strong pseudoprime to 2..41: beyond the exact range
    with pytest.raises(ValidationError, match="below"):
        PrimeField(3317044064679887385961981)
    PrimeField(2 ** 61 - 1)


@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


@given(gf7_elements, gf7_elements, gf7_elements)
def test_prime_field_axioms(a, b, c):
    assert GF7.add(GF7.add(a, b), c) == GF7.add(a, GF7.add(b, c))
    assert GF7.mul(GF7.mul(a, b), c) == GF7.mul(a, GF7.mul(b, c))
    assert GF7.mul(a, GF7.add(b, c)) == GF7.add(GF7.mul(a, b), GF7.mul(a, c))
    assert GF7.add(a, GF7.neg(a)) == 0
    if a != 0:
        assert GF7.mul(a, GF7.inv(a)) == 1


@given(rationals, rationals)
def test_rational_canonical_equality(a, b):
    # Fractions are kept reduced with positive denominators, so equality
    # of values is equality of representations.
    assert QQ.eq(a, b) == ((a.numerator, a.denominator) == (b.numerator, b.denominator))


def test_rational_canonical_form():
    x = QQ.coerce(Fraction(6, -4))
    assert (x.numerator, x.denominator) == (-3, 2)


def test_parsing():
    assert QQ.parse("5/3") == Fraction(5, 3)
    assert QQ.parse("-3") == Fraction(-3)
    assert QQ.parse("0.25") == Fraction(1, 4)
    assert GF7.parse("10") == 3
    assert GF7.parse("-1") == 6
    with pytest.raises(ValidationError):
        QQ.parse("abc")
    with pytest.raises(ValidationError):
        GF7.parse("1/2")
    with pytest.raises(ValidationError):
        QQ.coerce(0.25)  # floats are banned, exact text only


def test_field_spec():
    assert parse_field_spec("rational") == QQ
    assert parse_field_spec("gf:7") == PrimeField(7)
    assert parse_field_spec("gf 7") == PrimeField(7)
    assert parse_field_spec("gf:7") != PrimeField(5)
    with pytest.raises(ValidationError):
        parse_field_spec("complex")
