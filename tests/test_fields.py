import re
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
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
        QQ.inv(0)
    with pytest.raises(ValidationError):
        GF7.inv(0)


@given(rationals.filter(bool))
def test_rational_inverse_is_one_over(a):
    got = QQ.inv(a)
    assert type(got) is Fraction and got == 1 / a


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
    assert (a == b) == ((a.numerator, a.denominator) == (b.numerator, b.denominator))


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


# --- the literal fast path against Fraction(text) --------------------------

LITERAL_ALPHABET = "0123456789-+/_.eE \u00b2\u0663"
LONG = st.integers(4295, 4310).map(lambda k: "7" * k)
# Exponents stay below about 10^6 here, so that a parser which builds the
# power instead of refusing it fails fast; test_io_cli runs 10^9 in a
# subprocess with a timeout.
literals = st.one_of(
    st.text(LITERAL_ALPHABET, max_size=8),
    st.tuples(st.sampled_from(("", "-", "+", " ")), LONG | st.text("0123456789", max_size=4),
              st.sampled_from(("", "/", "/-", ".", "e", "e-", " ")),
              LONG | st.text("0123456789_", max_size=4)).map("".join),
    st.tuples(st.sampled_from(("1", "-2.5", "3/4", "1_0.", "\u0663")), st.sampled_from("eE"),
              st.integers(-10 ** 6, 10 ** 6).map(str)).map("".join),
)


def reference_parse(text):
    """Fraction(text), or the error text QQ.parse must give instead."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return "bad rational literal %r: %s" % (text, exc)


def exponent_beyond_limit(text):
    """True when text is a literal Fraction accepts apart from the size of
    its exponent, and that exponent is larger than the digit limit."""
    m = re.fullmatch(r"(.*)[eE]([-+]?[\d_]+)(\s*)", text, re.DOTALL)
    limit = sys.get_int_max_str_digits()
    if m is None or not limit:
        return False
    try:
        exponent = int(m[2])
    except ValueError:  # malformed, or more digits than the limit
        return False
    return abs(exponent) > limit and isinstance(reference_parse(m[1] + "e0" + m[3]),
                                                Fraction)


@settings(max_examples=600, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(literals)
def test_rational_parse_agrees_with_fraction(text):
    if exponent_beyond_limit(text):
        with pytest.raises(ValidationError, match="exponent larger than"):
            QQ.parse(text)
        return
    expected = reference_parse(text)
    try:
        got = QQ.parse(text)
    except ValidationError as exc:
        assert str(exc) == expected
    else:
        assert type(got) is Fraction and got == expected


def test_rational_parse_fast_path_edge_cases():
    assert QQ.parse("-0") == 0 and QQ.parse("007/014") == Fraction(1, 2)
    assert QQ.parse("\u0663/2") == Fraction(3, 2)  # non-ASCII digit: Fraction's path
    for text, problem in (("5/0", "Fraction(5, 0)"), ("-5/0", "Fraction(-5, 0)"),
                          ("\u00b2", "Invalid literal"), ("1/-2", "Invalid literal"),
                          ("7" * 4301, "Exceeds the limit"), ("1e5000", "exponent larger"),
                          ("-1.5E-999_999", "exponent larger")):
        with pytest.raises(ValidationError, match=re.escape(problem)):
            QQ.parse(text)


def test_field_spec():
    assert parse_field_spec("rational") == QQ
    assert parse_field_spec("gf:7") == PrimeField(7)
    assert parse_field_spec("gf 7") == PrimeField(7)
    assert parse_field_spec("gf:7") != PrimeField(5)
    with pytest.raises(ValidationError):
        parse_field_spec("complex")
