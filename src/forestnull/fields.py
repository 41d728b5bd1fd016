"""Exact field arithmetic: arbitrary-precision rationals and prime fields.

Everything downstream is generic over a ``Field`` object.  Elements are
plain immutable Python values -- ``fractions.Fraction`` for the rationals,
``int`` residues in ``[0, p)`` for a prime field -- so they are cheap to
hash, compare and share between threads.  The ``Field`` supplies the
operations; no floating point is used anywhere.

Truthiness is the zero test for every field: an element is zero iff
``not x``.  For a ``Fraction`` that is ``__bool__`` on the numerator,
which skips the ``numbers.Rational`` check that ``x == zero`` runs.
``coerce`` is the one value check: it returns a canonical element
unchanged, as its first test, and turns every other accepted value into
one.  It refuses a ``bool``: that is an ``int`` to Python, but a JSON
``true`` is no field value.

``RationalField.parse`` reads the literals ``-?[0-9]+`` and
``-?[0-9]+/[0-9]+`` (ASCII digits only) with ``int`` and builds the
``Fraction`` from the two integers; every other text goes through
``Fraction(text)``, which accepts decimals such as ``0.25`` or ``1e-3``.
Both paths give the same value and the same error text.  A decimal
whose exponent is larger than the integer string conversion limit
(``sys.get_int_max_str_digits()``; 0 switches the limit off) is
refused: it would take unbounded time to build and could not be
printed.  ``RationalField.format`` turns a value too long to print
under that limit into a ``ValidationError``.

``Field.reader()`` gives the text -> element callable for one read of
one file.  For a prime field it is ``parse`` itself: ``int(text) % p``
costs about what a table lookup does.  ``RationalField.reader()``
builds each distinct literal once and hands out the same immutable
``Fraction`` for every repeat, remembering at most ``READER_CAP``
distinct texts; nothing outlives the read.

Importing this module loads neither ``fractions`` nor ``re``, so a
prime-field program never pays for them.  ``fractions`` loads when the
first ``RationalField`` is made, which binds ``Fraction`` for every
element method; ``QQ`` is made on first access (PEP 562).  ``re`` loads
only for a rational literal that ``Fraction`` must read itself.
"""

from __future__ import annotations

import sys

from .errors import ValidationError

#: A literal that ``Fraction`` reads as a decimal with an exponent: the
#: decimal branch of the pattern in ``fractions``, case-insensitive.  It
#: is compiled on first use, through ``re``'s own cache; ``re`` loads
#: with it.
_DECIMAL_EXPONENT = (r"(?i)\s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
                     r"e(?P<exp>[-+]?\d+(?:_\d+)*)\s*")

#: Most distinct literals one ``RationalField.reader()`` remembers.
READER_CAP = 4096

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: The smallest strong pseudoprime to all of _MR_WITNESSES (Sorenson and
#: Webster, Math. Comp. 2017); the test is exact below it.
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below _MR_EXACT_BELOW."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _exponent_beyond_limit(text: str) -> bool:
    """True when ``Fraction(text)`` would read a decimal whose exponent
    is larger than the integer string conversion limit.  An exponent
    with more digits than the limit is left to ``Fraction``, whose
    ``int`` call refuses it before any power is built.  Raises what
    ``Fraction(text)`` raises when the digits before the exponent are
    at fault, as ``Fraction`` reads those first."""
    import re
    limit = sys.get_int_max_str_digits()
    m = re.fullmatch(_DECIMAL_EXPONENT, text)
    if m is None or not limit:
        return False
    exp = m["exp"].replace("_", "").lstrip("+-")
    if len(exp) > limit or int(exp) <= limit:
        return False
    Fraction(text[:m.start("exp") - 1])
    return True


def _refuse_bool(value):
    if isinstance(value, bool):
        raise ValidationError("booleans are not field values, got %r" % (value,))


class Field:
    """An exact field.  Elements are canonical immutable values."""

    name = "abstract"
    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def coerce(self, value):
        """Turn ``value`` (element, int, or text) into a canonical element;
        a canonical element comes back unchanged."""
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def reader(self):
        """A text -> element callable for one read of one file: equal to
        ``parse`` on every text.  Make a new one per read."""
        return self.parse

    def format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)


class RationalField(Field):
    """Arbitrary-precision rationals, always reduced with positive denominator."""

    name = "rational"

    def __init__(self):
        global Fraction  # every element method below runs after this import
        from fractions import Fraction
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ValidationError("cannot invert zero")
        return Fraction(a.denominator, a.numerator)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        _refuse_bool(value)
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, float):
            raise ValidationError("floating point values are not accepted; "
                                  "write an exact decimal or p/q string")
        raise ValidationError("cannot interpret %r as a rational" % (value,))

    def parse(self, text: str):
        try:
            num, slash, den = text.partition("/")
            if text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit():
                    return Fraction(int(num), int(den))
            if not _exponent_beyond_limit(text):
                return Fraction(text)
            problem = ("exponent larger than %d, the integer string conversion "
                       "limit (PYTHONINTMAXSTRDIGITS)" % sys.get_int_max_str_digits())
        except (ValueError, ZeroDivisionError) as exc:
            problem = exc
        raise ValidationError("bad rational literal %r: %s" % (text, problem))

    def reader(self):
        """``parse`` that builds each distinct literal once: the value
        for a text seen before is the one built for it then.  Only the
        first ``READER_CAP`` distinct texts are remembered, so the table
        stays bounded on inputs whose literals are all distinct.  Bad
        literals are never remembered and fail each time they occur."""
        seen = {}
        known = seen.get
        parse = self.parse

        def read(text):
            value = known(text)
            if value is None:
                value = parse(text)
                if len(seen) < READER_CAP:
                    seen[text] = value
            return value

        return read

    def format(self, a) -> str:
        try:
            return str(a)
        except ValueError:
            raise ValidationError(
                "cannot print an exact value of more than %d digits, the "
                "integer string conversion limit (PYTHONINTMAXSTRDIGITS)"
                % sys.get_int_max_str_digits())

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational-field")


class PrimeField(Field):
    """Integers mod a prime p; residues stored reduced in [0, p)."""

    def __init__(self, p: int):
        if isinstance(p, int) and p >= _MR_EXACT_BELOW:
            raise ValidationError("prime field order must be below %d, the "
                                  "range of the exact primality test, got %d"
                                  % (_MR_EXACT_BELOW, p))
        if not isinstance(p, int) or p < 2 or not _is_prime(p):
            raise ValidationError("prime field order must be a prime >= 2, got %r" % (p,))
        self.p = p
        self.name = "gf %d" % p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ValidationError("cannot invert zero in %s" % self.name)
        return pow(a, -1, self.p)

    def coerce(self, value):
        if type(value) is int and 0 <= value < self.p:
            return value
        _refuse_bool(value)
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return self.parse(value)
        fractions = sys.modules.get("fractions")  # no value is a Fraction before it loads
        if fractions and isinstance(value, fractions.Fraction) and value.denominator == 1:
            return int(value) % self.p
        raise ValidationError("prime-field values must be integers, got %r" % (value,))

    def parse(self, text: str):
        try:
            return int(text, 10) % self.p
        except ValueError:
            raise ValidationError("bad %s literal %r: expected an integer" % (self.name, text))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))


def __getattr__(name):
    """``QQ``, the default field, built on first access (PEP 562), so
    that ``fractions`` loads only when a rational is needed."""
    if name == "QQ":
        globals()["QQ"] = RationalField()
        return QQ
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def parse_field_spec(text: str) -> Field:
    """Parse a field description: "rational", "gf 7" or "gf:7"."""
    if not isinstance(text, str):
        raise ValidationError("field spec must be a string, got %r" % (text,))
    words = text.strip().lower().replace(":", " ").split()
    if words == ["rational"]:
        return sys.modules[__name__].QQ  # built on first access
    if len(words) == 2 and words[0] == "gf":
        try:
            p = int(words[1], 10)
        except ValueError:
            raise ValidationError("bad prime in field spec %r" % text)
        return PrimeField(p)
    raise ValidationError("unknown field spec %r (use 'rational' or 'gf:<p>')" % text)


def require_same_field(a: Field, b: Field, what: str = "operands"):
    if a != b:
        raise ValidationError("field mismatch: %s are over %s and %s" % (what, a.name, b.name))
