"""Exact arithmetic in the ordered field of rational functions of an
infinite unit.

A :class:`Hyperrational` is a quotient ``p(aleph)/q(aleph)`` of polynomials
with arbitrary-precision integer coefficients, where ``aleph`` stands for a
formal infinite quantity: greater than every natural number, so that
``1/aleph`` is positive yet below every positive rational.  This is the
smallest ordered field containing the rationals together with an infinite
element, and it is closed under +, -, *, /, so every value the evidence
calculus produces stays exactly representable.  No floating point is
involved anywhere.

Representations are canonical:

* numerator and denominator share no polynomial factor,
* the integer content of the pair is 1 (lowest integer terms),
* the denominator's leading coefficient is positive.

Canonical form makes structural identity coincide with equality of values,
so ``==``, ``hash`` and the total order are exact and cheap; a value free
of ``aleph`` hashes as the equal ``int`` or ``Fraction`` does.  The sign of a
value is the sign of its numerator's leading coefficient, which agrees with
substituting any sufficiently large integer for ``aleph``;
:meth:`Hyperrational.substitute` exists precisely so tests can exploit that
agreement.

The uniform counting measure only ever computes one term over one term,
``c*aleph^e/d`` (plain rationals included), and ``*`` and ``/`` of two such
values are integer-only: multiply the coefficients, add or subtract the
exponents, take one integer gcd, and build no polynomial.  An ``int`` or
``Fraction`` operand is coerced like any other and is itself one such
term.

Every other sum, difference, product and quotient follows Henrici's
reduction (Knuth, *TAOCP* Vol. 2, 4.5.1), which takes gcds of the
operands' parts and never of a product.  ``n1/d1 * n2/d2`` cancels
``gcd(n1, d2)`` and ``gcd(n2, d1)`` before multiplying, and ``/``
multiplies by the divisor's parts swapped.  ``n1/d1 + n2/d2`` needs no
polynomial gcd when ``gcd(d1, d2) = 1``, which a constant denominator
guarantees; otherwise, with ``g = gcd(d1, d2)`` and ``t = n1*(d2/g) +
n2*(d1/g)``, only ``gcd(t, g)`` can cancel.  A shared power of ``aleph``
is cancelled by slicing, so two single-term denominators need no
polynomial gcd either.  What remains is the integer content and the sign.
A polynomial gcd is primitive pseudo-remainder Euclid (Knuth, *TAOCP*
Vol. 2, 4.6.1) that stops as soon as a side is linear: a primitive
``c + d*aleph`` divides the other side exactly when that side vanishes at
``-c/d``, which one integer Horner pass decides.
Negation and ``x**-k`` move signs only.

Two values are ordered by degree first: opposite signs decide, then the
degree of each quotient, then its leading coefficients; only when both
tie are the two quotients cross-multiplied.

Values render with the ASCII token ``aleph``.  Whenever the denominator is
a single power of ``aleph`` (plain rationals included) the value is a
Laurent polynomial and prints as a sum of power terms in descending degree:
``aleph/2``, ``1/2 + 3/aleph``, ``3/4 + 5/(4*aleph)``.  Anything else
prints as an explicit quotient of integer polynomials, such as
``(3*aleph + 5)/(4*aleph + 1)``.  :meth:`Hyperrational.parse` reads the
same syntax back, bit-exactly.  Because its text may come from outside
the program, it refuses any exponent above :data:`MAX_PARSE_DEGREE` (64)
and any step whose value has a numerator or denominator of higher degree,
nesting of ``(`` and unary ``-`` deeper than :data:`MAX_PARSE_DEPTH`
(100), any run of more than :data:`MAX_PARSE_DIGITS` (3011) digits, any
digit outside ASCII ``0``-``9``, any number it reads or coefficient of a
step's value of more than :data:`MAX_PARSE_BITS` bits, and division by
zero, each as a ``ValueError`` with its offset.  Each step's operands
are within both limits, so a step builds no more than about twice them.
The law is one clause: ``parse`` returns only values within both
limits, and every such value's ``str`` reads back, since each step that
text takes (a term, a part, a partial sum) is within them too.
:func:`decimal_approximation` rounds the standard part half-even with one
integer ``divmod``, to at most :data:`MAX_DIGITS` places.

Instances are immutable and safe to share between threads.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from math import gcd


class MagnitudeClass(Enum):
    """Order-of-magnitude class of a hyperrational value."""

    INFINITE = "infinite"
    APPRECIABLE = "appreciable"
    INFINITESIMAL = "infinitesimal"
    ZERO = "zero"

    def __str__(self) -> str:
        return self.value


#: Highest exponent, and highest degree of a numerator or denominator at
#: any step, that :meth:`Hyperrational.parse` accepts.
MAX_PARSE_DEGREE = 64
#: Deepest nesting of ``(`` and unary ``-`` that it accepts; it recurses
#: once per level.
MAX_PARSE_DEPTH = 100
#: Most bits of any number it reads and any coefficient of a step's value
#: (about 3010 decimal digits): every value it returns then prints, and
#: approximates to :data:`MAX_DIGITS` places, within Python's 4300-digit
#: limit on int-to-str conversion.
MAX_PARSE_BITS = 10_000
#: Longest run of digits, in an integer or an exponent, that it converts:
#: 3011, the digits in ``2**MAX_PARSE_BITS``; a run of more bits is refused.
MAX_PARSE_DIGITS = len(str(1 << MAX_PARSE_BITS))
#: Most fractional digits :func:`decimal_approximation` and
#: ``evidence.log_odds`` compute; the time of a logarithm grows much faster
#: than its digit count.
MAX_DIGITS = 1000

# Polynomials are tuples of int coefficients, lowest degree first, with no
# trailing zero coefficient; () is the zero polynomial.


_ONE = (1,)


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _terms(p):
    # Number of nonzero coefficients; 1 means a single power of aleph.
    return len(p) - p.count(0)


def _neg(p):
    return tuple(-c for c in p)


def _add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _mul(p, q):
    if not p or not q:
        return ()
    if len(p) == 1 or len(q) == 1:
        # A scalar times a polynomial: neither input has a trailing zero,
        # so neither has the product and nothing needs trimming.
        if len(q) == 1:
            p, q = q, p
        c = p[0]
        return tuple([c * x for x in q])
    out = [0] * (len(p) + len(q) - 1)
    for i, cp in enumerate(p):
        if cp:
            for j, cq in enumerate(q):
                out[i + j] += cp * cq
    return _trim(out)


def _primitive(p):
    # Divide out the content, keeping signs; () stays ().
    g = gcd(*p)
    if g <= 1:
        return tuple(p)
    return tuple(c // g for c in p)


def _pseudo_rem(a, b):
    # Integer-only remainder step: r := lb*r - lead(r)*x^k*b repeatedly,
    # which cancels the leading term without leaving the integer ring.
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        k = len(r) - 1 - db
        lr = r[-1]
        if lb != 1:
            r = [c * lb for c in r]
        for i, cb in enumerate(b):
            r[k + i] -= lr * cb
        while r and r[-1] == 0:
            del r[-1]
    return r


def _poly_gcd(p, q):
    """Primitive gcd of two nonzero integer polynomials, positive leading
    coefficient.  Primitive pseudo-remainder Euclid: integers throughout,
    content stripped each round to keep coefficients small.

    Euclid stops as soon as a side is linear.  A primitive ``c + d*x``
    divides ``a`` exactly when ``a`` vanishes at ``-c/d``, that is when
    ``sum(a_i * (-c)^i * d^(n-i))`` is 0, which one Horner pass computes
    in integers.  So the gcd is that linear side or 1."""
    if len(p) < len(q):
        p, q = q, p
    a = _primitive(p)
    b = _primitive(q)
    while len(b) > 2:
        a, b = b, _primitive(_pseudo_rem(a, b))
    if not b:
        # The last division was exact: a is the gcd.
        return _neg(a) if a[-1] < 0 else a
    if len(b) == 1:
        return _ONE
    c, d = b
    value = 0
    power = 1
    for coeff in reversed(a):
        value = value * -c + coeff * power
        power *= d
    if value:
        return _ONE
    return (-c, -d) if d < 0 else b


def _div_exact(p, g):
    # Exact quotient p/g; g comes from _poly_gcd, so each step divides.
    rem = list(p)
    dg = len(g) - 1
    lg = g[-1]
    quot = [0] * (len(p) - dg)
    while rem and len(rem) - 1 >= dg:
        k = len(rem) - 1 - dg
        f, leftover = divmod(rem[-1], lg)
        assert leftover == 0, "polynomial division was not exact"
        quot[k] = f
        for i, cg in enumerate(g):
            rem[k + i] -= f * cg
        while rem and rem[-1] == 0:
            del rem[-1]
    assert not rem, "polynomial division was not exact"
    return _trim(quot)


def _cancel(p, q):
    """``p/g``, ``q/g`` and ``g``, for nonzero trimmed ``p`` and ``q`` and
    their gcd ``g``: primitive, with a positive leading coefficient, so the
    quotients keep integer coefficients and their signs."""
    # Cancel the power of aleph both sides share by slicing; both tuples
    # end in a nonzero coefficient, so the loop stays inside them.
    k = 0
    while not p[k] and not q[k]:
        k += 1
    if k:
        p = p[k:]
        q = q[k:]
    # Now p or q has a nonzero constant term.  A monomial c*aleph^j on
    # either side then shares no polynomial factor with the other: its
    # only non-constant factors are powers of aleph, and for j > 0 the
    # other side's constant term is nonzero.  So only two sums need a gcd.
    g = _ONE
    if _terms(p) > 1 and _terms(q) > 1:
        g = _poly_gcd(p, q)
        if len(g) > 1:
            p = _div_exact(p, g)
            q = _div_exact(q, g)
    if k:
        g = (0,) * k + g
    return p, q, g


def _finish(num, den):
    # Lowest integer terms and a positive leading denominator coefficient,
    # for a nonzero numerator that shares no polynomial factor with den.
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple([x // c for x in num])
        den = tuple([x // c for x in den])
    return num, den


def _canonical(num, den):
    # Both inputs are trimmed tuples; the reference route for the
    # reductions below, and the one _raw takes.
    if not den:
        raise ZeroDivisionError("division by zero")
    if not num:
        return (), _ONE
    num, den, _ = _cancel(num, den)
    return _finish(num, den)


def _product(n1, d1, n2, d2):
    # n1/d1 * n2/d2 for coprime nonzero pairs, after Henrici: cancel across
    # the pairs first, and the two products share no factor.
    n1, d2, _ = _cancel(n1, d2)
    n2, d1, _ = _cancel(n2, d1)
    return _new(*_finish(_mul(n1, n2), _mul(d1, d2)))


def _sum(n1, d1, n2, d2):
    # n1/d1 + n2/d2 for coprime pairs with nonzero numerators and positive
    # leading denominator coefficients, after Henrici.  With g = gcd(d1,
    # d2), the sum is t/((d1/g)*(d2/g)*g) for t = n1*(d2/g) + n2*(d1/g).
    # No factor of d1/g divides t, as d1/g is coprime to n1 and to d2/g;
    # likewise d2/g.  So only h = gcd(t, g) cancels.  A constant
    # denominator makes g = 1, and then nothing does.
    g = _ONE
    if len(d1) > 1 and len(d2) > 1:
        e1, e2, g = _cancel(d1, d2)
    if len(g) == 1:
        num = _add(_mul(n1, d2), _mul(n2, d1))
        return _new(*_finish(num, _mul(d1, d2))) if num else _ZERO
    t = _add(_mul(n1, e2), _mul(n2, e1))
    if not t:
        return _ZERO
    t, g, h = _cancel(t, g)
    # The denominator is (d1/g) * (d2/h), and d2/h = (d2/g) * (g/h).
    return _new(*_finish(t, _mul(e1, d2 if len(h) == 1 else _mul(e2, g))))


def _new(num, den):
    # A value from parts that are already canonical.
    value = object.__new__(Hyperrational)
    value._num = num
    value._den = den
    return value


def _monomial(c, d, e):
    """Canonical parts of ``c*aleph^e/d`` for ints ``c`` and ``d != 0``: one
    integer gcd for lowest terms, the sign moved to the numerator, and
    ``aleph^|e|`` in the numerator for ``e > 0``, the denominator for
    ``e < 0``."""
    if not c:
        return (), _ONE
    g = gcd(c, d)
    if d < 0:
        g = -g
    c //= g
    d //= g
    if e > 0:
        return (0,) * e + (c,), (d,)
    if e < 0:
        return (c,), (0,) * -e + (d,)
    return (c,), (d,)


def _is_monomial(value) -> bool:
    # One nonzero term over one nonzero term, c*aleph^e/d (_terms inlined:
    # this test runs on every operand of * and /).  A canonical value has
    # no aleph power on both sides, so e = len(num) - len(den).
    num, den = value._num, value._den
    return len(num) - num.count(0) == 1 == len(den) - den.count(0)


def _monomial_times(x, num, den):
    # x * num/den, where x and num/den are monomials (num/den may be the
    # parts of a divisor swapped): multiply the leading coefficients and
    # add the exponents, with no polynomial in between.
    xn, xd = x._num, x._den
    return _new(*_monomial(
        xn[-1] * num[-1], xd[-1] * den[-1], len(xn) - len(xd) + len(num) - len(den)
    ))


def _eval_poly(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _lead_sign(p) -> int:
    return (p[-1] > 0) - (p[-1] < 0) if p else 0


def _cross_diff(a, b):
    # Numerator of a - b over the denominator a.den * b.den, not reduced.
    return _add(_mul(a._num, b._den), _neg(_mul(b._num, a._den)))


def _order(compare):
    # One body for <, <=, > and >=: compare(sign of self - other, 0).
    def method(self, other):
        o = other if type(other) is Hyperrational else self._coerce(other)
        if o is None:
            return NotImplemented
        return compare(self._diff_sign(o), 0)

    return method


class Hyperrational:
    """A ratio of integer polynomials in ``aleph``, kept canonical.

    ``Hyperrational(p, q)`` builds the plain rational ``p/q``; the module
    constant :data:`ALEPH` is the infinite unit, and other values are
    reached through ordinary arithmetic (``3 * ALEPH / 4 + 1``) or through
    :meth:`parse`.  Mixed arithmetic with ``int`` and ``Fraction`` works;
    ``float`` is rejected because it is not exact.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: int | Fraction = 0, denominator: int | Fraction = 1):
        if type(numerator) is int and type(denominator) is int:
            if not denominator:
                raise ZeroDivisionError("zero denominator")
            self._num, self._den = _monomial(numerator, denominator, 0)
            return
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("floats are not exact; use integers or Fraction")
        if denominator == 0:
            raise ZeroDivisionError("zero denominator")
        value = Fraction(numerator, 1) / Fraction(denominator, 1)
        self._num, self._den = _monomial(value.numerator, value.denominator, 0)

    @classmethod
    def _raw(cls, num, den) -> "Hyperrational":
        return _new(*_canonical(num, den))

    # -- structure ---------------------------------------------------------

    @property
    def numerator_coefficients(self) -> tuple[int, ...]:
        """Canonical numerator coefficients, lowest degree first.

        Exposed for verification tooling (e.g. computing substitution
        bounds); not needed for ordinary use.
        """
        return self._num

    @property
    def denominator_coefficients(self) -> tuple[int, ...]:
        """Canonical denominator coefficients, lowest degree first."""
        return self._den

    def magnitude(self) -> MagnitudeClass:
        if not self._num:
            return MagnitudeClass.ZERO
        dn = len(self._num) - 1
        dd = len(self._den) - 1
        if dn > dd:
            return MagnitudeClass.INFINITE
        if dn == dd:
            return MagnitudeClass.APPRECIABLE
        return MagnitudeClass.INFINITESIMAL

    def standard_part(self) -> Fraction:
        """The unique rational at infinitesimal distance from this value.

        Defined for everything except infinite values: the ratio of leading
        coefficients when numerator and denominator have equal degree, and
        0 for infinitesimals and zero.
        """
        return Fraction(*self._standard_terms())

    def _standard_terms(self) -> tuple[int, int]:
        # The standard part as (p, q) with q > 0, not reduced.
        num, den = self._num, self._den
        if len(num) > len(den):
            raise ValueError("no standard part: value is infinite")
        if len(num) < len(den):
            return 0, 1
        return num[-1], den[-1]

    @property
    def is_rational(self) -> bool:
        return len(self._num) <= 1 and len(self._den) == 1

    def as_fraction(self) -> Fraction:
        """Exact conversion for values free of ``aleph``; raises otherwise."""
        if not self.is_rational:
            raise ValueError(f"not a plain rational: {self}")
        return Fraction(self._num[0] if self._num else 0, self._den[0])

    def substitute(self, value: int | Fraction) -> Fraction:
        """Evaluate at ``aleph = value`` with exact rational arithmetic.

        For any value beyond the roots of the polynomials involved this
        reproduces the field operations and the ordering, which is what the
        differential tests rely on.
        """
        if isinstance(value, float):
            raise TypeError("floats are not exact; use integers or Fraction")
        if isinstance(value, int):
            # Integer Horner on each side and one Fraction at the end; at a
            # root of the denominator the Fraction route below raises.
            den = _eval_poly(self._den, value)
            if den:
                return Fraction(_eval_poly(self._num, value), den)
        x = Fraction(value)
        return _eval_poly(self._num, x) / _eval_poly(self._den, x)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, Hyperrational):
            return value
        if isinstance(value, (int, Fraction)):
            return Hyperrational(value)
        return None

    def __add__(self, other):
        o = other if type(other) is Hyperrational else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._num:
            return self
        if not self._num:
            return o
        return _sum(self._num, self._den, o._num, o._den)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Hyperrational else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._num:
            return self
        if not self._num:
            return -o
        return _sum(self._num, self._den, _neg(o._num), o._den)

    def __rsub__(self, other):
        o = other if type(other) is Hyperrational else self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is Hyperrational else self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self._num and o._num):
            return _ZERO
        if _is_monomial(self) and _is_monomial(o):
            return _monomial_times(self, o._num, o._den)
        return _product(self._num, self._den, o._num, o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is Hyperrational else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._num:
            raise ZeroDivisionError("division by zero")
        if not self._num:
            return _ZERO
        if _is_monomial(self) and _is_monomial(o):
            return _monomial_times(self, o._den, o._num)
        return _product(self._num, self._den, o._den, o._num)

    def __rtruediv__(self, other):
        o = other if type(other) is Hyperrational else self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _new(_neg(self._num), self._den)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if _lead_sign(self._num) < 0 else self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            num, den = self._num, self._den
            if not num:
                raise ZeroDivisionError("zero to a negative power")
            base = _new(den, num) if num[-1] > 0 else _new(_neg(den), _neg(num))
            exponent = -exponent
        else:
            base = self
        result = Hyperrational(1)
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __bool__(self):
        return bool(self._num)

    # -- order -------------------------------------------------------------

    def _diff_sign(self, other) -> int:
        # Sign of self - other.  Both denominators have positive leading
        # coefficients, so opposite signs decide, then the degrees of the
        # two quotients, then their leading coefficients; only a tie on
        # both needs the cross-multiplied numerator.
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        s1, s2 = _lead_sign(n1), _lead_sign(n2)
        if s1 != s2:
            return 1 if s1 > s2 else -1
        if not s1:
            return 0
        e = len(n1) - len(d1) - len(n2) + len(d2)
        if e:
            return s1 if e > 0 else -s1
        c = n1[-1] * d2[-1] - n2[-1] * d1[-1]
        if c:
            return 1 if c > 0 else -1
        if n1 == n2 and d1 == d2:
            return 0
        return _lead_sign(_cross_diff(self, other))

    def __eq__(self, other):
        o = other if type(other) is Hyperrational else self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        # Equal to the hash of the equal int or Fraction, as == promises.
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self._num, self._den))

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    # -- text --------------------------------------------------------------

    def __str__(self):
        num, den = self._num, self._den
        if not num:
            return "0"
        if len(num) == 1 == len(den):
            # A plain rational, already in lowest terms over a positive
            # denominator.
            return str(num[0]) if den[0] == 1 else f"{num[0]}/{den[0]}"
        if _terms(den) == 1:
            # Denominator is a single aleph power: print the Laurent sum.
            return _poly_text(num, len(den) - 1, den[-1])
        num_text = _poly_text(num)
        if _terms(num) > 1:
            num_text = f"({num_text})"
        return f"{num_text}/({_poly_text(den)})"

    def __repr__(self):
        return f"Hyperrational.parse({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Hyperrational":
        """Read the rendering syntax back: sums, products and quotients of
        integers and ``aleph`` powers, e.g. ``"1/2 + 3/aleph"``."""
        return _Reader(text).parse()


def _laurent_term(degree: int, p: int, q: int) -> str:
    # The term (p/q)*aleph^degree for p/q > 0 in lowest terms.
    if degree == 0:
        return f"{p}/{q}" if q != 1 else str(p)
    base = "aleph" if abs(degree) == 1 else f"aleph^{abs(degree)}"
    if degree > 0:
        if q == 1:
            return base if p == 1 else f"{p}*{base}"
        return f"{base}/{q}" if p == 1 else f"{p}*{base}/{q}"
    if q == 1:
        return f"{p}/{base}"
    return f"{p}/({q}*{base})"


def _poly_text(p, shift: int = 0, scale: int = 1) -> str:
    # The signed sum of the terms c*aleph^(d - shift)/scale, highest degree
    # first; scale > 0, so each term's sign is its coefficient's.
    chunks = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c:
            sign = (" - " if c < 0 else " + ") if chunks else ("-" if c < 0 else "")
            c = abs(c)
            g = gcd(c, scale)
            chunks.append(sign + _laurent_term(d - shift, c // g, scale // g))
    return "".join(chunks)


# A step's operands a and b each have degree 64 or less.  Its result is in
# lowest terms, so each of its sides is a primitive factor in Z[x] of a
# product that a op b forms: n1*n2 or d1*d2 for *, n1*d2 or d1*n2 for /,
# and d1*d2 or n1*d2 + n2*d1 for + and -.  A coefficient of such a product
# sums at most 65 products of one coefficient of a and one of b, and +
# adds two such sums: under 2**8 times a's and b's largest coefficients
# together, and its 129 coefficients give a 2-norm under 2**4 times that.
# The result passes the degree check only at degree 64 or less, and by
# Mignotte's bound a factor of degree 64 or less has coefficients within
# 2**64 times the product's 2-norm.  So a result has under 8 + 4 + 64 = 76
# bits more than a's and b's largest coefficients together.  A digit adds
# under 5 bits and an operator at least one character, so a value read
# from n characters has coefficients of under 76*n bits, and no step within
# the first _UNCHECKED_CHARS characters can pass MAX_PARSE_BITS.
_UNCHECKED_CHARS = MAX_PARSE_BITS // 76


class _Reader:
    """Tiny expression parser for the rendering syntax.

    Grammar: expr := term (('+'|'-') term)*; term := factor (('*'|'/')
    factor)*; factor := '-' factor | '(' expr ')' | INT | 'aleph' ('^' INT)?
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # '(' and unary '-' open around the current factor

    def parse(self) -> Hyperrational:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail("trailing input")
        return value

    def _fail(self, message: str):
        raise ValueError(f"bad hyperrational literal at offset {self.pos}: {message}")

    def _check_degree(self, degree: int):
        # Called before building aleph^degree and after each step.
        if degree > MAX_PARSE_DEGREE:
            self._fail(f"degree {degree} is above the limit of {MAX_PARSE_DEGREE}")

    def _check_bits(self, bits: int):
        # Called on a number read and, past _UNCHECKED_CHARS, after each step.
        if bits > MAX_PARSE_BITS:
            self._fail(
                f"coefficients of up to {bits} bits are above the limit of "
                f"{MAX_PARSE_BITS}"
            )

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> Hyperrational:
        return self._chain({"+": operator.add, "-": operator.sub}, self._term)

    def _term(self) -> Hyperrational:
        return self._chain({"*": operator.mul, "/": operator.truediv}, self._factor)

    def _chain(self, ops, operand) -> Hyperrational:
        # operand ((op) operand)*, folded left to right.
        value = operand()
        while True:
            self._skip_ws()
            op = self._peek()
            if op not in ops:
                return value
            self.pos += 1
            self._skip_ws()
            start = self.pos
            rhs = operand()
            if op == "/" and not rhs:
                self.pos = start
                self._fail("division by zero")
            value = ops[op](value, rhs)
            num, den = value._num, value._den
            self._check_degree(max(len(num), len(den)) - 1)
            if self.pos > _UNCHECKED_CHARS:
                self._check_bits(max(map(abs, num + den)).bit_length())

    def _factor(self) -> Hyperrational:
        self._skip_ws()
        ch = self._peek()
        if ch == "-" or ch == "(":
            if self.depth == MAX_PARSE_DEPTH:
                self._fail(f"nesting is deeper than {MAX_PARSE_DEPTH} levels")
            self.pos += 1
            self.depth += 1
            value = -self._factor() if ch == "-" else self._parenthesised()
            self.depth -= 1
            return value
        if "0" <= ch <= "9":
            n = self._digits()
            return _new((n,) if n else (), _ONE)
        if ch.isalpha():
            start = self.pos
            while self._peek().isalpha():
                self.pos += 1
            word = self.text[start : self.pos]
            if word != "aleph":
                self._fail(f"unknown symbol {word!r}")
            if self._peek() == "^":
                self.pos += 1
                if not "0" <= self._peek() <= "9":
                    self._fail("expected an integer exponent")
                exponent = self._digits()
                self._check_degree(exponent)
                return _new((0,) * exponent + _ONE, _ONE)
            return ALEPH
        self._fail("expected a number, 'aleph', '-' or '('")
        raise AssertionError  # unreachable

    def _digits(self) -> int:
        # A run of ASCII digits, its length checked before conversion and
        # its bits after, each failure at the run's offset.
        start = self.pos
        while "0" <= self._peek() <= "9":
            self.pos += 1
        if self.pos - start > MAX_PARSE_DIGITS:
            self.pos = start
            self._fail(f"number has more than {MAX_PARSE_DIGITS} digits")
        n = int(self.text[start : self.pos])
        if n >> MAX_PARSE_BITS:
            self.pos = start
            self._check_bits(n.bit_length())
        return n

    def _parenthesised(self) -> Hyperrational:
        value = self._expr()
        self._skip_ws()
        if self._peek() != ")":
            self._fail("expected ')'")
        self.pos += 1
        return value


_ZERO = _new((), _ONE)
#: The infinite unit: the conventional cardinality of a scaled space.
ALEPH = _new((0, 1), _ONE)


def _check_digits(digits: int):
    # Called before any work that computes ``digits`` fractional places.
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits must be at most {MAX_DIGITS}")


def decimal_approximation(value: Hyperrational, digits: int = 6) -> str:
    """Decimal string for the standard part, rounded half-even to `digits`
    fractional places.

    Presentation only: the core never computes in floating point, and the
    returned string is an approximation of the exact value's standard part.
    """
    _check_digits(digits)
    p, q = value._standard_terms()
    return _rounded(p, q, digits)


def _rounded(p: int, q: int, digits: int) -> str:
    """``p / q``, ``q > 0``, rounded half-even to ``digits`` places; never ``-0``."""
    m, r = divmod(p * 10**digits, q)
    if 2 * r > q or (2 * r == q and m & 1):
        m += 1
    text = str(abs(m)).rjust(digits + 1, "0")
    if digits:
        text = f"{text[:-digits]}.{text[-digits:]}"
    return f"-{text}" if m < 0 else text
