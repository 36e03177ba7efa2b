"""Tests for the hyperrational field: canonical forms, ordering,
magnitudes, rendering, and agreement with plain-rational substitution."""

import decimal
import operator
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from evidentia import ALEPH, Hyperrational, MagnitudeClass, decimal_approximation
from evidentia import hyperrational
from evidentia.evidence import check_product_rule, check_sum_rule
from evidentia.hyperrational import (
    MAX_DIGITS,
    MAX_PARSE_BITS,
    MAX_PARSE_DEGREE,
    MAX_PARSE_DEPTH,
    MAX_PARSE_DIGITS,
    _add,
    _cross_diff,
    _lead_sign,
    _mul,
    _neg,
    _poly_gcd,
    _trim,
)
from evidentia.spaces import Proposition, build_finite_space, build_scaled_space

INF = MagnitudeClass.INFINITE
APP = MagnitudeClass.APPRECIABLE
EPS = MagnitudeClass.INFINITESIMAL
ZERO = MagnitudeClass.ZERO


# -- construction -------------------------------------------------------------


def assert_same_as_fraction(value, p, q, text):
    # Fraction is the oracle for every int, bool and Fraction argument pair.
    expected = Hyperrational(Fraction(p, q))
    assert value.numerator_coefficients == expected.numerator_coefficients
    assert value.denominator_coefficients == expected.denominator_coefficients
    assert str(value) == str(expected) == text
    assert value.as_fraction() == Fraction(p, q)


@pytest.mark.parametrize(
    "p, q, text",
    [
        pytest.param(1, 2, "1/2", id="int-int"),
        pytest.param(2, 4, "1/2", id="int-int-reduces"),
        pytest.param(4, 52, "1/13", id="int-int-gcd-4"),
        pytest.param(-6, 4, "-3/2", id="negative-numerator"),
        pytest.param(0, 7, "0", id="zero"),
        pytest.param(7, 1, "7", id="whole"),
        pytest.param(10**40, 6 * 10**40, "1/6", id="large-ints"),
        pytest.param(3**80, 2 * 3**78, "9/2", id="large-gcd"),
        pytest.param(2**100 + 1, 1, str(2**100 + 1), id="large-whole"),
        pytest.param(True, 2, "1/2", id="bool-int"),
        pytest.param(False, 3, "0", id="false-int"),
        pytest.param(5, True, "5", id="int-bool"),
        pytest.param(True, True, "1", id="bool-bool"),
        pytest.param(Fraction(1, 3), 2, "1/6", id="fraction-int"),
        pytest.param(3, Fraction(9, 4), "4/3", id="int-fraction"),
        pytest.param(Fraction(10**30, 7), Fraction(10**30, 14), "2", id="large-fractions"),
    ],
)
def test_from_rational_reduces(p, q, text):
    value = Hyperrational(p, q)
    assert_same_as_fraction(value, p, q, text)
    assert value == Hyperrational(2 * p, 2 * q)


def test_zero_numerator():
    assert Hyperrational(0, 7) == Hyperrational(0)
    assert Hyperrational(0, 7).magnitude() is ZERO


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Hyperrational(1, 0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        Hyperrational(0.5)
    with pytest.raises(TypeError):
        ALEPH.substitute(1e6)


@pytest.mark.parametrize(
    "p, q, text",
    [
        pytest.param(1, -2, "-1/2", id="int-int"),
        pytest.param(-1, -2, "1/2", id="both-negative"),
        pytest.param(6, -4, "-3/2", id="int-int-reduces"),
        pytest.param(0, -5, "0", id="zero"),
        pytest.param(10**40, -(4 * 10**40), "-1/4", id="large-ints"),
        pytest.param(-(2**100), -(2**99), "2", id="large-both-negative"),
        pytest.param(True, -2, "-1/2", id="bool-int"),
        pytest.param(False, -3, "0", id="false-int"),
        pytest.param(Fraction(1, 2), -3, "-1/6", id="fraction-int"),
        pytest.param(-3, Fraction(-9, 4), "4/3", id="int-fraction"),
    ],
)
def test_negative_denominator_normalises(p, q, text):
    value = Hyperrational(p, q)
    assert_same_as_fraction(value, p, q, text)
    assert value == Hyperrational(-p, -q)
    assert value.denominator_coefficients[-1] > 0


def test_unary_plus_and_abs():
    for value in (Hyperrational(-3, 4), 1 - ALEPH, Hyperrational(0), ALEPH - 1, 1 / ALEPH):
        assert +value is value
        assert abs(value) == (-value if value < 0 else value)
        assert abs(value) >= 0 and abs(-value) == abs(value)
    assert str(abs(1 - ALEPH)) == "aleph - 1"


# -- the infinite unit ---------------------------------------------------------


def test_aleph_times_its_inverse_is_one():
    assert ALEPH * (1 / ALEPH) == Hyperrational(1)


def test_aleph_exceeds_every_tested_natural():
    for n in (1, 2, 10, 10**6, 10**100):
        assert ALEPH > n


def test_aleph_is_infinite():
    assert ALEPH.magnitude() is INF


def test_divisibility_by_any_natural():
    for n in range(1, 101):
        assert (ALEPH / n) * n == ALEPH
    assert ALEPH * (1 / ALEPH) == 1


# -- arithmetic ----------------------------------------------------------------


def test_halves_of_aleph_sum_to_aleph():
    assert ALEPH / 2 + ALEPH / 2 == ALEPH


def test_infinitesimal_times_aleph():
    assert (1 / ALEPH) * ALEPH == 1


def test_division_matches_substitution():
    value = (3 * ALEPH + 5) / (4 * ALEPH)
    for n in (10**6, 10**9):
        assert value.substitute(n) == Fraction(3 * n + 5, 4 * n)


def test_mixed_arithmetic_with_int_and_fraction():
    assert 1 - Hyperrational(1, 3) == Hyperrational(2, 3)
    assert Fraction(1, 2) + Hyperrational(1, 2) == 1
    assert Fraction(3, 4) * (1 / ALEPH) == 3 / (4 * ALEPH)


def test_pow():
    assert ALEPH**0 == 1
    assert ALEPH**2 == ALEPH * ALEPH
    assert ALEPH**-1 == 1 / ALEPH
    with pytest.raises(ZeroDivisionError):
        Hyperrational(0) ** -1


# -- ordering ------------------------------------------------------------------


def test_infinitesimal_is_positive():
    assert (1 / ALEPH) > 0


def test_infinitesimal_below_every_positive_rational():
    for k in (1, 5, 50, 100):
        assert (1 / ALEPH) < Fraction(1, 10**k)


def test_order_near_one():
    value = (ALEPH + 1) / ALEPH
    assert value > 1
    # cross-check by substituting a large finite value
    assert value.substitute(10**6) > 1


def test_total_order_is_antisymmetric():
    a = ALEPH / 2
    b = 3 * ALEPH / 4
    assert a < b and not b < a and a != b


@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_order_against_a_non_number_is_a_type_error(compare):
    for left, right in ((Hyperrational(1), "x"), ("x", Hyperrational(1)), (ALEPH, None)):
        with pytest.raises(TypeError, match="not supported between"):
            compare(left, right)


# -- magnitude and standard part -------------------------------------------------


@pytest.mark.parametrize(
    "value, expected",
    [
        (ALEPH / 2, INF),
        (3 / ALEPH, EPS),
        ((3 * ALEPH + 5) / (4 * ALEPH), APP),
        (Hyperrational(0), ZERO),
        (Hyperrational(-7), APP),
        (ALEPH**2 / (ALEPH + 1), INF),
        ((ALEPH + 1) / ALEPH**2, EPS),
    ],
)
def test_magnitude_classes(value, expected):
    assert value.magnitude() is expected


def test_standard_part_leading_coefficients():
    assert ((3 * ALEPH + 5) / (4 * ALEPH)).standard_part() == Fraction(3, 4)


def test_standard_part_convergence_oracle():
    # substituting 10^k approaches the claimed standard part as k grows
    value = (3 * ALEPH + 5) / (4 * ALEPH)
    target = Fraction(3, 4)
    gaps = [abs(value.substitute(10**k) - target) for k in (3, 6, 9, 12)]
    assert all(earlier > later for earlier, later in zip(gaps, gaps[1:]))
    assert gaps[-1] < Fraction(1, 10**11)


def test_standard_part_drops_infinitesimals():
    assert (Hyperrational(1, 2) + 3 / ALEPH).standard_part() == Fraction(1, 2)
    assert Hyperrational(0).standard_part() == 0
    assert (5 / ALEPH).standard_part() == 0


def test_standard_part_of_infinite_is_an_error():
    with pytest.raises(ValueError):
        ALEPH.standard_part()


def test_as_fraction_requires_rational():
    assert Hyperrational(9, 12).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        (1 / ALEPH).as_fraction()
    assert not (1 / ALEPH).is_rational
    assert Hyperrational(5).is_rational


# -- rendering and parsing --------------------------------------------------------


@pytest.mark.parametrize(
    "value, text",
    [
        (ALEPH / 2, "aleph/2"),
        (ALEPH, "aleph"),
        (1 / ALEPH, "1/aleph"),
        (Hyperrational(1, 2) + 3 / ALEPH, "1/2 + 3/aleph"),
        ((3 * ALEPH + 5) / (4 * ALEPH), "3/4 + 5/(4*aleph)"),
        ((3 * ALEPH + 5) / (4 * ALEPH + 1), "(3*aleph + 5)/(4*aleph + 1)"),
        (1 / (ALEPH + 1), "1/(aleph + 1)"),
        (Hyperrational(0), "0"),
        (-ALEPH / 2, "-aleph/2"),
        (ALEPH**2 - 3 * ALEPH + 1, "aleph^2 - 3*aleph + 1"),
        (1 / ALEPH**2, "1/aleph^2"),
        (2 * ALEPH / 3, "2*aleph/3"),
        (Hyperrational(-1, 2) - 3 / ALEPH, "-1/2 - 3/aleph"),
        (ALEPH / (ALEPH + 1), "aleph/(aleph + 1)"),
        ((1 - ALEPH**2) / (ALEPH + 2), "(-aleph^2 + 1)/(aleph + 2)"),
        ((2 * ALEPH**3 - 1) / (3 * ALEPH**2 + ALEPH), "(2*aleph^3 - 1)/(3*aleph^2 + aleph)"),
    ],
)
def test_render_and_reparse(value, text):
    assert str(value) == text
    assert Hyperrational.parse(text) == value


def test_parse_rejects_garbage():
    non_ascii_digits = ("\u0663", "aleph^\u0663", "1\u00b2")
    for bad in ("", "aleph +", "omega", "1..2", "(1", "1/", "@") + non_ascii_digits:
        with pytest.raises(ValueError):
            Hyperrational.parse(bad)
    limit = MAX_PARSE_DEGREE
    assert Hyperrational.parse(f"aleph^{limit}") == ALEPH**limit
    for huge in ("aleph^99999999999999999999", f"aleph^{limit + 1}", f"aleph^{limit}*aleph"):
        with pytest.raises(ValueError, match="bad hyperrational literal at offset"):
            Hyperrational.parse(huge)


@pytest.mark.parametrize(
    "text, offset",
    [("1/0", 2), ("1/(aleph - aleph)", 2), ("1/(0*aleph)", 2), ("aleph + 3 /  -0", 13)],
)
def test_parse_reports_division_by_zero(text, offset):
    message = f"bad hyperrational literal at offset {offset}: division by zero"
    with pytest.raises(ValueError, match=rf"^{message}$"):
        Hyperrational.parse(text)


def test_parse_bounds_each_step_by_the_degree_of_its_value():
    # A step is refused by the degree of the value it returns, not by the
    # products it forms: the sum of aleph^40, aleph^30 and 1 has degree 40,
    # and each refused sum below returns a numerator of degree 65.
    value = ALEPH**40 + ALEPH**30 + 1
    assert Hyperrational.parse(str(value)) == value
    limit = MAX_PARSE_DEGREE
    for huge in (f"aleph^{limit - 1} + 1/aleph^2", f"1/(aleph^{limit} + 1) + aleph"):
        with pytest.raises(ValueError, match=f"degree {limit + 1} is above the limit"):
            Hyperrational.parse(huge)


@given(
    st.integers(min_value=33, max_value=MAX_PARSE_DEGREE).flatmap(
        lambda degree: st.lists(
            st.integers(-(2**70), 2**70), min_size=degree + 1, max_size=degree + 1
        ).filter(lambda coeffs: coeffs[-1])
    ),
    st.integers(min_value=1, max_value=2**70),
)
def test_text_round_trip_of_high_degree_polynomials(coeffs, scale):
    value = Hyperrational._raw(tuple(coeffs), (scale,))
    assert Hyperrational.parse(str(value)) == value


def test_parse_bounds_nesting_depth():
    limit = MAX_PARSE_DEPTH
    assert Hyperrational.parse("(" * limit + "2" + ")" * limit) == Hyperrational(2)
    half = limit // 2
    assert Hyperrational.parse("(-" * half + "2" + ")" * half) == Hyperrational(2)
    for deep in (
        "(" * (limit + 1) + "2" + ")" * (limit + 1),
        "-" * (limit + 1) + "2",
        "(" * 5000 + "2" + ")" * 5000,
        "-" * 5000 + "2",
    ):
        with pytest.raises(ValueError, match="nesting is deeper than 100 levels"):
            Hyperrational.parse(deep)


def test_parse_bounds_digit_runs():
    limit = MAX_PARSE_DIGITS
    # The longest run is that of 10**3010, a coefficient of MAX_PARSE_BITS
    # bits; a run of that length with more bits is refused at its offset.
    assert Hyperrational.parse("1" + "0" * (limit - 1)) == Hyperrational(10 ** (limit - 1))
    assert Hyperrational.parse("9" * (limit - 1)) == Hyperrational(10 ** (limit - 1) - 1)
    assert Hyperrational.parse("aleph^" + "0" * (limit - 1) + "1") == ALEPH
    with pytest.raises(
        ValueError,
        match=(
            r"^bad hyperrational literal at offset 2: coefficients of up to 10003 bits "
            rf"are above the limit of {MAX_PARSE_BITS}$"
        ),
    ):
        Hyperrational.parse("1/" + "9" * limit)
    message = rf"bad hyperrational literal at offset \d+: number has more than {limit} "
    for length in (limit + 1, 5000):
        for long in ("9" * length, "aleph^" + "0" * (length - 1) + "1"):
            with pytest.raises(ValueError, match=message):
                Hyperrational.parse(long)


def test_parse_bounds_the_coefficients_it_builds():
    # Whatever parse returns prints, and approximates to MAX_DIGITS places,
    # within Python's 4300-digit limit on int-to-str conversion.
    # The offsets below are those of 1000-digit runs.
    nines = "9" * 1000
    accepted = Hyperrational.parse("*".join([nines] * 3))
    assert accepted == Hyperrational((10**1000 - 1) ** 3)
    assert str(accepted) == str((10**1000 - 1) ** 3)
    assert Hyperrational.parse(str(accepted)) == accepted
    assert decimal_approximation(accepted, MAX_DIGITS) == f"{accepted}." + "0" * MAX_DIGITS
    near_one = accepted / (accepted + 1)
    assert decimal_approximation(near_one, 6) == "1.000000"
    message = (
        rf"^bad hyperrational literal at offset {{}}: coefficients of up to \d+ bits "
        rf"are above the limit of {MAX_PARSE_BITS}$"
    )
    for text, offset in (
        ("*".join([nines] * 5), 4003),
        ("1/" + "/".join([nines] * 4), 4005),
        ("*".join([f"({nines}*aleph + 1)"] * 4), 4051),
    ):
        with pytest.raises(ValueError, match=message.format(offset)):
            Hyperrational.parse(text)


@pytest.mark.parametrize(
    "text",
    [
        # A quotient of two plain integers whose sides together pass the bit
        # limit, though each side alone is within it.
        f"1/{'9' * 1495} + 1/{'1' + '0' * 1493 + '1'}",
        # A quotient whose sides together pass the degree limit.
        "(aleph^32 + 1)/(aleph^64 + 3)",
        # Two coefficients of 3010 digits at distinct degrees.
        f"{'9' * 3010}*(aleph + 1)",
        # A coefficient of MAX_PARSE_BITS bits that prints as 3011 digits.
        "1" + "0" * 3009 + "*10",
        # A Laurent sum over aleph^33, printed as 1/aleph^32 + 1/aleph^33.
        "(aleph + 1)/aleph^33",
        # A Laurent sum over a denominator of 2800 digits.
        "(3*aleph + 1)/" + "7" * 2800,
    ],
    ids=["bits", "degree", "distinct-degrees", "longest-run", "laurent-degree", "laurent-bits"],
)
def test_parse_reads_back_what_it_returned(text):
    value = Hyperrational.parse(text)
    assert Hyperrational.parse(str(value)) == value


def test_parse_bounds_a_sum_where_its_terms_share_a_degree():
    nines = "9" * 3010
    # 2 * (10**3010 - 1) has 10001 bits; at distinct degrees nothing adds.
    with pytest.raises(ValueError, match="coefficients of up to 10001 bits"):
        Hyperrational.parse(f"{nines} + {nines}")
    assert Hyperrational.parse(f"{nines}*aleph + {nines}") == (10**3010 - 1) * (ALEPH + 1)


def _sparse(terms):
    """The trimmed polynomial of the ``(degree, coefficient)`` terms."""
    coeffs = [0] * (max(d for d, _ in terms) + 1)
    for degree, c in terms:
        coeffs[degree] = c
    return _trim(coeffs)


_near_limit_coefficients = st.one_of(
    st.integers(1, 9),
    # 10**3011 - 1 has more than MAX_PARSE_BITS bits; 10**3010 + 1 does not.
    st.integers(1, MAX_PARSE_DIGITS - 1).map(lambda n: 10**n - 1),
    st.integers(1, MAX_PARSE_DIGITS).map(lambda n: 10 ** (n - 1) + 1),
)
_terms = st.lists(
    st.tuples(
        st.integers(0, MAX_PARSE_DEGREE),
        st.tuples(st.sampled_from((1, -1)), _near_limit_coefficients).map(lambda t: t[0] * t[1]),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    _terms,
    st.tuples(st.integers(0, MAX_PARSE_DEGREE), _near_limit_coefficients),
    st.booleans(),
)
def test_values_near_both_limits_read_back(terms, monomial, over):
    # One side is a monomial, so no polynomial gcd is needed to build the
    # value.  Over a polynomial, it prints as a quotient.  Under one, it
    # prints as a Laurent sum over the monomial, up to aleph^64 and a
    # coefficient of 3010 digits, which is read term by term: each term and
    # each partial sum is within both limits when the value is.
    degree, c = monomial
    if over:
        value = Hyperrational._raw((0,) * degree + (c,), _sparse(terms))
    else:
        value = Hyperrational._raw(_sparse(terms), (0,) * degree + (c,))
    assert Hyperrational.parse(str(value)) == value


def test_repr_round_trips():
    value = (3 * ALEPH + 5) / (4 * ALEPH + 1)
    assert eval(repr(value), {"Hyperrational": Hyperrational}) == value


# -- decimal approximation ---------------------------------------------------------


def test_decimal_approximation_half_even():
    assert decimal_approximation(Hyperrational(1, 13), 6) == "0.076923"
    assert decimal_approximation(Hyperrational(9, 13), 6) == "0.692308"
    assert decimal_approximation(Hyperrational(1, 2), 6) == "0.500000"
    assert decimal_approximation(Hyperrational(0), 6) == "0.000000"
    assert decimal_approximation(Hyperrational(1, 8), 2) == "0.12"  # half-even
    assert decimal_approximation(Hyperrational(3, 8), 2) == "0.38"


def test_decimal_approximation_refuses_digits_past_the_limit():
    seventh = Hyperrational(1, 7)
    text = decimal_approximation(seventh, MAX_DIGITS)
    assert len(text) == MAX_DIGITS + 2 and text.startswith("0." + "142857" * 166)
    for value in (seventh, ALEPH):  # refused before the standard part is asked
        for digits in (MAX_DIGITS + 1, 16000, 10**9):
            with pytest.raises(ValueError, match=f"^digits must be at most {MAX_DIGITS}$"):
                decimal_approximation(value, digits)


def test_decimal_approximation_of_infinitesimal_is_zero():
    assert decimal_approximation(1 / ALEPH, 6) == "0.000000"
    assert decimal_approximation(-1 / ALEPH, 6) == "0.000000"


# -- the polynomial gcd against a reference of the tests' own ------------------------


def reference_gcd(p, q):
    """Primitive pseudo-remainder Euclid all the way down (Knuth, *TAOCP*
    Vol. 2, 4.6.1), positive leading coefficient.  It shares no helper
    with ``_poly_gcd`` but ``_trim``, so it can judge that function."""

    def primitive(r):
        content = gcd(*r)
        return tuple(c // content for c in r)

    a, b = primitive(p), primitive(q)
    while b:
        r = a
        while len(r) >= len(b):
            shift, lead = len(r) - len(b), r[-1]
            r = [c * b[-1] for c in r]
            for i, c in enumerate(b):
                r[shift + i] -= lead * c
            r = _trim(r)
        a, b = b, primitive(r) if r else ()
    return tuple(-c for c in a) if a[-1] < 0 else a


def planted_pair(integer):
    """Two nonzero polynomials of degree at most 4 that share a planted
    factor: none, a linear one, a quadratic one or a linear one squared.
    Each side gets a content from 1 to 12, and coefficients of either sign,
    up to 9 in magnitude or of 2^64 to 2^200.  ``integer(lo, hi)`` draws
    the numbers, so Hypothesis and a seeded loop build the same shapes."""

    def coefficient(nonzero=False):
        if integer(0, 4) == 0:
            value = integer(2**64, 2**200)
        else:
            value = integer(1 if nonzero else 0, 9)
        return -value if integer(0, 1) else value

    def poly(degree):
        return tuple(coefficient() for _ in range(degree)) + (coefficient(nonzero=True),)

    shape = integer(0, 3)
    if shape == 0:
        factor = (1,)
    elif shape < 3:
        factor = poly(shape)
    else:
        linear = poly(1)
        factor = _mul(linear, linear)
    room = 5 - len(factor)
    p = _mul(_mul(factor, poly(integer(0, room))), (integer(1, 12),))
    q = _mul(_mul(factor, poly(integer(0, room))), (integer(1, 12),))
    return p, q


def test_reference_gcd_on_known_pairs():
    x_minus_1, x_plus_2 = (-1, 1), (2, 1)
    assert reference_gcd(_mul(x_minus_1, x_plus_2), _mul(x_minus_1, (3, 1))) == x_minus_1
    assert reference_gcd((-6, 0, 6), (3, -3)) == x_minus_1  # (6x^2 - 6, 3 - 3x)
    assert reference_gcd(_mul(x_plus_2, x_plus_2), _mul(x_plus_2, (0, 1))) == x_plus_2
    assert reference_gcd((1, 0, 1), (-1, 0, 1)) == (1,)
    assert reference_gcd((4, 0, 2), (6, 0, 3)) == (2, 0, 1)


@given(st.data())
def test_poly_gcd_matches_the_reference(data):
    p, q = planted_pair(lambda lo, hi: data.draw(st.integers(lo, hi)))
    assert _poly_gcd(p, q) == _poly_gcd(q, p) == reference_gcd(p, q)


def test_poly_gcd_matches_the_reference_on_seeded_pairs():
    rng = random.Random(22)
    for _ in range(10_000):
        p, q = planted_pair(rng.randint)
        assert _poly_gcd(p, q) == reference_gcd(p, q), (p, q)


def test_poly_gcd_of_a_limit_size_pair():
    # A degree-61 polynomial times a linear factor, and the same without
    # it, with 1500-digit coefficients: about what Hyperrational.parse
    # builds at its limits.  A linear factor is irreducible, so the gcd is
    # that factor made primitive with a positive lead, or 1 where it does
    # not divide; the reference would pseudo-divide 62 times, its
    # coefficients growing by 1500 digits each time.
    rng = random.Random(61)

    def number():
        return rng.randrange(10**1499, 10**1500) * rng.choice((-1, 1))

    poly = tuple(number() for _ in range(62))
    c, d = number(), number()
    sign = 1 if d > 0 else -1
    want = (sign * c // gcd(c, d), sign * d // gcd(c, d))
    # By Gauss's lemma a primitive c + d*x that divides poly has c dividing
    # poly's constant term.
    assert poly[0] % want[0]
    linear = _mul((c, d), (rng.randrange(2, 10**6) * rng.choice((-1, 1)),))
    assert _poly_gcd(_mul(poly, linear), linear) == _poly_gcd(linear, _mul(poly, linear)) == want
    assert _poly_gcd(poly, linear) == _poly_gcd(linear, poly) == (1,)


# -- property tests ------------------------------------------------------------------


def hyperrationals(max_degree=2, max_coeff=9):
    """General quotients of polynomials, half the time; otherwise the
    shapes the engine computes: plain rationals, ``k*aleph^j/n`` and
    Laurent sums over one power of ``aleph``."""
    coeff = st.integers(min_value=-max_coeff, max_value=max_coeff)
    positive = st.integers(min_value=1, max_value=max_coeff)
    polys = st.lists(coeff, min_size=1, max_size=max_degree + 1)
    powers = st.integers(min_value=-max_degree, max_value=max_degree)

    def poly(coeffs):
        return sum(
            (Hyperrational(c) * ALEPH**i for i, c in enumerate(coeffs)),
            Hyperrational(0),
        )

    def build(pair):
        num_coeffs, den_coeffs = pair
        if not any(den_coeffs):
            den_coeffs = den_coeffs[:-1] + [1]
        return poly(num_coeffs) / poly(den_coeffs)

    def laurent(args):
        coeffs, n, j = args
        return poly(coeffs) / (n * ALEPH**j)

    quotients = st.tuples(polys, polys).map(build)
    rationals = st.builds(Hyperrational, coeff, positive)
    monomials = st.builds(lambda k, j, n: k * ALEPH**j / n, coeff, powers, positive)
    laurents = st.tuples(polys, positive, powers).map(laurent)
    return st.one_of(quotients, st.one_of(rationals, monomials, laurents))


def substitution_point(*values: Hyperrational) -> int:
    """Beyond every polynomial root involved: one plus the largest
    coefficient-magnitude sum (Cauchy bound with integer leading terms)."""
    worst = 1
    for v in values:
        for poly in (v.numerator_coefficients, v.denominator_coefficients):
            worst = max(worst, sum(abs(c) for c in poly))
    return worst + 1


@given(hyperrationals(), hyperrationals(), hyperrationals())
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Hyperrational(0) == a
    assert a * Hyperrational(1) == a
    assert a - a == Hyperrational(0)
    if b:
        assert b * (a / b) == a
        assert b * (1 / b) == Hyperrational(1)


@given(hyperrationals(), hyperrationals(), hyperrationals())
def test_order_laws(a, b, c):
    assert (a < b) + (a == b) + (a > b) == 1
    if a < b:
        assert a + c < b + c
        if c > Hyperrational(0):
            assert a * c < b * c
    if a < b and b < c:
        assert a < c


@given(hyperrationals(), hyperrationals())
def test_substitution_commutes_with_arithmetic(a, b):
    results = [a + b, a - b, a * b] + ([a / b] if b else [])
    n = substitution_point(a, b, *results)
    sa, sb = a.substitute(n), b.substitute(n)
    assert (a + b).substitute(n) == sa + sb
    assert (a - b).substitute(n) == sa - sb
    assert (a * b).substitute(n) == sa * sb
    if b:
        assert (a / b).substitute(n) == sa / sb


@given(hyperrationals(max_degree=4, max_coeff=50), st.integers(-10**6, 10**6))
def test_integer_substitution_matches_the_fraction_route(value, n):
    # An integer point takes integer Horner and builds one Fraction; the
    # Fraction route evaluates each polynomial in Fraction arithmetic.
    try:
        expected = value.substitute(Fraction(n))
    except ZeroDivisionError as exc:
        with pytest.raises(ZeroDivisionError) as raised:
            value.substitute(n)
        assert str(raised.value) == str(exc)
    else:
        result = value.substitute(n)
        assert type(result) is Fraction and result == expected


@pytest.mark.parametrize("n", [-3, 2, 3, 5])
def test_integer_substitution_at_a_denominator_root(n):
    value = (ALEPH + 7) / ((ALEPH - 3) * (ALEPH + 3) * (ALEPH - 5) * (ALEPH - 2))
    with pytest.raises(ZeroDivisionError) as by_fraction:
        value.substitute(Fraction(n))
    with pytest.raises(ZeroDivisionError) as by_int:
        value.substitute(n)
    assert str(by_int.value) == str(by_fraction.value)
    assert value.substitute(4) == value.substitute(Fraction(4)) == Fraction(-11, 14)


@given(hyperrationals(), hyperrationals())
def test_substitution_preserves_comparisons(a, b):
    n = substitution_point(a, b, a - b)
    sa, sb = a.substitute(n), b.substitute(n)
    assert (a < b) == (sa < sb)
    assert (a == b) == (sa == sb)


@given(hyperrationals(), hyperrationals(max_degree=1, max_coeff=5))
def test_standard_part_ignores_infinitesimal_shift(a, raw):
    if a.magnitude() is MagnitudeClass.INFINITE:
        a = 1 / a if a else a
    epsilon = raw / ALEPH**3  # degree gap forces an infinitesimal
    assert epsilon.magnitude() in (MagnitudeClass.INFINITESIMAL, MagnitudeClass.ZERO)
    assert (a + epsilon).standard_part() == a.standard_part()


@given(hyperrationals())
def test_text_round_trip(a):
    assert Hyperrational.parse(str(a)) == a


@given(hyperrationals(), hyperrationals())
def test_results_are_canonical(a, b):
    results = [a + b, a - b, a * b] + ([a / b] if b else [])
    for value in results:
        num = value.numerator_coefficients
        den = value.denominator_coefficients
        assert gcd(*num, *den) == 1
        assert den[-1] > 0
        if len(num) > 1 and len(den) > 1:
            assert reference_gcd(num, den) == (1,)


operands = st.one_of(
    hyperrationals(),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)


@given(operands, operands)
def test_hash_consistent_with_equality(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, a + Hyperrational(0)}) == 1


# CPython hashes the rational n/d as n times the inverse of d modulo this
# prime, so the rule meets its edge cases at multiples of it.
HASH_MODULUS = sys.hash_info.modulus


@given(
    st.one_of(
        st.integers(-(10**6), 10**6),
        st.integers(2**64, 2**200),
        st.integers(-(2**200), -(2**64)),
    ),
    st.one_of(
        st.integers(1, 10**6),
        st.integers(2**64, 2**200),
        st.integers(1, 2**64).map(lambda k: k * HASH_MODULUS),
    ),
)
def test_rational_hash_is_the_fraction_hash(n, d):
    value = Hyperrational(n, d)
    assert hash(value) == hash(value.as_fraction())
    if d == 1:
        assert hash(value) == hash(n)


@given(st.integers(2, 10**6), st.integers(0, 2**64))
def test_rational_hash_never_returns_minus_one(d, k):
    # -(d + k*M)/d is -1 modulo M, and so is its reduced form.  hash()
    # would map a -1 itself, so ask __hash__ directly.
    value = Hyperrational(-(d + k * HASH_MODULUS), d)
    assert value.__hash__() == hash(value.as_fraction()) == -2


# -- the integer-only kernel -------------------------------------------------------


def monomial(k, j, n):
    """``k*aleph^j/n`` built through the polynomial route, so the operands of
    the kernel tests do not depend on the kernel."""
    if j >= 0:
        return Hyperrational._raw((0,) * j + (k,), (n,))
    return Hyperrational._raw((k,), (0,) * -j + (n,))


def polynomial_product(x, y):
    return Hyperrational._raw(_mul(x._num, y._num), _mul(x._den, y._den))


def polynomial_quotient(x, y):
    return Hyperrational._raw(_mul(x._num, y._den), _mul(x._den, y._num))


def assert_same_value(got, want):
    assert got.numerator_coefficients == want.numerator_coefficients
    assert got.denominator_coefficients == want.denominator_coefficients
    assert str(got) == str(want)
    assert hash(got) == hash(want)


big = st.one_of(
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)
nonzero = st.integers(min_value=-9, max_value=9).filter(bool)
kernel_operands = st.one_of(
    hyperrationals(),
    st.just(Hyperrational(0)),
    st.builds(monomial, st.one_of(nonzero, big), st.integers(-3, 3), st.integers(1, 9)),
    st.builds(monomial, nonzero, st.integers(-3, 3), st.integers(min_value=2**64, max_value=2**200)),
)


@given(kernel_operands, kernel_operands, st.one_of(st.integers(-9, 9), big))
def test_integer_kernel_matches_the_polynomial_route(a, b, k):
    # Single-term operands take integer-only * and /, an int factor among
    # them; every result must equal the polynomial route's.
    assert_same_value(a * b, polynomial_product(a, b))
    if b:
        assert_same_value(a / b, polynomial_quotient(a, b))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    exact_k = Hyperrational._raw((k,) if k else (), (1,))
    assert_same_value(a * k, polynomial_product(a, exact_k))
    assert_same_value(k * a, polynomial_product(exact_k, a))


def test_engine_values_never_take_the_polynomial_route(monkeypatch):
    # The values of the uniform measure are one term over one term, and the
    # ones it sums have constant denominators, so the sum and product rules
    # on every pair of two small spaces need no polynomial gcd.
    def refuse(p, q):
        raise AssertionError(f"polynomial route for {p} and {q}")

    monkeypatch.setattr(hyperrational, "_cancel", refuse)
    labels = ("a", "b", "c", "d")
    for space in (build_finite_space([("u", labels)]), build_scaled_space(labels)):
        props = [Proposition(space, mask) for mask in range(16)]
        for a in props:
            assert check_sum_rule(a).passed
            for b in props:
                assert check_product_rule(a, b).passed


# -- Henrici's reduction, the order and the approximation against references -------


def reference_sum(x, y):
    return Hyperrational._raw(
        _add(_mul(x._num, y._den), _mul(y._num, x._den)), _mul(x._den, y._den)
    )


def reference_difference(x, y):
    return Hyperrational._raw(_cross_diff(x, y), _mul(x._den, y._den))


def reference_inverse_power(x, k):
    num, den = (1,), (1,)
    for _ in range(k):
        num, den = _mul(num, x._den), _mul(den, x._num)
    return Hyperrational._raw(num, den)


def reference_approximation(value, digits):
    """Half-even rounding of the standard part through ``decimal``."""
    frac = value.standard_part()
    with decimal.localcontext() as ctx:
        ctx.prec = digits + len(str(abs(frac.numerator))) + 5
        quotient = decimal.Decimal(frac.numerator) / decimal.Decimal(frac.denominator)
        rounded = quotient.quantize(
            decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN
        )
    return format(rounded if rounded else abs(rounded), "f")


coefficients = st.one_of(st.integers(-9, 9), big)
polynomials = st.lists(coefficients, max_size=3).map(_trim)
nonzero_polynomials = polynomials.filter(bool)
# Shared factors: 2*aleph + 1, aleph and aleph^2 - 1, or a random one.
factors = st.one_of(
    st.sampled_from([(1, 2), (0, 1), (-1, 0, 1)]),
    st.lists(coefficients, min_size=2, max_size=3).map(_trim).filter(lambda p: len(p) > 1),
)


@st.composite
def henrici_operands(draw):
    """Two canonical values whose parts share the factor ``f`` wherever the
    draw puts it: both denominators, a numerator and the other
    denominator, or nowhere.  Zero and single-term values come too."""
    f = draw(factors)

    def operand():
        shape = draw(st.sampled_from(["quotient", "quotient", "monomial", "zero"]))
        if shape == "zero":
            return Hyperrational(0)
        if shape == "monomial":
            j = draw(st.integers(-3, 3))
            c = draw(coefficients.filter(bool))
            n = draw(st.one_of(st.integers(1, 9), st.integers(2**64, 2**200)))
            return monomial(c, j, n)
        num, den = draw(polynomials), draw(nonzero_polynomials)
        if draw(st.booleans()):
            num = _mul(num, f)
        if draw(st.booleans()):
            den = _mul(den, f)
        return Hyperrational._raw(num, den)

    return operand(), operand()


@settings(max_examples=300)
@given(henrici_operands(), st.integers(1, 3), st.sampled_from([0, 1, 2, 3, 6, 20]))
def test_henrici_routes_match_the_reference_routes(pair, k, digits):
    a, b = pair
    assert_same_value(a + b, reference_sum(a, b))
    assert_same_value(a - b, reference_difference(a, b))
    assert_same_value(a * b, polynomial_product(a, b))
    if b:
        assert_same_value(a / b, polynomial_quotient(a, b))
        assert_same_value(b**-k, reference_inverse_power(b, k))
    assert_same_value(-a, Hyperrational._raw(_neg(a._num), a._den))
    sign = _lead_sign(_cross_diff(a, b))
    assert (a < b, a <= b, a > b, a >= b) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
    for value in (a, a * b, a - b):
        if value.magnitude() is not INF:
            want = reference_approximation(value, digits)
            assert decimal_approximation(value, digits) == want
