"""The measures: evidence, odds, log-odds, probability, conditional
probability, and executable checks of the rules they obey.

``evidence`` is the primitive: the exact cardinality of a proposition
(atom count, times ``aleph/n`` per atom on a scaled space).  Every other
measure is a ratio of evidence values, so the scale convention cancels and
finite and scaled spaces answer ratio queries with the same rationals.

The ``check_*`` functions return small reports instead of raising, because
they double as the executable derivation of the classic sum and product
rules; the verification suites and the CLI ``check`` subcommand aggregate
them over many random propositions.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from ._value import Value, record
from .hyperrational import Hyperrational, MagnitudeClass, _check_digits, _rounded
from .spaces import PossibilitySpace, Proposition, StateSpacePartition


def evidence(prop: Proposition) -> Hyperrational:
    """Counting measure: how much of the space makes the proposition true."""
    return _evidence(prop.space, prop.count)


def _evidence(space: PossibilitySpace, count: int) -> Hyperrational:
    """Evidence for ``count`` atoms of ``space``.  Every atom carries the
    space's unit cardinality, so on one space the value depends on the atom
    count alone: each space keeps the values it has computed, by count."""
    value = space._evidence.get(count)
    if value is None:
        value = space._evidence[count] = space.unit_cardinality * count
    return value


def evidence_top(space: PossibilitySpace) -> Hyperrational:
    """Evidence for the proposition that is true by logic alone."""
    return space.total_cardinality


def probability(prop: Proposition) -> Hyperrational:
    """E(A) / E(A or not A): evidence for ``prop`` relative to certainty.

    Evidence counts atoms, so on one space the ratio depends on the atom
    count alone: each space keeps the ratios it has computed, by count."""
    known = prop.space._probabilities
    count = prop.count
    value = known.get(count)
    if value is None:
        value = known[count] = evidence(prop) / evidence_top(prop.space)
    return value


def conditional_probability(prop: Proposition, given: Proposition) -> Hyperrational:
    """E(A and B) / E(B): how much of the evidence for ``given`` also
    carries ``prop``.

    Evidence counts atoms, so on one space the ratio depends on the count
    pair ``(|A and B|, |B|)`` alone, read from the two masks: each space
    keeps the ratios it has computed, by count pair.  A refusal is never
    kept: conditioning on a proposition with no evidence, which is one with
    no atom (an atom's evidence is positive), raises on every call.  An
    argument that is not a proposition raises ``TypeError``, and
    propositions of two spaces ``ValueError``."""
    if not (isinstance(prop, Proposition) and isinstance(given, Proposition)):
        stray = given if isinstance(prop, Proposition) else prop
        raise TypeError(f"expected a Proposition, not {type(stray).__name__}")
    space = prop.space
    if given.space is not space:
        raise ValueError("propositions belong to different spaces")
    reference = space._count(given.mask)
    if not reference:
        raise ZeroDivisionError(
            "conditioning on impossibility: the reference proposition has zero evidence"
        )
    meet = space._count(prop.mask & given.mask)
    known = space._conditionals
    key = (meet, reference)
    value = known.get(key)
    if value is None:
        value = known[key] = _evidence(space, meet) / _evidence(space, reference)
    return value


def atomic_probability(space: PossibilitySpace) -> Hyperrational:
    """Probability of one indivisible possibility: 1 over the space's
    total cardinality.

    On a scaled space this is the infinitesimal ``1/aleph``: positive yet
    smaller than every positive rational, which keeps a bare possibility
    strictly above an impossibility.
    """
    return Hyperrational(1) / evidence_top(space)


@record
class Odds(Value):
    """Ratio of the evidence for a proposition to the evidence against it.

    ``ratio`` is ``None`` for the distinguished infinite-odds value
    (nothing speaks against the proposition); zero odds is the ordinary
    value 0.
    """

    ratio: Hyperrational | None

    def __init__(self, ratio):
        self.__dict__["ratio"] = ratio

    @property
    def is_infinite(self) -> bool:
        return self.ratio is None

    @property
    def is_zero(self) -> bool:
        return self.ratio is not None and not self.ratio

    def __str__(self):
        return "infinite-odds" if self.ratio is None else str(self.ratio)


def odds(prop: Proposition) -> Odds:
    """E(A) / E(not A), with infinite-odds when nothing speaks against A."""
    against = evidence(~prop)
    if not against:
        return Odds(None)
    return Odds(evidence(prop) / against)


@record
class LogOdds(Value):
    """Log of the odds as a fixed-width decimal, with the exact odds kept
    alongside; the decimal is presentation only."""

    odds: Hyperrational
    approx: str
    base: str
    digits: int

    def __init__(self, odds, approx, base, digits):
        attrs = self.__dict__
        attrs["odds"] = odds
        attrs["approx"] = approx
        attrs["base"] = base
        attrs["digits"] = digits


def log_odds(prop: Proposition, digits: int = 6, base: str = "e") -> LogOdds:
    """Logarithm of the odds, rounded half-even to ``digits`` places, at
    most ``hyperrational.MAX_DIGITS``.

    Natural log by default; bases "2" and "10" are accepted.  Requires
    appreciable odds: zero, infinite-odds, and infinitesimal or infinite
    ratios have no finite logarithm on the ordinary scale.
    """
    return _log_of_odds(odds(prop), digits, base)


def _log_of_odds(o: Odds, digits: int, base: str) -> LogOdds:
    """:func:`log_odds` of a proposition whose odds are ``o``."""
    _check_digits(digits)
    if str(base) not in ("e", "2", "10"):
        raise ValueError(f"unsupported log base {base!r}; choose 'e', '2' or '10'")
    if o.is_infinite:
        raise ValueError("log-odds undefined: nothing speaks against the proposition")
    if o.is_zero:
        raise ValueError("log-odds undefined: the proposition has zero evidence")
    if o.ratio.magnitude() is not MagnitudeClass.APPRECIABLE:
        raise ValueError(f"log-odds undefined for {o.ratio.magnitude()} odds")
    approx = _log_decimal(o.ratio.standard_part(), digits, str(base))
    return LogOdds(o.ratio, approx, str(base), digits)


def _log_decimal(value: Fraction, digits: int, base: str) -> str:
    p, q = value.numerator, value.denominator
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 20 + len(str(len(str(p)) + len(str(q))))
        result = decimal.Decimal(p).ln() - decimal.Decimal(q).ln()
        if base == "2":
            result /= decimal.Decimal(2).ln()
        elif base == "10":
            result /= decimal.Decimal(10).ln()
    return _rounded(*result.as_integer_ratio(), digits)


@record
class CheckReport(Value):
    """Outcome of one executable rule check, with both sides rendered in
    ``detail`` (by the product rule on failure only)."""

    rule: str
    passed: bool
    detail: str
    skipped: bool = False

    def __init__(self, rule, passed, detail, skipped=False):
        attrs = self.__dict__
        attrs["rule"] = rule
        attrs["passed"] = passed
        attrs["detail"] = detail
        attrs["skipped"] = skipped


#: The reports every passing and every skipped product-rule pair share.
_PRODUCT_RULE_HOLDS = CheckReport("product rule", True, "")
_PRODUCT_RULE_SKIPPED = CheckReport(
    "product rule", True, "skipped: E(B) = 0, conditioning undefined", skipped=True
)


def check_sum_rule(prop: Proposition) -> CheckReport:
    """E(T) = E(A) + E(not A), and the complementary fractions sum to 1."""
    total = evidence_top(prop.space)
    parts = evidence(prop) + evidence(~prop)
    fractions_sum = probability(prop) + probability(~prop)
    passed = total == parts and fractions_sum == Hyperrational(1)
    detail = (
        f"E(T) = {total}; E(A) + E(not A) = {parts}; "
        f"P(A) + P(not A) = {fractions_sum}"
    )
    return CheckReport("sum rule", passed, detail)


def check_product_rule(prop: Proposition, given: Proposition) -> CheckReport:
    """P(A|B) = P(A and B) / P(B), checked exactly; skipped when E(B) = 0,
    which is when B holds no atom: an atom's evidence is positive.

    P(A|B) comes first: :func:`conditional_probability` validates the pair,
    and its refusal of an atomless B is the skip (one for a B with atoms
    propagates).  The right side depends on ``(|A and B|, |B|)`` alone, so
    each space divides it, building the meet, once per count pair, keeping
    P(A|B)'s own object when the two are equal, so later pairs compare by
    identity.  Each call counts both masks once; no verdict is kept, and
    only a failure gets a report of its own, with both sides in ``detail``."""
    try:
        lhs = conditional_probability(prop, given)
    except ZeroDivisionError:
        if given.count:
            raise
        return _PRODUCT_RULE_SKIPPED
    space = prop.space
    key = (space._count(prop.mask & given.mask), space._count(given.mask))
    known = space._quotients
    rhs = known.get(key)
    if rhs is None:
        rhs = probability(prop & given) / probability(given)
        rhs = known[key] = lhs if rhs == lhs else rhs
    if lhs is rhs or lhs == rhs:
        return _PRODUCT_RULE_HOLDS
    return CheckReport("product rule", False, f"P(A|B) = {lhs}; P(AB)/P(B) = {rhs}")


def partition_distribution(
    partition: StateSpacePartition,
) -> list[tuple[str, Hyperrational]]:
    """Exact probability of each block, in declaration order; the values
    sum to exactly 1 because the blocks tile the space."""
    return [(name, probability(prop)) for name, prop in partition.blocks]
