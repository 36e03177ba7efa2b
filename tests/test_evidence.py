"""Tests for the measures and their derived rules."""

import decimal
import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from evidentia import (
    ALEPH,
    Hyperrational,
    Proposition,
    atomic_probability,
    build_finite_space,
    build_scaled_space,
    check_product_rule,
    check_sum_rule,
    conditional_probability,
    evidence,
    evidence_top,
    log_odds,
    make_partition,
    odds,
    partition_distribution,
    probability,
)
from evidentia.dsl import compile_model, parse_model
from evidentia.hyperrational import MAX_DIGITS

measures = importlib.import_module("evidentia.evidence")

RANKS = "A 2 3 4 5 6 7 8 9 10 J Q K".split()
SUITS = ["clubs", "diamonds", "hearts", "spades"]


def deck():
    return build_finite_space([("rank", RANKS), ("suit", SUITS)])


def scaled_coin():
    return build_scaled_space(["heads", "tails"], name="face")


def heads(space):
    return space.where(lambda a: a["face"] == "heads")


# -- evidence --------------------------------------------------------------------


def test_evidence_counts_atoms():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    assert evidence(aces) == Hyperrational(4)


def test_evidence_of_scaled_tranche():
    space = scaled_coin()
    assert evidence(heads(space)) == ALEPH / 2


@pytest.mark.parametrize("scaled_first", [False, True])
def test_evidence_is_kept_per_space(scaled_first):
    # Each space keeps the evidence it has computed, keyed by atom count,
    # and keeps it to itself: a finite and a scaled space of one size
    # answer the same mask with their own units, whichever is asked first.
    labels = [f"u{i}" for i in range(6)]
    finite = build_finite_space([("u", labels)])
    scaled = build_scaled_space(labels, name="u")
    mask = 0b101101
    order = [scaled, finite] if scaled_first else [finite, scaled]
    got = {space.scaled: evidence(Proposition(space, mask)) for space in order}
    assert got[False] == Hyperrational(4)
    assert got[True] == ALEPH * 4 / 6


def test_a_space_keeps_one_evidence_per_count_asked():
    space = build_finite_space([("u", [f"u{i}" for i in range(10)])])
    rng = random.Random(3)
    asked = set()
    for _ in range(500):
        prop = space.proposition(i for i in range(6) if rng.random() < 0.5)
        assert evidence(prop) == Hyperrational(prop.count)
        asked.add(prop.count)
    assert set(space._evidence) == asked and len(asked) == 7


def test_evidence_of_bottom_is_zero():
    assert evidence(deck().bottom) == Hyperrational(0)


def test_evidence_top():
    assert evidence_top(deck()) == Hyperrational(52)
    assert evidence_top(scaled_coin()) == ALEPH
    assert evidence_top(build_finite_space([("only", ["x"])])) == Hyperrational(1)


def test_atoms_carry_equal_evidence():
    space = deck()
    values = {evidence(space.proposition({i})) for i in range(space.size)}
    assert values == {Hyperrational(1)}


# -- odds -------------------------------------------------------------------------


def test_odds_of_aces():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    # counting oracle: 4 aces against 48 others
    assert odds(aces).ratio == Hyperrational(4, 48) == Hyperrational(1, 12)


def test_odds_of_scaled_heads_is_one():
    assert odds(heads(scaled_coin())).ratio == Hyperrational(1)


def test_odds_distinguished_values():
    space = deck()
    assert odds(space.top).is_infinite
    assert str(odds(space.top)) == "infinite-odds"
    assert odds(space.bottom).is_zero


def test_odds_reciprocity():
    space = deck()
    rng = random.Random(7)
    for _ in range(50):
        prop = space.proposition(i for i in range(52) if rng.getrandbits(1))
        forward, backward = odds(prop), odds(~prop)
        if forward.is_infinite or backward.is_infinite:
            assert forward.is_zero or backward.is_zero
        else:
            assert forward.ratio * backward.ratio == Hyperrational(1)


# -- log odds ---------------------------------------------------------------------


def test_log_odds_of_even_chances_is_zero():
    result = log_odds(heads(scaled_coin()))
    assert result.approx == "0.000000"
    assert result.odds == Hyperrational(1)


def test_log_odds_of_aces():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    result = log_odds(aces, digits=4)
    # float math is an adequate independent oracle at 4 digits
    assert result.approx == f"{math.log(1 / 12):.4f}" == "-2.4849"
    assert result.odds == Hyperrational(1, 12)


def test_log_odds_bases():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    assert log_odds(aces, digits=4, base="10").approx == f"{math.log10(1 / 12):.4f}"
    even = log_odds(heads(scaled_coin()), base="2")
    assert even.approx == "0.000000"
    with pytest.raises(ValueError):
        log_odds(aces, base="7")


def test_log_odds_complementary_sum_is_zero():
    space = deck()
    reds = space.where(lambda a: a["suit"] in {"hearts", "diamonds"})
    forward = Fraction(log_odds(reds, digits=8).approx)
    backward = Fraction(log_odds(~reds, digits=8).approx)
    assert forward + backward == 0


def test_log_odds_refuses_negative_digits_before_any_work():
    space = build_finite_space([("u", [f"u{i}" for i in range(26)])])
    one = space.proposition({0})  # odds 1/25, ln = -3.2189
    assert log_odds(one, digits=0).approx == "-3"
    for prop in (one, space.bottom):  # refused before the odds are asked
        with pytest.raises(ValueError, match="^digits must be nonnegative$"):
            log_odds(prop, digits=-1)


def test_log_odds_refuses_digits_past_the_limit_before_any_work():
    # A logarithm's time grows about 100-fold per 4-fold digits (about 1 s
    # at 3000), so the limit is checked before the odds are asked.
    space = build_finite_space([("u", [f"u{i}" for i in range(26)])])
    one = space.proposition({0})  # odds 1/25, ln = -3.2188758248...
    assert log_odds(one, digits=MAX_DIGITS).approx.startswith("-3.2188758248")
    for prop in (one, space.bottom):
        for digits in (MAX_DIGITS + 1, 3000, 10**9):
            with pytest.raises(ValueError, match=f"^digits must be at most {MAX_DIGITS}$"):
                log_odds(prop, digits=digits)


def _reference_log_decimal(ratio: Fraction, digits: int, base: str) -> str:
    # The logarithm log_odds takes, rounded by Decimal.quantize instead.
    p, q = ratio.numerator, ratio.denominator
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 20 + len(str(len(str(p)) + len(str(q))))
        value = decimal.Decimal(p).ln() - decimal.Decimal(q).ln()
        if base != "e":
            value /= decimal.Decimal(int(base)).ln()
        rounded = value.quantize(
            decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN
        )
    return format(rounded if rounded else abs(rounded), "f")


def test_log_odds_rounds_as_decimal_quantize_does():
    rng = random.Random(20)
    # Odds 1000/1001 and 1001/1000 round to zero at few digits, and odds 1
    # is exactly zero: none of them prints "-0".
    pairs = [(1000, 2001), (1001, 2001), (1, 2)]
    for _ in range(60):
        n = rng.randint(2, 400)
        pairs.append((rng.randint(1, n - 1), n))
    spaces = {}
    for k, n in pairs:
        for scaled in (False, True):
            if (n, scaled) not in spaces:
                labels = [f"u{i}" for i in range(n)]
                spaces[n, scaled] = (
                    build_scaled_space(labels, name="u")
                    if scaled
                    else build_finite_space([("u", labels)])
                )
            prop = spaces[n, scaled].proposition(range(k))
            for base in ("e", "2", "10"):
                for digits in (0, 1, 2, 3, 6, rng.randint(4, 60), 60):
                    expected = _reference_log_decimal(Fraction(k, n - k), digits, base)
                    assert log_odds(prop, digits, base).approx == expected, (k, n, scaled, base, digits)


def test_log_odds_undefined_cases():
    space = deck()
    with pytest.raises(ValueError, match="log-odds undefined"):
        log_odds(space.bottom)
    with pytest.raises(ValueError, match="log-odds undefined"):
        log_odds(space.top)


# -- probability --------------------------------------------------------------------


def test_probability_of_aces():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    assert probability(aces) == Hyperrational(4, 52) == Hyperrational(1, 13)


def test_probability_of_scaled_heads():
    assert probability(heads(scaled_coin())) == Hyperrational(1, 2)


def test_probability_extremes():
    space = deck()
    assert probability(space.bottom) == Hyperrational(0)
    assert probability(space.top) == Hyperrational(1)


def test_a_space_keeps_one_probability_per_count_asked():
    # Each space keeps the probabilities it has computed, keyed by atom
    # count, and keeps them to itself.
    labels = [f"u{i}" for i in range(10)]
    space, twin = build_finite_space([("u", labels)]), build_finite_space([("u", labels)])
    rng = random.Random(4)
    asked = set()
    for _ in range(500):
        prop = space.proposition(i for i in range(6) if rng.random() < 0.5)
        assert probability(prop) == Hyperrational(prop.count, 10)
        asked.add(prop.count)
    assert set(space._probabilities) == asked and len(asked) == 7
    assert twin._probabilities == {}


@pytest.mark.parametrize("scaled", [False, True])
def test_probability_on_weighted_spaces_is_the_evidence_ratio(scaled):
    source = (
        'model "m" {\n  dimension d = {a, b, c}\n'
        "  continuum x from 0 to 10 tranches 10\n}\n"
        "query P(x < 4)\nquery P(x >= 7)\n"
    )
    space = compile_model(parse_model(source), scaled=scaled).space
    assert space.dimensions[1].weights == (4, 3, 3)
    rng = random.Random(5)
    for _ in range(300):
        prop = Proposition(space, rng.getrandbits(space.cell_count))
        assert probability(prop) == evidence(prop) / evidence_top(space)
        assert probability(prop) == Hyperrational(prop.count, space.size)


# -- conditional probability -----------------------------------------------------------


def test_conditional_probability_by_counting():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    ace_or_face = space.where(lambda a: a["rank"] in {"A", "J", "Q", "K"})
    # oracle: 4 aces among the 16 ace-or-face cards
    assert ace_or_face.count == 16
    assert conditional_probability(aces, ace_or_face) == Hyperrational(4, 16)


def test_conditioning_on_top_reduces_to_probability():
    space = deck()
    rng = random.Random(3)
    for _ in range(25):
        prop = space.proposition(i for i in range(52) if rng.getrandbits(1))
        assert conditional_probability(prop, space.top) == probability(prop)


def test_conditioning_on_impossibility_is_an_error():
    space = deck()
    with pytest.raises(ZeroDivisionError, match="conditioning on impossibility"):
        conditional_probability(space.top, space.bottom)


@pytest.mark.parametrize("scaled", [False, True])
def test_a_space_keeps_one_conditional_per_count_pair(monkeypatch, scaled):
    # Each space keeps the conditionals it has computed, keyed by
    # (|A and B|, |B|), and keeps them to itself; a refusal is never kept.
    labels = [f"u{i}" for i in range(6)]
    space = build_finite_space([("u", labels)])
    twin = build_scaled_space(labels, name="u") if scaled else build_finite_space([("u", labels)])
    divisions = []
    real = Hyperrational.__truediv__

    def counted(self, other):
        divisions.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Hyperrational, "__truediv__", counted)
    # two pairs of one signature: |A and B| = 1, |B| = 3
    first = conditional_probability(Proposition(space, 0b000011), Proposition(space, 0b010101))
    second = conditional_probability(Proposition(space, 0b100001), Proposition(space, 0b111000))
    assert first == second == Hyperrational(1, 3)
    assert len(divisions) == 1 and list(space._conditionals) == [(1, 3)]
    own = conditional_probability(Proposition(twin, 0b000011), Proposition(twin, 0b010101))
    assert own == Hyperrational(1, 3)
    assert len(divisions) == 2 and list(twin._conditionals) == [(1, 3)]
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="conditioning on impossibility"):
            conditional_probability(space.top, space.bottom)
    assert list(space._conditionals) == [(1, 3)]


def test_conditioning_across_spaces_is_an_error():
    with pytest.raises(ValueError):
        conditional_probability(deck().top, deck().top)


@pytest.mark.parametrize("measure", [conditional_probability, check_product_rule])
@pytest.mark.parametrize("stray_first", [False, True])
def test_a_non_proposition_argument_is_a_type_error(measure, stray_first):
    aces = deck().where(lambda a: a["rank"] == "A")
    args = (5, aces) if stray_first else (aces, 5)
    with pytest.raises(TypeError, match="expected a Proposition, not int"):
        measure(*args)


def test_conditionals_and_the_product_rule_agree_with_the_meet_on_every_kind_of_space():
    # The count of A and B is read from the two masks; the meet built as a
    # proposition must give the same answers, including on a weighted space,
    # where a cell weighs its run of tranches and not one atom.
    source = (
        'model "m" {\n  dimension d = {a, b, c}\n'
        "  continuum x from 0 to 10 tranches 10\n}\n"
        "query P(x < 4)\nquery P(x >= 7)\n"
    )
    weighted = compile_model(parse_model(source)).space
    assert weighted.dimensions[1].weights == (4, 3, 3)
    assert weighted._count is not int.bit_count
    spaces = [
        weighted,
        compile_model(parse_model(source), scaled=True).space,
        build_finite_space([("u", [f"u{i}" for i in range(5)]), ("v", ["v0", "v1"])]),
        build_scaled_space([f"t{i}" for i in range(7)]),
    ]
    rng = random.Random(9)
    outcomes = {"passed": 0, "skipped": 0, "refused": 0}
    for _ in range(800):
        space = rng.choice(spaces)
        other = space if rng.random() < 0.8 else rng.choice(spaces)
        a = Proposition(space, rng.getrandbits(space.cell_count))
        b = Proposition(other, rng.getrandbits(other.cell_count) if rng.random() < 0.85 else 0)
        if other is not space:
            outcomes["refused"] += 1
            for measure in (conditional_probability, check_product_rule):
                with pytest.raises(ValueError, match="different spaces"):
                    measure(a, b)
            continue
        report = check_product_rule(a, b)
        if not b.count:
            outcomes["skipped"] += 1
            assert report.passed and report.skipped and "E(B) = 0" in report.detail
            with pytest.raises(ZeroDivisionError, match="conditioning on impossibility"):
                conditional_probability(a, b)
            continue
        outcomes["passed"] += 1
        meet = a & b
        assert conditional_probability(a, b) == evidence(meet) / evidence(b)
        assert conditional_probability(a, b) == Hyperrational(meet.count, b.count)
        assert report.passed and not report.skipped and report.detail == ""
    assert min(outcomes.values()) >= 40


# -- atomic probability ------------------------------------------------------------------


def test_atomic_probability_finite():
    assert atomic_probability(deck()) == Hyperrational(1, 52)
    assert atomic_probability(build_finite_space([("only", ["x"])])) == Hyperrational(1)


def test_atomic_probability_scaled_is_infinitesimal():
    value = atomic_probability(scaled_coin())
    assert value == 1 / ALEPH
    assert value > Hyperrational(0)
    assert value > probability(scaled_coin().bottom)


def test_possibility_beats_impossibility_everywhere():
    for space in (deck(), scaled_coin(), build_scaled_space([f"t{i}" for i in range(90)])):
        assert atomic_probability(space) > probability(space.bottom)
        assert probability(space.bottom) == Hyperrational(0)


# -- sum and product rules ------------------------------------------------------------------


def test_sum_rule_on_200_random_subsets():
    space = deck()
    rng = random.Random(11)
    for _ in range(200):
        prop = space.proposition(i for i in range(52) if rng.getrandbits(1))
        assert check_sum_rule(prop).passed


def test_sum_rule_top_and_scaled_coin():
    space = deck()
    assert check_sum_rule(space.top).passed
    report = check_sum_rule(heads(scaled_coin()))
    assert report.passed
    assert "aleph" in report.detail


def test_sum_rule_report_renders_both_sides():
    report = check_sum_rule(deck().top)
    assert "E(T)" in report.detail and "E(A) + E(not A)" in report.detail


def test_product_rule_exhaustive_small_space():
    space = build_finite_space([("u", ["a", "b", "c", "d"])])
    subsets = [
        space.proposition(i for i in range(4) if mask >> i & 1)
        for mask in range(16)
    ]
    for a in subsets:
        for b in subsets:
            report = check_product_rule(a, b)
            assert report.passed
            assert report.skipped == (b.count == 0)


def test_product_rule_identity_cases():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    assert check_product_rule(aces, space.top).passed
    assert conditional_probability(aces, aces) == Hyperrational(1)


def test_product_rule_skip_reason():
    space = deck()
    report = check_product_rule(space.top, space.bottom)
    assert report.skipped and report.passed
    assert "E(B) = 0" in report.detail


def test_only_an_atomless_given_turns_a_refused_conditional_into_a_skip(monkeypatch):
    # check_product_rule skips on the ZeroDivisionError of P(A|B); a measure
    # that refuses a B with atoms is a fault, and it must surface.
    space = deck()
    skipped = check_product_rule(space.top, space.bottom)
    refused = ZeroDivisionError("conditioning on impossibility: a broken measure")

    def broken(prop, given):
        raise refused

    monkeypatch.setattr(measures, "conditional_probability", broken)
    with pytest.raises(ZeroDivisionError) as err:
        check_product_rule(space.top, space.top)
    assert err.value is refused
    # Every skipped pair shares one report, as every passing pair does.
    assert check_product_rule(space.top, space.bottom) is skipped
    assert skipped.skipped and skipped.passed
    assert skipped.detail == "skipped: E(B) = 0, conditioning undefined"


@pytest.mark.parametrize("given", ["top", "bottom"])
def test_product_rule_across_spaces_is_an_error_even_when_skippable(given):
    # An empty B on another space is refused like a non-empty one, not skipped.
    with pytest.raises(ValueError, match="different spaces"):
        check_product_rule(deck().top, getattr(deck(), given))


def test_a_space_keeps_one_product_rule_quotient_per_count_pair(monkeypatch):
    # P(AB)/P(B) is divided once per signature (|A and B|, |B|) on a space;
    # every pair of that signature is still checked against it.
    space = build_finite_space([("u", [f"u{i}" for i in range(6)])])
    divisions = []
    real = Hyperrational.__truediv__

    def counted(self, other):
        divisions.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Hyperrational, "__truediv__", counted)
    # three pairs of one signature: |A and B| = 1, |B| = 3
    for a, b in [(0b000011, 0b010101), (0b100001, 0b111000), (0b100000, 0b100110)]:
        assert check_product_rule(Proposition(space, a), Proposition(space, b)).passed
    assert space._quotients == {(1, 3): Hyperrational(1, 3)}
    # one conditional, two probabilities, one quotient
    assert len(divisions) == 4
    # The quotient equals P(A|B), so it is kept as that very object.
    assert space._quotients[(1, 3)] is space._conditionals[(1, 3)]


def test_skipped_and_refused_product_rule_pairs_keep_no_quotient():
    space, other = deck(), deck()
    assert check_product_rule(space.top, space.bottom).skipped
    with pytest.raises(ValueError, match="different spaces"):
        check_product_rule(space.top, other.top)
    with pytest.raises(ValueError, match="different spaces"):
        check_product_rule(space.top, other.bottom)
    assert space._quotients == {} and other._quotients == {}


def test_finite_and_scaled_spaces_keep_their_own_quotients(monkeypatch):
    labels = [f"u{i}" for i in range(4)]
    finite = build_finite_space([("u", labels)])
    scaled = build_scaled_space(labels, name="u")
    assert check_product_rule(Proposition(finite, 0b0011), Proposition(finite, 0b0110)).passed
    assert list(finite._quotients) == [(1, 2)] and scaled._quotients == {}
    # A quotient kept on the finite space must not answer for the scaled one.
    monkeypatch.setitem(finite._quotients, (1, 2), Hyperrational(7))
    assert check_product_rule(Proposition(scaled, 0b0011), Proposition(scaled, 0b0110)).passed
    assert scaled._quotients == {(1, 2): Hyperrational(1, 2)}


# -- additivity and monotonicity ----------------------------------------------------------------


@st.composite
def disjoint_family(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    scaled = draw(st.booleans())
    labels = tuple(f"u{i}" for i in range(n))
    space = (
        build_scaled_space(labels, name="u")
        if scaled
        else build_finite_space([("u", labels)])
    )
    assignment = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    parts = [set() for _ in range(5)]
    for cell, bucket in enumerate(assignment):
        if bucket < 4:  # bucket 4 means "left out"
            parts[bucket].add(cell)
    return space, [space.proposition(p) for p in parts]


@given(disjoint_family())
def test_additivity_over_disjoint_unions(bundle):
    space, parts = bundle
    union = space.bottom
    total = Hyperrational(0)
    covered = 0
    for prop in parts:
        union = union | prop
        total = total + evidence(prop)
        covered += prop.count
    assert evidence(union) == total == space.unit_cardinality * covered


@given(disjoint_family())
def test_conjunction_never_gains_evidence(bundle):
    space, parts = bundle
    a, b = parts[0], parts[1]
    meet = a & b
    assert evidence(meet) <= evidence(a)
    assert (evidence(meet) == evidence(a)) == (meet == a)


# -- normalisation at infinite scale ---------------------------------------------------------------


def test_tranche_measures_sum_to_total():
    for n in (1, 2, 13, 52, 90, 100):
        space = build_scaled_space([f"t{i}" for i in range(n)])
        assert space.unit_cardinality * n == ALEPH
    assert ALEPH * (1 / ALEPH) == Hyperrational(1)


def test_scale_invariance_of_probabilities():
    rng = random.Random(5)
    for n in (2, 5, 13):
        labels = tuple(f"u{i}" for i in range(n))
        finite = build_finite_space([("u", labels)])
        scaled = build_scaled_space(labels, name="u")
        for _ in range(30):
            members = [i for i in range(n) if rng.getrandbits(1)]
            p_finite = probability(finite.proposition(members))
            p_scaled = probability(scaled.proposition(members))
            assert p_finite.as_fraction() == p_scaled.as_fraction()


# -- partition distribution ---------------------------------------------------------------------


def test_deck_partition_distribution():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    face = space.where(lambda a: a["rank"] in {"J", "Q", "K"})
    partition = make_partition(
        space, [("aces", aces), ("face", face), ("numbered", ~(aces | face))]
    )
    rows = partition_distribution(partition)
    assert rows == [
        ("aces", Hyperrational(1, 13)),
        ("face", Hyperrational(3, 13)),
        ("numbered", Hyperrational(9, 13)),
    ]
    total = Hyperrational(0)
    for _, value in rows:
        total = total + value
    assert total == Hyperrational(1)


def test_single_block_distribution():
    space = deck()
    rows = partition_distribution(make_partition(space, [("all", space.top)]))
    assert rows == [("all", Hyperrational(1))]


def test_quadrant_median_split():
    space = build_scaled_space([f"t{i:02d}" for i in range(90)], name="angle")
    low = space.where(lambda a: a["angle"] < "t45")
    partition = make_partition(space, [("low", low), ("high", ~low)])
    assert partition_distribution(partition) == [
        ("low", Hyperrational(1, 2)),
        ("high", Hyperrational(1, 2)),
    ]
