"""Tests for the verification suites themselves: they pass on the real
code, they are seed-reproducible, and they actually detect violations."""

import importlib
import random
from fractions import Fraction

import pytest

from evidentia import ALEPH, Hyperrational, Odds, build_finite_space, oracle, probability, suites
from evidentia.dsl import ast, lower_predicate, parse_model


def test_measure_law_suites_pass_quickly():
    assert suites.sum_rule_suite(random.Random(1), 60).ok
    assert suites.additivity_suite(random.Random(2), 60).ok
    assert suites.odds_reciprocity_suite(random.Random(3), 60).ok
    assert suites.monotonicity_suite(random.Random(4), 60).ok
    assert suites.product_rule_random_suite(random.Random(5), 60).ok


def test_product_rule_exhaustive_small():
    result = suites.product_rule_exhaustive_suite(max_atoms=7)
    assert result.ok
    assert result.cases == sum(4**n for n in range(1, 8))


def test_the_random_product_rule_notes_its_skipped_pairs(monkeypatch):
    # A random B of 13 or more cells is almost never empty, so the test
    # empties it in the first and third case: those two are skipped.
    drawn = suites._random_proposition
    calls = []

    def draw(rng, space):
        calls.append(space)
        prop = drawn(rng, space)
        return space.bottom if len(calls) in (2, 6) else prop

    monkeypatch.setattr(suites, "_random_proposition", draw)
    result = suites.product_rule_random_suite(random.Random(3), 3)
    assert len(calls) == 6
    assert result.summary() == "product rule (random): 3 cases, ok (2 skipped with E(B) = 0)"


def test_a_summary_lists_three_failures_and_counts_the_rest():
    result = suites.SuiteResult("laws", 9, [f"case {i}" for i in range(5)], "note")
    assert result.summary() == (
        "laws: 9 cases, 5 FAILED (note)\n  case 0\n  case 1\n  case 2\n  ... and 2 more"
    )


def test_suite_results_compare_by_value():
    result = suites.SuiteResult("laws", 2, ["case 0"], "note")
    assert result == suites.SuiteResult("laws", 2, ["case 0"], "note")
    assert result != suites.SuiteResult("laws", 2, [], "note")
    assert result != suites.SuiteResult("laws", 3, ["case 0"], "note")
    assert repr(result) == "SuiteResult(name='laws', cases=2, failures=['case 0'], notes='note')"


def test_hyperrational_laws_suite_passes():
    assert suites.hyperrational_laws_suite(random.Random(6), 300).ok


def test_scale_invariance_on_fixtures():
    result = suites.scale_invariance_suite()
    assert result.ok
    assert result.cases > 0


def test_scale_invariance_skips_unenumerable_models():
    # The oracle suite refuses aleph tranches before it compiles anything.
    models = [("m", parse_model('model "m" { continuum t from 0 to 1 tranches aleph }'))]
    for result in (
        suites.scale_invariance_suite(models),
        suites.oracle_equivalence_suite(random.Random(0), 0, models=models),
    ):
        assert result.ok
        assert "skipped models: m" in result.notes


def test_oracle_equivalence_passes():
    assert suites.oracle_equivalence_suite(random.Random(7), 60).ok


def test_oracle_equivalence_is_seed_reproducible():
    first = suites.oracle_equivalence_suite(random.Random(99), 40, models=[])
    second = suites.oracle_equivalence_suite(random.Random(99), 40, models=[])
    assert (first.cases, first.failures) == (second.cases, second.failures)


def test_run_all_smoke():
    results = suites.run_all(seed=5, instances=10)
    assert results and all(r.ok for r in results)
    names = [r.name for r in results]
    assert "sum rule" in names and "oracle equivalence" in names


def test_run_all_with_zero_instances_is_empty():
    assert suites.run_all(seed=5, instances=0) == []


def test_run_all_refuses_a_negative_count_before_any_suite_runs(monkeypatch):
    monkeypatch.setattr(suites, "builtin_models", lambda: pytest.fail("run_all went on"))
    with pytest.raises(ValueError, match="non-negative"):
        suites.run_all(seed=5, instances=-2)


def test_substitution_bound_clears_polynomial_roots():
    from evidentia import ALEPH

    value = (ALEPH - 10) / (ALEPH - 7)  # roots at 10 and 7
    bound = suites.substitution_bound(value)
    assert bound > 10
    assert value.substitute(bound) > 0


def test_exhaustive_product_rule_checks_one_pair_per_count_signature(monkeypatch):
    """The closed-form pass makes the engine checks the 4^n walk used to
    find: the first pair of each signature (|A and B|, |B|), in walk order."""
    checked = []

    def record(a, b):
        checked.append((a.space.size, a.mask, b.mask))
        return real_check(a, b)

    real_check = suites.check_product_rule
    monkeypatch.setattr(suites, "check_product_rule", record)
    result = suites.product_rule_exhaustive_suite(9)

    walked = []
    for n in range(1, 10):
        seen = set()
        for a in range(1 << n):
            for b in range(1 << n):
                signature = ((a & b).bit_count(), b.bit_count())
                if n <= 6 or signature not in seen:
                    seen.add(signature)
                    walked.append((n, a, b))
    assert checked == walked
    assert result.ok and result.cases == sum(4**n for n in range(1, 10))


def test_exhaustive_product_rule_builds_one_meet_per_count_signature(monkeypatch):
    """The meet of each pair is counted from the two masks; ``&`` builds it
    as a proposition only for the right-hand division P(AB)/P(B), once per
    signature (|A and B|, |B|) with |B| >= 1 on each space."""
    meets = []
    real = spaces.Proposition.__and__

    def counted(self, other):
        meets.append(other)
        return real(self, other)

    monkeypatch.setattr(spaces.Proposition, "__and__", counted)
    assert suites.product_rule_exhaustive_suite(8).ok
    assert len(meets) <= sum(n * (n + 3) // 2 for n in range(1, 9)) == 156


def test_exhaustive_product_rule_renders_nothing_and_multiplies_once_per_count(monkeypatch):
    """Every pair passes, so no side is rendered to text; evidence is kept
    per space and atom count, so a space of n atoms makes at most n + 1
    multiplications.  Both sides are kept per space and count pair
    ``(|A and B|, |B|)``, and the probability per space and atom count, so
    a space divides at most twice per signature and once per count."""
    calls = {"__str__": 0, "__mul__": 0, "__truediv__": 0}
    for name in calls:
        real = getattr(Hyperrational, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(Hyperrational, name, counted)
    assert suites.product_rule_exhaustive_suite(8).ok
    assert calls["__str__"] == 0
    assert calls["__mul__"] <= sum(n + 1 for n in range(1, 9))
    divisions = 0
    for n in range(1, 9):
        signatures = n * (n + 3) // 2  # 0 <= |A and B| <= |B|, 1 <= |B| <= n
        divisions += 2 * signatures + (n + 1)
    assert divisions == 356
    assert calls["__truediv__"] <= divisions


def _off_by_one(measure, when):
    """``measure``, plus one where ``when`` holds for the atom count of its
    last argument (the proposition, or the one conditioned on)."""

    def wrong(*props):
        return measure(*props) + (1 if when(props[-1].count) else 0)

    return wrong


measures = importlib.import_module("evidentia.evidence")
compiler = importlib.import_module("evidentia.dsl.compiler")
hyperrational = importlib.import_module("evidentia.hyperrational")
spaces = importlib.import_module("evidentia.spaces")


_add, _mul, _lt, _substitute = (
    Hyperrational.__add__, Hyperrational.__mul__, Hyperrational.__lt__, Hyperrational.substitute
)


def _add_plus_one_after_a_rational(a, b):
    """a + b, plus one when a is rational and b holds aleph: b + a differs."""
    total = _add(a, b)
    return _add(total, 1) if a.is_rational and not b.is_rational else total


def _mul_plus_one_before_a_rational(a, b):
    """a * b, plus one when a holds aleph and b is rational: b * a differs."""
    product = _mul(a, b)
    return _add(product, 1) if b.is_rational and not a.is_rational else product


def _lt_reversed_before_aleph(a, b):
    """a < b answered as a > b when b holds aleph."""
    return _lt(b, a) if not b.is_rational else _lt(a, b)


def _substitute_further_for_longer_numerators(value, n):
    """Substitution at a point past ``n`` that grows with the length of the
    numerator: still past every root, but not one point for every value."""
    return _substitute(value, n + len(value.numerator_coefficients))


def _off_by_one_on_one_pair(prop, given, right=measures.conditional_probability):
    """P(A|B), plus one for the single pair n=5, A=0b10110, B=0b01111: a
    defect that depends on the masks, not on the counts, so no pair chosen
    per count signature shows it and only the full walk up to 6 atoms does."""
    wrong = (prop.space.size, prop.mask, given.mask) == (5, 0b10110, 0b01111)
    return right(prop, given) + (1 if wrong else 0)


BROKEN_LAWS = {
    "laws": (
        hyperrational, "_poly_gcd", lambda p, q: (1,),
        lambda: suites.hyperrational_laws_suite(random.Random(1), 300),
        (431, 'case 0: division inverts multiplication with a=-9, b=2/(aleph + 2), c=-2/(aleph - 3)'),
    ),
    # One operation broken each: every law family of the suite fails.
    "laws_addition": (
        Hyperrational, "__add__", _add_plus_one_after_a_rational,
        lambda: suites.hyperrational_laws_suite(random.Random(1), 300),
        (193, 'case 0: a+b == b+a with a=-9, b=2/(aleph + 2), c=-2/(aleph - 3)'),
    ),
    "laws_multiplication": (
        Hyperrational, "__mul__", _mul_plus_one_before_a_rational,
        lambda: suites.hyperrational_laws_suite(random.Random(1), 300),
        (535, 'case 0: a*b == b*a with a=-9, b=2/(aleph + 2), c=-2/(aleph - 3)'),
    ),
    "laws_comparison": (
        Hyperrational, "__lt__", _lt_reversed_before_aleph,
        lambda: suites.hyperrational_laws_suite(random.Random(1), 300),
        (543, 'case 0: exactly one of <, ==, > with a=-9, b=2/(aleph + 2), c=-2/(aleph - 3)'),
    ),
    "laws_substitution": (
        Hyperrational, "substitute", _substitute_further_for_longer_numerators,
        lambda: suites.hyperrational_laws_suite(random.Random(1), 300),
        (902, 'case 0: substitution commutes with + with a=-9, b=2/(aleph + 2), c=-2/(aleph - 3)'),
    ),
    "sum_rule": (
        measures, "evidence", _off_by_one(measures.evidence, lambda count: count == 3),
        lambda: suites.sum_rule_suite(random.Random(1), 200),
        (18, 'case 0: E(T) = 9; E(A) + E(not A) = 10; P(A) + P(not A) = 10/9'),
    ),
    "additivity": (
        suites, "evidence", _off_by_one(measures.evidence, lambda count: count == 3),
        lambda: suites.additivity_suite(random.Random(2), 200),
        (60, 'case 3: E(union) = 14, sum of parts = 18, count * unit = 14'),
    ),
    "odds": (
        suites, "odds", lambda prop: Odds(None) if prop.count == 3 else measures.odds(prop),
        lambda: suites.odds_reciprocity_suite(random.Random(3), 200),
        (9, 'case 19: O(A) = 4/3, O(not A) = infinite-odds'),
    ),
    "monotonicity": (
        suites, "evidence", _off_by_one(measures.evidence, lambda count: count == 3),
        lambda: suites.monotonicity_suite(random.Random(12), 300),
        (1, 'case 227: E(A and B) = 4, E(A) = 4'),
    ),
    "exhaustive": (
        measures, "conditional_probability",
        _off_by_one(measures.conditional_probability, lambda count: count == 7),
        lambda: suites.product_rule_exhaustive_suite(8),
        (16, 'n=7 A=0x0 B=0x7f: P(A|B) = 1; P(AB)/P(B) = 0'),
    ),
    "exhaustive_one_pair": (
        measures, "conditional_probability", _off_by_one_on_one_pair,
        lambda: suites.product_rule_exhaustive_suite(8),
        (1, 'n=5 A=0x16 B=0xf: P(A|B) = 3/2; P(AB)/P(B) = 1/2'),
    ),
    "random_product": (
        measures, "conditional_probability",
        _off_by_one(measures.conditional_probability, lambda count: count % 2),
        lambda: suites.product_rule_random_suite(random.Random(5), 200),
        (93, 'case 9 (n=386): P(A|B) = 284/195; P(AB)/P(B) = 89/195'),
    ),
    "oracle": (
        suites, "probability", _off_by_one(measures.probability, lambda count: count % 2),
        lambda: suites.oracle_equivalence_suite(random.Random(7), 60, models=[]),
        (24, "case 0: engine 2 != oracle 1 for not (a in {a0, a1, a6, a10} and a == a8) over ['a']"),
    ),
    "oracle_conditional": (
        suites, "conditional_probability",
        _off_by_one(measures.conditional_probability, lambda count: count % 2),
        lambda: suites.oracle_equivalence_suite(random.Random(7), 60, models=[]),
        (8, 'case 7: conditional engine 3224/1771 != oracle 1453/1771'),
    ),
    "oracle_odds": (
        compiler, "odds", lambda prop: Odds(None),
        lambda: suites.oracle_equivalence_suite(random.Random(7), 0),
        (2, 'coin: O(face == H): engine infinite-odds != oracle 1'),
    ),
    "oracle_odds_aleph": (
        compiler, "odds", lambda prop: Odds(ALEPH),
        lambda: suites.oracle_equivalence_suite(random.Random(7), 0),
        (2, 'coin: O(face == H): engine aleph != oracle 1'),
    ),
}


@pytest.mark.parametrize("law", BROKEN_LAWS)
def test_suites_catch_a_broken_measure(monkeypatch, law):
    """A deliberately wrong law must be detected, with the same first
    counterexample every time."""
    module, name, wrong, run, expected = BROKEN_LAWS[law]
    monkeypatch.setattr(module, name, wrong)
    result = run()
    assert not result.ok
    assert (len(result.failures), result.failures[0]) == expected


def test_a_nonzero_value_that_substitutes_to_zero_is_a_division_failure(monkeypatch):
    # Shifted by one, b = -1 substitutes to 0: the law's right side has no
    # quotient, which is a failure line, not a ZeroDivisionError.
    monkeypatch.setattr(Hyperrational, "substitute", lambda value, n: _substitute(value, n) + 1)
    result = suites.hyperrational_laws_suite(random.Random(1), 300)
    assert (
        "case 9: substitution commutes with / with a=-2*aleph^2/3 - 2*aleph/3 - 1/9, b=-1, "
        "c=-1/(4*aleph^2 - 3*aleph + 7)"
    ) in result.failures


def test_scale_invariance_sees_a_measure_broken_on_scaled_spaces_only(monkeypatch):
    """The finite and the scaled compile of a model are two spaces, each
    with its own probabilities: a probability the finite compile computed
    must not answer for the scaled one."""
    right = measures.evidence
    monkeypatch.setattr(
        measures, "evidence", lambda prop: right(prop) * (2 if prop.space.scaled else 1)
    )
    result = suites.scale_invariance_suite()
    assert not result.ok
    assert (len(result.failures), result.failures[0]) == (
        11, "coin: P(face == H): finite 1/2 != scaled 1"
    )


def test_scale_invariance_reports_an_aleph_that_leaks_into_a_ratio(monkeypatch):
    """Answers are compared as the engine gives them: a ratio that keeps an
    aleph on the scaled side is a failure line, not an error."""
    right = measures.evidence
    monkeypatch.setattr(
        measures, "evidence", lambda prop: right(prop) * (ALEPH if prop.space.scaled else 1)
    )
    result = suites.scale_invariance_suite()
    assert (len(result.failures), result.failures[0]) == (
        11, "coin: P(face == H): finite 1/2 != scaled aleph/2"
    )
    assert result.failures[2] == (
        "deck: table(groups): finite aces: 1/13; face: 3/13; numbered: 9/13 "
        "!= scaled aces: aleph/13; face: 3*aleph/13; numbered: 9*aleph/13"
    )


def test_failure_lines_print_odds_and_log_odds_as_values(monkeypatch):
    right = compiler.odds

    def doubled_when_scaled(prop):
        return Odds(right(prop).ratio * 2) if prop.space.scaled else right(prop)

    monkeypatch.setattr(compiler, "odds", doubled_when_scaled)
    coin = [line for line in suites.scale_invariance_suite().failures if line.startswith("coin")]
    assert coin == [
        "coin: O(face == H): finite 1 != scaled 2",
        "coin: L(face == H): finite 0.000000 (log of odds 1) != scaled 0.693147 (log of odds 2)",
    ]


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("chain", [ast.AndPred, ast.OrPred])
def test_oracle_chains_of_every_length_count_as_the_engine_does(chain, size):
    dims = [("a", ("a0", "a1", "a2")), ("b", ("b0", "b1"))]
    leaves = (
        ast.LabelIn("a", ("a0", "a1")),
        ast.LabelIs("b", "b1"),
        ast.NotPred(ast.LabelIs("a", "a1")),
        ast.LabelIn("a", ("a1", "a2")),
    )
    pred = chain(leaves[:size])
    engine = probability(lower_predicate(build_finite_space(dims), pred))
    assert oracle.probability(dims, suites.oracle_predicate(pred)) == engine.as_fraction()


@pytest.mark.parametrize("size", [2, 3])
def test_an_oracle_chain_stops_at_its_first_decisive_part(size):
    # A comparison inside a tranche raises when called, so a chain that
    # reached it would raise.
    dims = [("t", ("0", "1"))]
    bounds = {"t": {"0": (Fraction(0), Fraction(1)), "1": (Fraction(1), Fraction(2))}}
    splits = ast.Comparison("t", "<", Fraction(1, 2))
    with pytest.raises(ValueError, match="splits a tranche"):
        oracle.probability(dims, suites.oracle_predicate(splits, bounds))
    rest = (splits,) * (size - 1)
    decisive = [(ast.OrPred, ast.TrueLiteral(), 1), (ast.AndPred, ast.FalseLiteral(), 0)]
    for chain, first, expected in decisive:
        predicate = suites.oracle_predicate(chain((first, *rest)), bounds)
        assert oracle.probability(dims, predicate) == expected
