"""Verification suites: randomized, exhaustive and differential checks
that the measures obey their own rules.

Every suite is deterministic given a seed and reports exact
counterexamples.  Expected values come from routes independent of the code
under test: direct enumeration through :mod:`evidentia.oracle`,
substitution of large integers for ``aleph``, or plain Python counting.

The model suites compare answers as values with ``==``, exact because a
``Hyperrational`` is canonical: an ``aleph`` left in a ratio is a failure,
not an error.  An engine answer is undefined (None) where it raises
:data:`~evidentia.dsl.compiler.UNDEFINED`, as ``eval`` reports an error
line; the oracle's conditional where its condition holds nowhere.

The exhaustive product-rule pass decides the rule for *all* proposition
pairs of spaces up to 12 atoms.  Evidence counts atoms, so every value the
check computes for a pair -- E(B), E(A and B), E(T) and the ratios of them
-- depends only on the pair's count signature ``(|A and B|, |B|)`` on its
space: pairs of one signature run the same arithmetic on the same numbers
and get the same verdict.  Up to 6 atoms the pass still checks every pair;
past that it checks one pair per signature.  The signatures are every
``0 <= i <= j <= n``, and ``A = 2^i - 1``, ``B = 2^j - 1`` in ``(i, j)``
order are the first pairs of each that a walk over all pairs meets.  The
case count is the number of pairs decided, ``sum of 4^n``.  The full walk
up to 6 atoms stays because it is the only part of the pass that counts
the meet of every mask pair, so it can catch a mask-dependent defect that
no signature representative can.  Each space keeps both sides by count
pair, so each division runs once per signature per space, and the meet is
built as a proposition only for the right-hand one, whose quotient is
kept as P(A|B)'s own object when equal to it.  Every pair still gets
P(A|B) from the engine, which validates it, both mask counts and the
comparison (by identity past its signature's first pair); no verdict is
kept.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from . import fixtures, oracle
from ._value import Value, field, record
from .dsl import ast
from .dsl.compiler import UNDEFINED, compile_model, lower_predicate
from .dsl.diagnostics import ModelError
from .dsl.parser import parse_model
from .evidence import (
    LogOdds,
    Odds,
    check_product_rule,
    check_sum_rule,
    conditional_probability,
    evidence,
    odds,
    probability,
)
from .hyperrational import Hyperrational
from .spaces import PossibilitySpace, Proposition, build_finite_space, build_scaled_space

#: Default seed for every randomized suite; override with --seed or the
#: EVIDENTIA_SEED environment variable.  Recorded in check output so runs
#: can be reproduced.
DEFAULT_SEED = 271828


@record
class SuiteResult(Value):
    """One suite's outcome: its case count, failure lines and notes."""

    name: str
    cases: int
    failures: list[str] = field(default_factory=list)
    notes: str = ""

    def __init__(self, name, cases, failures=None, notes=""):
        attrs = self.__dict__
        attrs["name"] = name
        attrs["cases"] = cases
        attrs["failures"] = [] if failures is None else failures
        attrs["notes"] = notes

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILED"
        extra = f" ({self.notes})" if self.notes else ""
        text = f"{self.name}: {self.cases} cases, {status}{extra}"
        for failure in self.failures[:3]:
            text += f"\n  {failure}"
        if len(self.failures) > 3:
            text += f"\n  ... and {len(self.failures) - 3} more"
        return text


# -- random generators -------------------------------------------------------


def _random_single_dim_space(
    rng: random.Random, low: int = 1, high: int = 60, scaled_share: float = 0.4
) -> PossibilitySpace:
    n = rng.randint(low, high)
    labels = tuple(f"u{i}" for i in range(n))
    if rng.random() < scaled_share:
        return build_scaled_space(labels, name="u")
    return build_finite_space([("u", labels)])


def _random_members(rng: random.Random, size: int) -> int:
    # One draw per cell, in cell order: recorded seeds depend on this stream.
    return sum(rng.getrandbits(1) << i for i in range(size))


def _random_proposition(rng: random.Random, space: PossibilitySpace) -> Proposition:
    return Proposition(space, _random_members(rng, space.size))


def random_hyperrational(
    rng: random.Random, max_degree: int = 2, max_coeff: int = 9
) -> Hyperrational:
    """A random field element: the quotient of two random integer
    polynomials, brought to canonical form directly from their coefficient
    tuples.  No field operation builds it: the laws suite tests ``+`` and
    ``*`` where its laws call them, and the unit tests cover ``**``."""

    def poly(force_nonzero: bool) -> tuple[int, ...]:
        coeffs = [
            rng.randint(-max_coeff, max_coeff)
            for _ in range(rng.randint(0, max_degree) + 1)
        ]
        if force_nonzero and not any(coeffs):
            coeffs[-1] = rng.randint(1, max_coeff)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    return Hyperrational._raw(poly(False), poly(True))


# -- measure-law suites --------------------------------------------------------


def _law_suite(name: str, rng: random.Random, cases: int, law: Callable) -> SuiteResult:
    """Run ``law`` ``cases`` times; each call draws one case from ``rng``
    and returns a failure detail, or None when the law holds."""
    failures = []
    for case in range(cases):
        detail = law(rng)
        if detail is not None:
            failures.append(f"case {case}: {detail}")
    return SuiteResult(name, cases, failures)


def sum_rule_suite(rng: random.Random, cases: int = 200) -> SuiteResult:
    """E(T) = E(A) + E(not A) and P(A) + P(not A) = 1 on random subsets of
    random finite and scaled spaces."""

    def law(rng):
        report = check_sum_rule(_random_proposition(rng, _random_single_dim_space(rng)))
        return None if report.passed else report.detail

    return _law_suite("sum rule", rng, cases, law)


def additivity_suite(rng: random.Random, families: int = 1000) -> SuiteResult:
    """E of a disjoint union equals the sum of the parts, and both equal
    unit-cardinality times an independent Python count."""

    def law(rng):
        space = _random_single_dim_space(rng)
        ids = list(range(space.size))
        rng.shuffle(ids)
        chosen = ids[: rng.randint(0, space.size)]
        parts: list[set[int]] = [set() for _ in range(rng.randint(1, 5))]
        for cell in chosen:
            parts[rng.randrange(len(parts))].add(cell)
        total = sum((evidence(space.proposition(p)) for p in parts), Hyperrational(0))
        union = evidence(space.proposition(chosen))
        expected = space.unit_cardinality * len(chosen)
        if union == total == expected:
            return None
        return f"E(union) = {union}, sum of parts = {total}, count * unit = {expected}"

    return _law_suite("additivity", rng, families, law)


def product_rule_exhaustive_suite(max_atoms: int = 12) -> SuiteResult:
    """P(A|B) = P(AB)/P(B) over all proposition pairs of spaces with 1 up
    to ``max_atoms`` atoms: every pair up to 6 atoms, one pair per count
    signature past that.  Each side's division runs once per signature per
    space; the meet's count, P(A|B) and the comparison run for every pair."""
    failures = []
    cases = 0
    for n in range(1, max_atoms + 1):
        space = build_finite_space([("u", tuple(f"u{i}" for i in range(n)))])
        cases += 4**n
        if n <= 6:
            pairs = product([Proposition(space, m) for m in range(1 << n)], repeat=2)
        else:  # the first pair of each count signature, as the module docstring says
            pairs = (
                (Proposition(space, (1 << i) - 1), Proposition(space, (1 << j) - 1))
                for i in range(n + 1)
                for j in range(i, n + 1)
            )
        for a, b in pairs:
            report = check_product_rule(a, b)
            if not report.passed:
                failures.append(f"n={n} A={a.mask:#x} B={b.mask:#x}: {report.detail}")
    return SuiteResult("product rule (exhaustive pairs)", cases, failures)


def product_rule_random_suite(rng: random.Random, instances: int = 1000) -> SuiteResult:
    """The product rule on random pairs over larger spaces (13..400 cells,
    finite and scaled)."""
    failures = []
    skipped = 0
    for case in range(instances):
        space = _random_single_dim_space(rng, 13, 400, 0.3)
        a = _random_proposition(rng, space)
        b = _random_proposition(rng, space)
        report = check_product_rule(a, b)
        if report.skipped:
            skipped += 1
        elif not report.passed:
            failures.append(f"case {case} (n={space.size}): {report.detail}")
    notes = f"{skipped} skipped with E(B) = 0" if skipped else ""
    return SuiteResult("product rule (random)", instances, failures, notes)


def odds_reciprocity_suite(rng: random.Random, cases: int = 500) -> SuiteResult:
    """O(A) * O(not A) = 1 whenever both are defined; the distinguished
    zero/infinite values pair up otherwise."""

    def law(rng):
        prop = _random_proposition(rng, _random_single_dim_space(rng))
        forward = odds(prop)
        backward = odds(~prop)
        if forward.is_infinite or backward.is_infinite:
            ok = forward.is_zero or backward.is_zero
        else:
            ok = forward.ratio * backward.ratio == Hyperrational(1)
        return None if ok else f"O(A) = {forward}, O(not A) = {backward}"

    return _law_suite("odds reciprocity", rng, cases, law)


def monotonicity_suite(rng: random.Random, cases: int = 1000) -> SuiteResult:
    """E(A and B) <= E(A), with equality exactly when conjoining B drops
    nothing from A."""

    def law(rng):
        space = _random_single_dim_space(rng)
        a = _random_proposition(rng, space)
        meet = a & _random_proposition(rng, space)
        lhs = evidence(meet)
        rhs = evidence(a)
        if lhs <= rhs and (lhs == rhs) == (meet == a):
            return None
        return f"E(A and B) = {lhs}, E(A) = {rhs}"

    return _law_suite("monotonicity of conjunction", rng, cases, law)


# -- scale invariance ----------------------------------------------------------

_SCALE_DEPENDENT_KINDS = ("E", "atomic")  # absolute evidence keeps the scale


def _defined(runner: Callable[[], object], undefined=UNDEFINED):
    """``runner()``, or None where it raises ``undefined``: by default, where
    the engine's answer is undefined."""
    try:
        return runner()
    except undefined:
        return None


def _text(answer) -> str:
    """An answer as a failure line shows it, as ``eval`` would: no repr."""
    if isinstance(answer, list):  # a table's rows
        return "; ".join(f"{name}: {value}" for name, value in answer)
    if isinstance(answer, LogOdds):
        return f"{answer.approx} (log of odds {answer.odds})"
    return str(answer)


def scale_invariance_suite(
    models: Sequence[tuple[str, ast.Model]] | None = None
) -> SuiteResult:
    """Every ratio query answers identically on the finite and the scaled
    compile of the same model.  Absolute-evidence and atomic queries are
    scale-dependent by design and sit out."""
    models = builtin_models() if models is None else models
    failures = []
    cases = 0
    skipped_models = []
    for name, model in models:
        try:
            finite = compile_model(model, scaled=False)
        except ModelError:
            skipped_models.append(name)  # e.g. aleph-tranche continua
            continue
        scaled = compile_model(model, scaled=True)
        for query_f, query_s in zip(finite.queries, scaled.queries):
            if query_f.kind in _SCALE_DEPENDENT_KINDS:
                continue
            cases += 1
            value_f, value_s = _defined(query_f.evaluate), _defined(query_s.evaluate)
            if value_f != value_s:
                failures.append(
                    f"{name}: {query_f.text}: finite {_text(value_f)} != scaled {_text(value_s)}"
                )
    notes = f"skipped models: {', '.join(skipped_models)}" if skipped_models else ""
    return SuiteResult("scale invariance", cases, failures, notes)


# -- oracle equivalence ----------------------------------------------------------

#: The most atoms the oracle comparison enumerates.  Random instances draw
#: up to this many, and a model of more sits out: the oracle walks every
#: atom and holds a pair of fractions per tranche.
ORACLE_ATOMS = 10**4


def _random_dimensions(rng: random.Random) -> list[tuple[str, tuple[str, ...]]]:
    if rng.random() < 0.1:
        n = rng.randint(1000, ORACLE_ATOMS)
        return [("a", tuple(f"a{i}" for i in range(n)))]
    count = rng.randint(1, 3)
    dims = []
    budget = ORACLE_ATOMS
    for name in ("a", "b", "c")[:count]:
        size = rng.randint(1, max(1, min(22, budget)))
        budget //= max(1, size)
        dims.append((name, tuple(f"{name}{i}" for i in range(size))))
    return dims


def _random_predicate(rng: random.Random, dims, depth: int = 2) -> ast.Predicate:
    if depth == 0 or rng.random() < 0.4:
        name, labels = rng.choice(dims)
        roll = rng.random()
        if roll < 0.05:
            return ast.TrueLiteral()
        if roll < 0.10:
            return ast.FalseLiteral()
        if roll < 0.45:
            return ast.LabelIs(name, rng.choice(labels))
        k = rng.randint(1, len(labels))
        return ast.LabelIn(name, tuple(rng.sample(list(labels), k)))
    roll = rng.random()
    if roll < 0.25:
        return ast.NotPred(_random_predicate(rng, dims, depth - 1))
    left = _random_predicate(rng, dims, depth - 1)
    right = _random_predicate(rng, dims, depth - 1)
    return (ast.AndPred if roll < 0.65 else ast.OrPred)((left, right))


_Bounds = Mapping[str, Mapping[str, tuple[Fraction, Fraction]]]


def oracle_predicate(
    pred: ast.Predicate, bounds: _Bounds | None = None
) -> oracle.Predicate:
    """Compile a predicate tree to a plain callable over label assignments,
    for feeding the enumeration oracle.  Separate from the engine's
    set-based lowering on purpose."""
    if isinstance(pred, ast.TrueLiteral):
        return lambda atom: True
    if isinstance(pred, ast.FalseLiteral):
        return lambda atom: False
    if isinstance(pred, ast.NotPred):
        inner = oracle_predicate(pred.operand, bounds)
        return lambda atom: not inner(atom)
    if isinstance(pred, (ast.AndPred, ast.OrPred)):
        # One closure per chain: nested two-part closures recurse per term.
        parts = [oracle_predicate(p, bounds) for p in pred.operands]
        either = isinstance(pred, ast.OrPred)
        if len(parts) == 2:  # as in every random predicate: no loop needed
            first, second = parts
            if either:
                return lambda atom: first(atom) or second(atom)
            return lambda atom: first(atom) and second(atom)
        if either:
            return lambda atom: any(part(atom) for part in parts)
        return lambda atom: all(part(atom) for part in parts)
    if isinstance(pred, ast.LabelIs):
        name, label = pred.dimension, pred.label
        return lambda atom: atom[name] == label
    if isinstance(pred, ast.LabelIn):
        name, labels = pred.dimension, frozenset(pred.labels)
        return lambda atom: atom[name] in labels
    if isinstance(pred, ast.Comparison):
        if bounds is None or pred.dimension not in bounds:
            raise ValueError(f"no interval bounds for {pred.dimension!r}")
        name, threshold, below = pred.dimension, pred.value, pred.op in ("<", "<=")
        # Each tranche's verdict, decided once; None marks a split tranche.
        verdicts = {label: below if hi <= threshold else None if lo < threshold else not below
                    for label, (lo, hi) in bounds[name].items()}

        def compare(atom):
            if (verdict := verdicts[atom[name]]) is None:
                raise ValueError("threshold splits a tranche")
            return verdict

        return compare
    raise TypeError(f"not a predicate node: {pred!r}")


def _oracle_dimensions(model: ast.Model):
    """Enumeration-side view of a model: label lists plus interval bounds,
    derived from the declarations without touching the compiler.  The atom
    count is checked against ``ORACLE_ATOMS`` before anything is
    built."""
    sizes = [
        len(decl.labels) if isinstance(decl, ast.DimensionDecl) else decl.tranches
        for decl in model.declarations
    ]
    if None in sizes:
        raise ValueError("aleph-tranche continuum cannot be enumerated")
    if math.prod(sizes) > ORACLE_ATOMS:
        raise ValueError(f"more than {ORACLE_ATOMS} atoms to enumerate")
    dims = []
    bounds: dict[str, dict[str, tuple[Fraction, Fraction]]] = {}
    for decl in model.declarations:
        if isinstance(decl, ast.DimensionDecl):
            dims.append((decl.name, tuple(decl.labels)))
        else:
            width = (decl.high - decl.low) / decl.tranches
            bounds[decl.name] = {
                str(i): (decl.low + width * i, decl.low + width * (i + 1))
                for i in range(decl.tranches)
            }
            dims.append((decl.name, tuple(bounds[decl.name])))
    return dims, bounds


def _oracle_conditional(dims, pred, given, bounds: _Bounds | None = None):
    return _defined(
        lambda: oracle.conditional_probability(
            dims, oracle_predicate(pred, bounds), oracle_predicate(given, bounds)
        ),
        ZeroDivisionError,  # where ``given`` holds nowhere
    )


def _odds_form(p: Fraction) -> Odds:
    """The odds ``p / (1 - p)`` of a probability."""
    return Odds(None) if p == 1 else Odds(p / (1 - p))


def oracle_equivalence_suite(
    rng: random.Random,
    instances: int = 1000,
    models: Sequence[tuple[str, ast.Model]] | None = None,
) -> SuiteResult:
    """Engine probabilities equal brute-force enumeration exactly, on
    randomized spaces/predicates and on every bundled model."""
    models = builtin_models() if models is None else models
    failures = []
    cases = 0

    for case in range(instances):
        dims = _random_dimensions(rng)
        pred = _random_predicate(rng, dims)
        space = build_finite_space(dims)
        target = lower_predicate(space, pred)
        engine = probability(target)
        counted = oracle.probability(dims, oracle_predicate(pred))
        cases += 1
        if engine != counted:
            failures.append(
                f"case {case}: engine {engine} != oracle {counted} "
                f"for {ast.render_predicate(pred)} over {[d[0] for d in dims]}"
            )
        if rng.random() < 0.5:
            given = _random_predicate(rng, dims)
            cases += 1
            reference = lower_predicate(space, given)
            engine = _defined(lambda: conditional_probability(target, reference))
            counted = _oracle_conditional(dims, pred, given)
            if engine != counted:
                failures.append(
                    f"case {case}: conditional engine {engine} != oracle {counted}"
                )

    skipped_models = []
    for name, model in models:
        try:
            dims, bounds = _oracle_dimensions(model)
            compiled = compile_model(model, scaled=False)
        except (ValueError, ModelError):
            skipped_models.append(name)
            continue

        def chance(pred):
            return oracle.probability(dims, oracle_predicate(pred, bounds))

        blocks = {part.name: part.blocks for part in model.partitions}
        # The oracle's answer to each query kind it can check, a value the
        # engine's answer equals exactly when the two agree.
        expected = {
            "P": lambda q: chance(q.predicate),
            "P_cond": lambda q: _oracle_conditional(dims, q.predicate, q.given, bounds),
            "O": lambda q: _odds_form(chance(q.predicate)),
            "table": lambda q: [
                (block.name, chance(block.predicate)) for block in blocks[q.partition]
            ],
        }
        for query, prepared in zip(model.queries, compiled.queries):
            if query.kind not in expected:
                continue
            engine = _defined(prepared.evaluate)
            counted = expected[query.kind](query)
            cases += len(counted) if query.kind == "table" else 1
            if engine != counted:
                failures.append(
                    f"{name}: {prepared.text}: engine {_text(engine)} != oracle {_text(counted)}"
                )
    notes = f"skipped models: {', '.join(skipped_models)}" if skipped_models else ""
    return SuiteResult("oracle equivalence", cases, failures, notes)


# -- hyperrational laws ----------------------------------------------------------


def substitution_bound(*values: Hyperrational) -> int:
    """An integer beyond every root of every polynomial inside ``values``:
    one plus the largest coefficient-magnitude sum.  Substituting anything
    at or above it preserves signs and hence comparisons."""
    polys = (p for v in values for p in (v.numerator_coefficients, v.denominator_coefficients))
    return 1 + max((sum(map(abs, poly)) for poly in polys), default=1)


def hyperrational_laws_suite(rng: random.Random, cases: int = 10000) -> SuiteResult:
    """Field laws, order laws, and agreement with large-integer
    substitution, on random triples."""
    failures = []
    zero = Hyperrational(0)
    one = Hyperrational(1)
    for case in range(cases):
        a = random_hyperrational(rng)
        b = random_hyperrational(rng)
        c = random_hyperrational(rng)

        def complain(law: str):
            failures.append(f"case {case}: {law} with a={a}, b={b}, c={c}")

        total, diff, prod = a + b, a - b, a * b
        quot = a / b if b else None
        if total != b + a:
            complain("a+b == b+a")
        if total + c != a + (b + c):
            complain("(a+b)+c == a+(b+c)")
        if prod != b * a:
            complain("a*b == b*a")
        if prod * c != a * (b * c):
            complain("(a*b)*c == a*(b*c)")
        if a * (b + c) != prod + a * c:
            complain("a*(b+c) == a*b+a*c")
        if a + zero != a or a * one != a or a - a != zero:
            complain("identity/inverse")
        if b and (b * quot != a or b * (one / b) != one):
            complain("division inverts multiplication")

        less, equal, greater = a < b, a == b, a > b
        if sum((less, equal, greater)) != 1:
            complain("exactly one of <, ==, >")
        if less and not (a + c < b + c):
            complain("order respects addition")
        if less and c > zero and not (a * c < b * c):
            complain("order respects positive scaling")
        if a < b and b < c and not (a < c):
            complain("transitivity")

        n = substitution_bound(a, b, total, diff, prod, *([quot] if b else []))
        sa, sb = a.substitute(n), b.substitute(n)
        if total.substitute(n) != sa + sb:
            complain("substitution commutes with +")
        if diff.substitute(n) != sa - sb:
            complain("substitution commutes with -")
        if prod.substitute(n) != sa * sb:
            complain("substitution commutes with *")
        if b and (not sb or quot.substitute(n) != sa / sb):
            complain("substitution commutes with /")
        sd = diff.substitute(n)
        if less != (sd < 0) or equal != (sd == 0) or greater != (sd > 0):
            complain("comparison agrees with substitution")
    return SuiteResult("hyperrational field/order laws", cases, failures)


# -- aggregation ----------------------------------------------------------------


def builtin_models() -> list[tuple[str, ast.Model]]:
    """Parse every bundled fixture model."""
    return [
        (name, parse_model(fixtures.source(name), filename=name))
        for name in fixtures.names()
    ]


def run_all(
    seed: int = DEFAULT_SEED,
    instances: int | None = None,
    extra_models: Iterable[tuple[str, ast.Model]] = (),
) -> list[SuiteResult]:
    """Run every suite with per-suite RNGs derived from ``seed``.

    ``instances`` overrides each randomized suite's own default count (0
    means an empty run, and a negative count raises ``ValueError`` before
    any suite runs); instance-limited runs also shrink the exhaustive
    product-rule pass from 12 atoms to 8.
    """
    if instances is not None and instances < 0:
        raise ValueError(f"instances must be non-negative, not {instances}")
    if instances == 0:
        return []
    n = () if instances is None else (instances,)
    exhaustive_atoms = 12 if instances is None else 8
    models = builtin_models() + list(extra_models)
    return [
        hyperrational_laws_suite(random.Random(seed + 1), *n),
        sum_rule_suite(random.Random(seed + 2), *n),
        additivity_suite(random.Random(seed + 3), *n),
        product_rule_exhaustive_suite(exhaustive_atoms),
        product_rule_random_suite(random.Random(seed + 4), *n),
        odds_reciprocity_suite(random.Random(seed + 5), *n),
        monotonicity_suite(random.Random(seed + 6), *n),
        scale_invariance_suite(models),
        oracle_equivalence_suite(random.Random(seed + 7), *n, models=models),
    ]
