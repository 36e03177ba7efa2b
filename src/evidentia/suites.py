"""Verification suites: randomized, exhaustive and differential checks
that the measures obey their own rules.

Every suite is deterministic given a seed and reports exact
counterexamples.  Expected values come from routes independent of the code
under test: direct enumeration through :mod:`evidentia.oracle`,
substitution of large integers for ``aleph``, or plain Python counting.

The exhaustive product-rule pass walks *all* proposition pairs of a space.
Evidence is uniform, so the rule's arithmetic depends only on the pair's
count signature ``(|A and B|, |B|)``; past 6 atoms the pass enumerates
every pair with bit counting and runs the full engine check once per
distinct signature, which keeps 12-atom spaces (16.7M pairs) inside the
time budget without skipping any pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import fixtures, oracle
from .dsl import ast
from .dsl.compiler import compile_model, lower_predicate
from .dsl.diagnostics import ModelError
from .dsl.parser import parse_model
from .evidence import (
    check_product_rule,
    check_sum_rule,
    conditional_probability,
    evidence,
    odds,
    probability,
)
from .hyperrational import ALEPH, Hyperrational
from .spaces import PossibilitySpace, Proposition, build_finite_space, build_scaled_space

#: Default seed for every randomized suite; override with --seed or the
#: EVIDENTIA_SEED environment variable.  Recorded in check output so runs
#: can be reproduced.
DEFAULT_SEED = 271828


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)
    notes: str = ""

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


def _random_single_dim_space(rng: random.Random, max_cells: int = 60) -> PossibilitySpace:
    n = rng.randint(1, max_cells)
    labels = tuple(f"u{i}" for i in range(n))
    if rng.random() < 0.4:
        return build_scaled_space(labels, name="u")
    return build_finite_space([("u", labels)])


def _random_members(rng: random.Random, size: int) -> int:
    # One draw per cell, in cell order: recorded seeds depend on this stream.
    return sum(rng.getrandbits(1) << i for i in range(size))


def random_hyperrational(
    rng: random.Random, max_degree: int = 2, max_coeff: int = 9
) -> Hyperrational:
    """A random field element, built through the public operations only."""

    def poly(force_nonzero: bool) -> Hyperrational:
        coeffs = [
            rng.randint(-max_coeff, max_coeff)
            for _ in range(rng.randint(0, max_degree) + 1)
        ]
        if force_nonzero and not any(coeffs):
            coeffs[-1] = rng.randint(1, max_coeff)
        total = Hyperrational(0)
        for i, c in enumerate(coeffs):
            total = total + Hyperrational(c) * ALEPH**i
        return total

    return poly(False) / poly(True)


# -- measure-law suites --------------------------------------------------------


def sum_rule_suite(rng: random.Random, cases: int = 200) -> SuiteResult:
    """E(T) = E(A) + E(not A) and P(A) + P(not A) = 1 on random subsets of
    random finite and scaled spaces."""
    failures = []
    for case in range(cases):
        space = _random_single_dim_space(rng)
        prop = Proposition(space, _random_members(rng, space.size))
        report = check_sum_rule(prop)
        if not report.passed:
            failures.append(f"case {case}: {report.detail}")
    return SuiteResult("sum rule", cases, failures)


def additivity_suite(rng: random.Random, families: int = 1000) -> SuiteResult:
    """E of a disjoint union equals the sum of the parts, and both equal
    unit-cardinality times an independent Python count."""
    failures = []
    for case in range(families):
        space = _random_single_dim_space(rng)
        ids = list(range(space.size))
        rng.shuffle(ids)
        chosen = ids[: rng.randint(0, space.size)]
        parts: list[set[int]] = [set() for _ in range(rng.randint(1, 5))]
        for cell in chosen:
            parts[rng.randrange(len(parts))].add(cell)
        props = [space.proposition(p) for p in parts]
        union = space.proposition(chosen)
        total = Hyperrational(0)
        for prop in props:
            total = total + evidence(prop)
        expected = space.unit_cardinality * len(chosen)
        if not (evidence(union) == total == expected):
            failures.append(
                f"case {case}: E(union) = {evidence(union)}, sum of parts = {total}, "
                f"count * unit = {expected}"
            )
    return SuiteResult("additivity", families, failures)


def product_rule_exhaustive_suite(max_atoms: int = 12) -> SuiteResult:
    """P(A|B) = P(AB)/P(B) over all proposition pairs of spaces with 1 up
    to ``max_atoms`` atoms."""
    failures = []
    cases = 0
    for n in range(1, max_atoms + 1):
        space = build_finite_space([("u", tuple(f"u{i}" for i in range(n)))])
        masks = 1 << n
        cases += masks * masks
        subsets = [Proposition(space, m) for m in range(masks)]
        if n <= 6:
            for a in range(masks):
                for b in range(masks):
                    report = check_product_rule(subsets[a], subsets[b])
                    if not report.passed:
                        failures.append(f"n={n} A={a:#x} B={b:#x}: {report.detail}")
        else:
            bits = [m.bit_count() for m in range(masks)]
            seen = bytearray((n + 1) * (n + 1))
            width = n + 1
            for a in range(masks):
                for b in range(masks):
                    sig = bits[a & b] * width + bits[b]
                    if not seen[sig]:
                        seen[sig] = 1
                        report = check_product_rule(subsets[a], subsets[b])
                        if not report.passed:
                            failures.append(
                                f"n={n} A={a:#x} B={b:#x}: {report.detail}"
                            )
    return SuiteResult("product rule (exhaustive pairs)", cases, failures)


def product_rule_random_suite(rng: random.Random, instances: int = 1000) -> SuiteResult:
    """The product rule on random pairs over larger spaces (13..400 cells,
    finite and scaled)."""
    failures = []
    skipped = 0
    for case in range(instances):
        n = rng.randint(13, 400)
        labels = tuple(f"u{i}" for i in range(n))
        if rng.random() < 0.3:
            space = build_scaled_space(labels, name="u")
        else:
            space = build_finite_space([("u", labels)])
        a = Proposition(space, _random_members(rng, n))
        b = Proposition(space, _random_members(rng, n))
        report = check_product_rule(a, b)
        if report.skipped:
            skipped += 1
        elif not report.passed:
            failures.append(f"case {case} (n={n}): {report.detail}")
    notes = f"{skipped} skipped with E(B) = 0" if skipped else ""
    return SuiteResult("product rule (random)", instances, failures, notes)


def odds_reciprocity_suite(rng: random.Random, cases: int = 500) -> SuiteResult:
    """O(A) * O(not A) = 1 whenever both are defined; the distinguished
    zero/infinite values pair up otherwise."""
    failures = []
    for case in range(cases):
        space = _random_single_dim_space(rng)
        prop = Proposition(space, _random_members(rng, space.size))
        forward = odds(prop)
        backward = odds(~prop)
        if forward.is_infinite:
            ok = backward.is_zero
        elif backward.is_infinite:
            ok = forward.is_zero
        else:
            ok = forward.ratio * backward.ratio == Hyperrational(1)
        if not ok:
            failures.append(f"case {case}: O(A) = {forward}, O(not A) = {backward}")
    return SuiteResult("odds reciprocity", cases, failures)


def monotonicity_suite(rng: random.Random, cases: int = 1000) -> SuiteResult:
    """E(A and B) <= E(A), with equality exactly when conjoining B drops
    nothing from A."""
    failures = []
    for case in range(cases):
        space = _random_single_dim_space(rng)
        a = Proposition(space, _random_members(rng, space.size))
        b = Proposition(space, _random_members(rng, space.size))
        meet = a & b
        lhs = evidence(meet)
        rhs = evidence(a)
        ok = lhs <= rhs and (lhs == rhs) == (meet == a)
        if not ok:
            failures.append(f"case {case}: E(A and B) = {lhs}, E(A) = {rhs}")
    return SuiteResult("monotonicity of conjunction", cases, failures)


# -- scale invariance ----------------------------------------------------------

_SCALE_DEPENDENT_KINDS = ("E", "atomic")  # absolute evidence keeps the scale


def _comparable_result(kind: str, runner: Callable[[], object]):
    try:
        result = runner()
    except ZeroDivisionError as exc:
        return ("error", str(exc))
    if kind in ("P", "P_cond"):
        return result.as_fraction()
    if kind == "O":
        if result.is_infinite:
            return ("infinite-odds",)
        return result.ratio.as_fraction()
    if kind == "L":
        return (result.odds.as_fraction(), result.approx)
    if kind == "table":
        return tuple((name, value.as_fraction()) for name, value in result)
    raise ValueError(f"no comparable form for query kind {kind!r}")


def scale_invariance_suite(
    models: Sequence[tuple[str, ast.Model]] | None = None
) -> SuiteResult:
    """Every ratio query answers identically on the finite and the scaled
    compile of the same model.  Absolute-evidence and atomic queries are
    scale-dependent by design and sit out."""
    if models is None:
        models = builtin_models()
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
            value_f = _comparable_result(query_f.kind, query_f.evaluate)
            value_s = _comparable_result(query_s.kind, query_s.evaluate)
            if value_f != value_s:
                failures.append(
                    f"{name}: {query_f.text}: finite {value_f} != scaled {value_s}"
                )
    notes = f"skipped models: {', '.join(skipped_models)}" if skipped_models else ""
    return SuiteResult("scale invariance", cases, failures, notes)


# -- oracle equivalence ----------------------------------------------------------


def _random_dimensions(
    rng: random.Random, max_atoms: int = 10**4
) -> list[tuple[str, tuple[str, ...]]]:
    if rng.random() < 0.1:
        n = rng.randint(1000, max_atoms)
        return [("a", tuple(f"a{i}" for i in range(n)))]
    count = rng.randint(1, 3)
    dims = []
    budget = max_atoms
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
    if roll < 0.65:
        return ast.AndPred(left, right)
    return ast.OrPred(left, right)


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
    if isinstance(pred, ast.AndPred):
        left = oracle_predicate(pred.left, bounds)
        right = oracle_predicate(pred.right, bounds)
        return lambda atom: left(atom) and right(atom)
    if isinstance(pred, ast.OrPred):
        left = oracle_predicate(pred.left, bounds)
        right = oracle_predicate(pred.right, bounds)
        return lambda atom: left(atom) or right(atom)
    if isinstance(pred, ast.LabelIs):
        name, label = pred.dimension, pred.label
        return lambda atom: atom[name] == label
    if isinstance(pred, ast.LabelIn):
        name, labels = pred.dimension, frozenset(pred.labels)
        return lambda atom: atom[name] in labels
    if isinstance(pred, ast.Comparison):
        if bounds is None or pred.dimension not in bounds:
            raise ValueError(f"no interval bounds for {pred.dimension!r}")
        table = bounds[pred.dimension]
        below = pred.op in ("<", "<=")
        threshold = pred.value

        def compare(atom):
            lo, hi = table[atom[pred.dimension]]
            if below:
                if hi <= threshold:
                    return True
                if lo >= threshold:
                    return False
            else:
                if lo >= threshold:
                    return True
                if hi <= threshold:
                    return False
            raise ValueError("threshold splits a tranche")

        return compare
    raise TypeError(f"not a predicate node: {pred!r}")


def _oracle_dimensions(model: ast.Model):
    """Enumeration-side view of a model: label lists plus interval bounds,
    derived from the declarations without touching the compiler."""
    dims = []
    bounds: dict[str, dict[str, tuple[Fraction, Fraction]]] = {}
    for decl in model.declarations:
        if isinstance(decl, ast.DimensionDecl):
            dims.append((decl.name, tuple(decl.labels)))
        else:
            if decl.tranches is None:
                raise ValueError("aleph-tranche continuum cannot be enumerated")
            width = (decl.high - decl.low) / decl.tranches
            labels = tuple(str(i) for i in range(decl.tranches))
            bounds[decl.name] = {
                str(i): (decl.low + width * i, decl.low + width * (i + 1))
                for i in range(decl.tranches)
            }
            dims.append((decl.name, labels))
    return dims, bounds


def oracle_equivalence_suite(
    rng: random.Random,
    instances: int = 1000,
    models: Sequence[tuple[str, ast.Model]] | None = None,
) -> SuiteResult:
    """Engine probabilities equal brute-force enumeration exactly, on
    randomized spaces/predicates and on every bundled model."""
    if models is None:
        models = builtin_models()
    failures = []
    cases = 0

    for case in range(instances):
        dims = _random_dimensions(rng)
        pred = _random_predicate(rng, dims)
        space = build_finite_space(dims)
        engine = probability(lower_predicate(space, pred)).as_fraction()
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
            try:
                engine_c = conditional_probability(
                    lower_predicate(space, pred), lower_predicate(space, given)
                ).as_fraction()
            except ZeroDivisionError:
                engine_c = None
            try:
                counted_c = oracle.conditional_probability(
                    dims, oracle_predicate(pred), oracle_predicate(given)
                )
            except ZeroDivisionError:
                counted_c = None
            if engine_c != counted_c:
                failures.append(
                    f"case {case}: conditional engine {engine_c} != oracle {counted_c}"
                )

    for name, model in models:
        try:
            dims, bounds = _oracle_dimensions(model)
            compiled = compile_model(model, scaled=False)
        except (ValueError, ModelError):
            continue
        for query, prepared in zip(model.queries, compiled.queries):
            if query.kind == "P":
                engine = prepared.evaluate().as_fraction()
                counted = oracle.probability(
                    dims, oracle_predicate(query.predicate, bounds)
                )
                cases += 1
                if engine != counted:
                    failures.append(
                        f"{name}: {prepared.text}: engine {engine} != oracle {counted}"
                    )
            elif query.kind == "P_cond":
                cases += 1
                try:
                    engine = prepared.evaluate().as_fraction()
                except ZeroDivisionError:
                    engine = None
                try:
                    counted = oracle.conditional_probability(
                        dims,
                        oracle_predicate(query.predicate, bounds),
                        oracle_predicate(query.given, bounds),
                    )
                except ZeroDivisionError:
                    counted = None
                if engine != counted:
                    failures.append(
                        f"{name}: {prepared.text}: engine {engine} != oracle {counted}"
                    )
            elif query.kind == "O":
                cases += 1
                result = prepared.evaluate()
                p = oracle.probability(dims, oracle_predicate(query.predicate, bounds))
                if p == 1:
                    ok = result.is_infinite
                else:
                    ok = not result.is_infinite and result.ratio.as_fraction() == p / (1 - p)
                if not ok:
                    failures.append(
                        f"{name}: {prepared.text}: engine {result} vs oracle p = {p}"
                    )
            elif query.kind == "table":
                partition_decl = next(
                    part for part in model.partitions if part.name == query.partition
                )
                engine_rows = prepared.evaluate()
                for (row_name, row_value), block in zip(engine_rows, partition_decl.blocks):
                    cases += 1
                    counted = oracle.probability(
                        dims, oracle_predicate(block.predicate, bounds)
                    )
                    if row_value.as_fraction() != counted:
                        failures.append(
                            f"{name}: table({query.partition}).{row_name}: "
                            f"engine {row_value} != oracle {counted}"
                        )
    return SuiteResult("oracle equivalence", cases, failures)


# -- hyperrational laws ----------------------------------------------------------


def substitution_bound(*values: Hyperrational) -> int:
    """An integer beyond every root of every polynomial inside ``values``:
    one plus the largest coefficient-magnitude sum.  Substituting anything
    at or above it preserves signs and hence comparisons."""
    worst = 1
    for value in values:
        for poly in (value.numerator_coefficients, value.denominator_coefficients):
            total = sum(abs(c) for c in poly)
            worst = max(worst, total)
    return worst + 1


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

        if a + b != b + a:
            complain("a+b == b+a")
        if (a + b) + c != a + (b + c):
            complain("(a+b)+c == a+(b+c)")
        if a * b != b * a:
            complain("a*b == b*a")
        if (a * b) * c != a * (b * c):
            complain("(a*b)*c == a*(b*c)")
        if a * (b + c) != a * b + a * c:
            complain("a*(b+c) == a*b+a*c")
        if a + zero != a or a * one != a or a - a != zero:
            complain("identity/inverse")
        if b and (b * (a / b) != a or b * (one / b) != one):
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

        diff = a - b
        results = [a + b, diff, a * b] + ([a / b] if b else [])
        n = substitution_bound(a, b, *results)
        sa, sb = a.substitute(n), b.substitute(n)
        if (a + b).substitute(n) != sa + sb:
            complain("substitution commutes with +")
        if diff.substitute(n) != sa - sb:
            complain("substitution commutes with -")
        if (a * b).substitute(n) != sa * sb:
            complain("substitution commutes with *")
        if b and (a / b).substitute(n) != sa / sb:
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


_DEFAULT_COUNTS = {
    "laws": 10000,
    "sum": 200,
    "additivity": 1000,
    "product_random": 1000,
    "odds": 500,
    "monotonicity": 1000,
    "oracle": 1000,
}


def run_all(
    seed: int = DEFAULT_SEED,
    instances: int | None = None,
    extra_models: Iterable[tuple[str, ast.Model]] = (),
    exhaustive_atoms: int | None = None,
) -> list[SuiteResult]:
    """Run every suite with per-suite RNGs derived from ``seed``.

    ``instances`` overrides the randomized case counts uniformly (0 means
    an empty run); instance-limited runs also shrink the exhaustive
    product-rule pass to 8 atoms unless ``exhaustive_atoms`` says
    otherwise.
    """
    if instances == 0:
        return []
    counts = {
        key: (instances if instances is not None else default)
        for key, default in _DEFAULT_COUNTS.items()
    }
    if exhaustive_atoms is None:
        exhaustive_atoms = 12 if instances is None else 8
    models = builtin_models() + list(extra_models)
    return [
        hyperrational_laws_suite(random.Random(seed + 1), counts["laws"]),
        sum_rule_suite(random.Random(seed + 2), counts["sum"]),
        additivity_suite(random.Random(seed + 3), counts["additivity"]),
        product_rule_exhaustive_suite(exhaustive_atoms),
        product_rule_random_suite(random.Random(seed + 4), counts["product_random"]),
        odds_reciprocity_suite(random.Random(seed + 5), counts["odds"]),
        monotonicity_suite(random.Random(seed + 6), counts["monotonicity"]),
        scale_invariance_suite(models),
        oracle_equivalence_suite(random.Random(seed + 7), counts["oracle"], models),
    ]
