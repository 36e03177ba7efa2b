"""Tests for lowering models to spaces and executable queries."""

import dataclasses
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evidentia import ALEPH, Hyperrational, fixtures, oracle
from evidentia.dsl import ModelError, compile_model, lower_predicate, parse_model
from evidentia.dsl import ast
from evidentia.dsl.diagnostics import SourceSpan
from evidentia.evidence import log_odds
from evidentia.suites import _oracle_dimensions, oracle_predicate


def compiled(source, scaled=False, **kwargs):
    return compile_model(parse_model(source), scaled=scaled, **kwargs)


def results_of(model, scaled=False):
    out = {}
    for query in compile_model(model, scaled=scaled).queries:
        out[query.text] = query.evaluate()
    return out


# -- fixture models -----------------------------------------------------------------


def test_coin_scaled_headline_numbers():
    model = parse_model(fixtures.source("coin"), "coin")
    values = results_of(model, scaled=True)
    assert values["E(face == H)"] == ALEPH / 2
    assert values["E(true)"] == ALEPH
    assert values["P(face == H)"] == Hyperrational(1, 2)
    assert values["atomic"] == 1 / ALEPH


def test_coin_finite_headline_numbers():
    model = parse_model(fixtures.source("coin"), "coin")
    values = results_of(model, scaled=False)
    assert values["E(true)"] == Hyperrational(2)
    assert values["P(face == H)"] == Hyperrational(1, 2)
    assert values["atomic"] == Hyperrational(1, 2)


def test_deck_finite():
    model = parse_model(fixtures.source("deck"), "deck")
    compiled_model = compile_model(model)
    assert compiled_model.space.size == 52
    values = results_of(model)
    assert values["P(rank == A)"] == Hyperrational(1, 13)
    assert values["P(rank == A | rank in {A, J, Q, K})"] == Hyperrational(1, 4)
    assert values["table(groups)"] == [
        ("aces", Hyperrational(1, 13)),
        ("face", Hyperrational(3, 13)),
        ("numbered", Hyperrational(9, 13)),
    ]


def test_quadrant_median():
    model = parse_model(fixtures.source("quadrant"), "quadrant")
    for scaled in (False, True):
        values = results_of(model, scaled=scaled)
        assert values["P(theta < 45)"] == Hyperrational(1, 2)
        assert values["P(theta > 45)"] == Hyperrational(1, 2)


def test_provenance_tags():
    model = parse_model(fixtures.source("coin"), "coin")
    tags = {q.text: q.provenance for q in compile_model(model).queries}
    assert tags["P(face == H)"] == "Theorem 4"
    assert tags["E(face == H)"] == "Axiom 3"
    assert tags["O(face == H)"] == "Theorem 3"
    assert tags["atomic"] == "Axiom 4"
    deck = parse_model(fixtures.source("deck"), "deck")
    deck_tags = {q.text: q.provenance for q in compile_model(deck).queries}
    assert deck_tags["P(rank == A | rank in {A, J, Q, K})"] == "Theorem 5"


# -- continuum handling ------------------------------------------------------------


def test_tranche_labels_carry_bounds():
    # No comparison cuts the grid, so the 90 tranches are one cell; each
    # tranche keeps its label, computed from the grid.
    model = compiled('model "q" { continuum t from 0 to 90 tranches 90 }')
    dim = model.space.dimensions[0]
    assert dim.atom_label(44) == "[44,45)"
    assert dim.grid == (0, 1)


def test_fractional_tranche_labels():
    model = compiled('model "q" { continuum t from 0 to 1 tranches 2 }')
    dim = model.space.dimensions[0]
    assert [dim.atom_label(i) for i in range(dim.size)] == ["[0,1/2)", "[1/2,1)"]


def test_boundary_comparisons_resolve_exactly():
    source = (
        'model "q" { continuum t from 0 to 90 tranches 90 }\n'
        "query P(t <= 45)\nquery P(t >= 45)\nquery P(t < 500)\nquery P(t > 500)"
    )
    values = {q.text: q.evaluate() for q in compiled(source).queries}
    assert values["P(t <= 45)"] == Hyperrational(1, 2)
    assert values["P(t >= 45)"] == Hyperrational(1, 2)
    assert values["P(t < 500)"] == Hyperrational(1)
    assert values["P(t > 500)"] == Hyperrational(0)


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_interior_threshold_is_a_compile_error(op):
    source = f'model "q" {{ continuum t from 0 to 90 tranches 90 }}\nquery P(t {op} 44.5)'
    with pytest.raises(ModelError, match=r"splits tranche \[44,45\)"):
        compiled(source)


def test_over_limit_model_is_rejected_before_building_tranches():
    model = parse_model(
        'model "big" {\n'
        "  continuum x from 0 to 1 tranches 100000\n"
        "  continuum y from 0 to 1 tranches 100000\n"
        "}\n"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match="model spans 10000000000 atoms"):
            compile_model(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_hand_built_model_of_10_to_4300_atoms_is_refused_where_the_parser_would():
    # The parser refuses such a tree; a hand-built one reaches the compiler,
    # whose product stops at the declaration that reaches 10^4300.
    decls = tuple(
        ast.ContinuumDecl(
            f"c{i}", Fraction(0), Fraction(1), 10**1000, SourceSpan(i, i + 1, i + 1, 1)
        )
        for i in range(5)
    )
    with pytest.raises(ModelError) as err:
        compile_model(ast.Model("m", decls, (), (ast.Query("atomic"),)))
    [diagnostic] = err.value.diagnostics
    assert diagnostic.message == "model spans at least 10^4300 atoms; use coarser tranches"
    assert diagnostic.span == decls[4].span


_AT = SourceSpan(7, 19, 2, 3)  # the faulty declaration's span


@pytest.mark.parametrize(
    "decl, message",
    [
        (ast.ContinuumDecl("x", 0, 1, 0, _AT), "'x' needs at least one tranche, not 0"),
        (ast.ContinuumDecl("x", 0, 1, -2, _AT), "'x' needs at least one tranche, not -2"),
        (ast.ContinuumDecl("x", 1, 1, 4, _AT), "continuum 'x' needs low below high (1 >= 1)"),
        (ast.DimensionDecl("x", (), _AT), "dimension 'x' has no labels"),
        (ast.DimensionDecl("x", ("a", "b", "a"), _AT), "dimension 'x' repeats label(s): a"),
        (ast.DimensionDecl("d", ("c",), _AT), "duplicate dimension name 'd'"),
        (ast.ContinuumDecl("x", 0, 1, 2.5, _AT), "'x' needs a whole number of tranches, not 2.5"),
        (ast.ContinuumDecl("x", 0.0, 1, 4, _AT),
         "'x' needs exact numbers, not 0.0; use integers or Fraction"),
        (ast.ContinuumDecl("x", 0, 1, True, _AT), "'x' needs a whole number of tranches, not True"),
        (ast.ContinuumDecl("x", 0, 1, "3", _AT), "'x' needs a whole number of tranches, not '3'"),
        (ast.ContinuumDecl("x", False, True, 4, _AT),
         "'x' needs exact numbers, not False; use integers or Fraction"),
        (ast.DimensionDecl("x", "ab", _AT), "dimension 'x' needs a tuple of labels, not 'ab'"),
        (ast.DimensionDecl("x", 5, _AT), "dimension 'x' needs a tuple of labels, not 5"),
    ],
    ids=["no tranches", "negative tranches", "low not below high", "no labels",
         "repeated label", "repeated name", "fractional tranches", "float end",
         "bool tranches", "str tranches", "bool ends", "str labels", "unsized labels"],
)
def test_a_hand_built_declaration_the_space_refuses_is_a_diagnostic_at_its_span(decl, message):
    # The parser refuses each of these in its own words; a hand-built tree
    # reaches the compiler, where the space's refusal lands on the
    # declaration.  None of them compiles to a space of its own.
    first = ast.DimensionDecl("d", ("a", "b"), SourceSpan(0, 5, 1, 1))
    for scaled in (False, True):
        with pytest.raises(ModelError) as err:
            compile_model(ast.Model("m", (first, decl), (), (ast.Query("atomic"),)), scaled)
        [diagnostic] = err.value.diagnostics
        assert (diagnostic.message, diagnostic.span) == (message, _AT)


def test_continua_of_negative_tranches_get_the_tranche_refusal_not_the_atom_limit():
    # Two negative counts multiply to 10^10; the space refuses the first.
    decls = tuple(
        ast.ContinuumDecl(name, 0, 1, -100000, SourceSpan(k, k + 1, 1, k + 1))
        for k, name in enumerate("xy")
    )
    for count in (1, 2):
        with pytest.raises(ModelError) as err:
            compile_model(ast.Model("m", decls[:count], (), (ast.Query("atomic"),)))
        [diagnostic] = err.value.diagnostics
        message = "'x' needs at least one tranche, not -100000"
        assert (diagnostic.message, diagnostic.span) == (message, decls[0].span)


def test_aleph_tranches_require_scaled():
    source = 'model "q" { continuum t from 0 to 90 tranches aleph }'
    with pytest.raises(ModelError, match="needs a scaled space"):
        compiled(source, scaled=False)
    model = compiled(source + "\nquery atomic\nquery P(true)", scaled=True)
    values = {q.text: q.evaluate() for q in model.queries}
    assert values["atomic"] == 1 / ALEPH
    assert values["P(true)"] == Hyperrational(1)
    assert model.space.size == 1


def test_aleph_tranches_cannot_be_cut():
    source = 'model "q" { continuum t from 0 to 90 tranches aleph }\nquery P(t < 45)'
    with pytest.raises(ModelError, match="splits tranche"):
        compiled(source, scaled=True)


def test_continuum_comparisons_match_the_oracle():
    # Random grids and thresholds, each comparison compiled into a model and
    # enumerated by the oracle.  The model asks for table(p) of a partition
    # into the comparison and its negation: a query's own text could not
    # render thresholds such as 57/14, which have no decimal form.  An
    # aleph-tranche continuum is one cell, so the oracle enumerates it as
    # one tranche.
    rng = random.Random(4)
    answered = split = 0
    for _ in range(400):
        low = Fraction(rng.randint(0, 20), rng.choice([1, 2, 3]))
        high = low + Fraction(rng.randint(1, 20), rng.choice([1, 2, 3, 7]))
        tranches = rng.choice([None, 1, 2, 3, 5, 8, 13])
        scaled = tranches is None or rng.random() < 0.5
        continuum = ast.ContinuumDecl("x", low, high, tranches)
        other = ast.DimensionDecl("d", ("a", "b", "c"))
        decls = (other, continuum) if rng.random() < 0.5 else (continuum, other)
        one = dataclasses.replace(continuum, tranches=tranches or 1)
        dims, bounds = _oracle_dimensions(
            ast.Model("m", tuple(one if d is continuum else d for d in decls), (), ())
        )
        width = (high - low) / (tranches or 1)
        on_grid = low + width * rng.randint(0, tranches or 1)
        off_grid = on_grid + width * Fraction(rng.randint(1, 9), 10)
        anywhere = Fraction(rng.randint(0, 300), 7)
        for t in (low - 1, low, high, high + 1, on_grid, off_grid, anywhere):
            for op in ("<", "<=", ">", ">="):
                pred = ast.Comparison("x", op, t)
                blocks = (ast.Block("yes", pred), ast.Block("no", ast.NotPred(pred)))
                partition = ast.PartitionDecl("p", blocks)
                table = ast.Query("table", partition="p")
                model = ast.Model("m", decls, (partition,), (table,))
                try:
                    expected = oracle.probability(dims, oracle_predicate(pred, bounds))
                except ValueError as exc:
                    assert str(exc) == "threshold splits a tranche"
                    lo, hi = next(b for b in bounds["x"].values() if b[0] < t < b[1])
                    label = re.escape(f"splits tranche [{lo},{hi}) of 'x'")
                    with pytest.raises(ModelError, match=label):
                        compile_model(model, scaled=scaled)
                    split += 1
                else:
                    query = compile_model(model, scaled=scaled).queries[0]
                    engine = query.evaluate()[0][1]
                    assert engine == Hyperrational(expected)
                    answered += 1
    assert answered > 5000 and split > 1000


# -- compile validation -----------------------------------------------------------


def test_empty_model_is_a_compile_error():
    with pytest.raises(ModelError, match="empty model"):
        compiled('model "x" {}')


def test_atom_limit():
    source = 'model "big" { continuum t from 0 to 1 tranches 2000 }'
    with pytest.raises(ModelError, match="coarser tranches"):
        compiled(source, atom_limit=1000)
    assert compiled(source, atom_limit=2000).space.size == 2000


def test_invalid_partition_is_a_compile_error():
    source = (
        'model "x" { dimension r = {A, B} '
        "partition p { one: r == A; two: r == A; } }"
    )
    with pytest.raises(ModelError, match="overlap"):
        compiled(source)


def test_partition_must_be_exhaustive():
    source = 'model "x" { dimension r = {A, B} partition p { one: r == A; } }'
    with pytest.raises(ModelError, match="does not cover"):
        compiled(source)


def test_conditioning_on_impossibility_surfaces_at_evaluation():
    source = 'model "x" { dimension r = {A, B} }\nquery P(r == A | false)'
    query = compiled(source).queries[0]
    raised = []
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="conditioning on impossibility") as info:
            query.evaluate()
        raised.append((str(info.value), len(info.traceback)))
    # The same refusal on every call, and no traceback that grows with them.
    (first, first_depth), (second, second_depth) = raised
    assert second == first
    assert second_depth <= first_depth


def test_a_table_answer_is_a_fresh_list_on_every_call():
    (table,) = [q for q in compiled(fixtures.source("deck")).queries if q.kind == "table"]
    rows = table.evaluate()
    expected = list(rows)
    rows[0] = ("changed", Hyperrational(0))
    rows.append(("extra", Hyperrational(1)))
    assert table.evaluate() == expected


@pytest.mark.parametrize("digits", [0, 6, 40])
def test_a_log_odds_query_answers_as_log_odds_of_its_proposition(digits):
    model = parse_model('model "x" { dimension r = {A, B, C} }\nquery L(r == A)')
    compiled_model = compile_model(model)
    prop = lower_predicate(compiled_model.space, model.queries[0].predicate)
    assert compiled_model.queries[0].evaluate(digits) == log_odds(prop, digits)


# -- determinism and agreement -------------------------------------------------------


def test_compile_is_deterministic():
    model = parse_model(fixtures.source("deck"), "deck")
    first = compile_model(model)
    second = compile_model(model)
    assert [a.labels for a in first.space.atoms()] == [
        a.labels for a in second.space.atoms()
    ]
    for qa, qb in zip(first.queries, second.queries):
        assert qa.text == qb.text
        assert qa.evaluate() == qb.evaluate()


@pytest.mark.parametrize("name", fixtures.names())
def test_ratio_queries_agree_between_finite_and_scaled(name):
    model = parse_model(fixtures.source(name), name)
    finite = compile_model(model, scaled=False)
    scaled = compile_model(model, scaled=True)
    for qf, qs in zip(finite.queries, scaled.queries):
        if qf.kind in ("E", "atomic"):
            continue
        rf, rs = qf.evaluate(), qs.evaluate()
        if qf.kind in ("P", "P_cond"):
            assert rf.as_fraction() == rs.as_fraction()
        elif qf.kind == "O":
            assert rf.is_infinite == rs.is_infinite
            if not rf.is_infinite:
                assert rf.ratio.as_fraction() == rs.ratio.as_fraction()
        elif qf.kind == "L":
            assert rf.approx == rs.approx
        elif qf.kind == "table":
            assert [(n, v.as_fraction()) for n, v in rf] == [
                (n, v.as_fraction()) for n, v in rs
            ]


def test_lower_predicate_standalone():
    model = parse_model(fixtures.source("deck"), "deck")
    space = compile_model(model).space
    prop = lower_predicate(space, ast.LabelIs("rank", "A"))
    assert prop.count == 4
    with pytest.raises(ModelError, match="unknown dimension"):
        lower_predicate(space, ast.LabelIs("ghost", "A"))


@pytest.mark.parametrize(
    "pred, missing",
    [
        (ast.LabelIs("rank", "Z"), "Z"),
        (ast.LabelIn("rank", ("A", "Z", "K")), "Z"),
        # The first unknown member in the query's order is the one named.
        (ast.LabelIn("rank", ("A", "Y", "K", "Z")), "Y"),
    ],
    ids=["is", "in", "in-first-missing"],
)
def test_unknown_label_is_a_span_tagged_model_error(pred, missing):
    space = compile_model(parse_model(fixtures.source("deck"), "deck")).space
    with pytest.raises(
        ModelError, match=f"unknown label '{missing}' for dimension 'rank'"
    ) as exc:
        lower_predicate(space, pred)
    assert [d.span for d in exc.value.diagnostics] == [pred.span]


# -- query texts ------------------------------------------------------------------

# Labels that print bare and labels that need quotes: spaces, punctuation,
# non-ASCII letters and digits, decimal-looking text and keywords.
_labels = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,2})?", fullmatch=True),
    st.sampled_from(["a b", "x,y", "{", "1.", ".5", "-1", "1e3", "٣", "é", "²", "true", "in", ""]),
    st.text(st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)), max_size=4),
)


@st.composite
def _labelled_queries(draw):
    """A model of two labelled dimensions, which may share labels, and
    queries over them that may name a label more than once."""
    first = draw(st.lists(_labels, min_size=1, max_size=5, unique=True))
    second = draw(
        st.lists(st.one_of(st.sampled_from(first), _labels), min_size=1, max_size=5, unique=True)
    )
    labels = {"d": first, "e": second}
    dims = st.sampled_from(sorted(labels))
    leaves = st.one_of(
        st.just(ast.TrueLiteral()),
        dims.flatmap(
            lambda dim: st.sampled_from(labels[dim]).map(lambda label: ast.LabelIs(dim, label))
        ),
        dims.flatmap(
            lambda dim: st.lists(st.sampled_from(labels[dim]), min_size=1, max_size=4).map(
                lambda chosen: ast.LabelIn(dim, tuple(chosen))
            )
        ),
    )
    predicates = st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(ast.NotPred),
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: ast.AndPred(tuple(ps))),
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: ast.OrPred(tuple(ps))),
        ),
        max_leaves=8,
    )
    queries = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["P", "O", "E"]), predicates).map(
                    lambda kp: ast.Query(kp[0], kp[1])
                ),
                st.tuples(predicates, predicates).map(lambda pg: ast.Query("P_cond", *pg)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    decls = tuple(ast.DimensionDecl(name, tuple(ls)) for name, ls in labels.items())
    return ast.Model("m", decls, (), tuple(queries))


@settings(max_examples=150, deadline=None)
@given(_labelled_queries())
def test_query_texts_match_rendering_without_a_label_map(model):
    texts = [query.text for query in compile_model(model).queries]
    assert texts == [ast.render_query(query) for query in model.queries]


@pytest.mark.parametrize(
    "pred", [ast.LabelIs("d", "no such"), ast.LabelIn("d", ("a b", "no such"))], ids=["is", "in"]
)
def test_an_undeclared_label_in_a_hand_built_query_is_a_model_error(pred):
    decls = (ast.DimensionDecl("d", ("a b", "c")),)
    model = ast.Model("m", decls, (), (ast.Query("P", pred),))
    with pytest.raises(ModelError, match="^unknown label 'no such' for dimension 'd'$"):
        compile_model(model)


def test_compile_renders_each_declared_label_once(monkeypatch):
    rendered = []
    label_text = ast._label_text

    def counted(label):
        rendered.append(label)
        return label_text(label)

    monkeypatch.setattr(ast, "_label_text", counted)
    source = (
        'model "m" { dimension d = {a, "b c", "1.5"} dimension e = {a, "b c", z} }\n'
        + "query P(d == a and e in {a, \"b c\"})\n" * 20
        + "query P(d in {\"b c\", \"1.5\"} | not e == z)\n" * 20
    )
    model = parse_model(source)
    rendered.clear()
    compile_model(model)
    assert sorted(rendered) == ["1.5", "a", "b c", "z"]
