"""Tests for the model language: lexing, parsing, diagnostics, and
round-tripping through the pretty-printer."""

import random
import time
from fractions import Fraction

import pytest

from evidentia import fixtures
from evidentia.dsl import ModelError, SourceSpan, compile_model, parse_model
from evidentia.dsl import ast
from evidentia.dsl.lexer import IDENT, LIST, NUMBER, STRING, expand, tokenize
from evidentia.dsl.parser import _Parser

COIN_SOURCE = 'model "coin" { dimension face = {H, T} }'


# -- lexer ---------------------------------------------------------------------


def test_tokenize_coin_example():
    tokens, diagnostics = tokenize(COIN_SOURCE)
    assert not diagnostics
    # The label list is one token, which expands to the tokens it holds.
    assert [t.kind for t in tokens] == [IDENT, STRING, "{", IDENT, IDENT, "=", LIST, "}"]
    assert tokens[6].text == "{H, T}"
    tokens = [t for token in tokens for t in expand(token)]
    assert len(tokens) == 12
    assert [t.kind for t in tokens] == [
        IDENT, STRING, "{", IDENT, IDENT, "=", "{", IDENT, ",", IDENT, "}", "}",
    ]


def test_tokenize_empty_input():
    tokens, diagnostics = tokenize("")
    assert tokens == [] and diagnostics == []


def test_tokenize_illegal_character():
    tokens, diagnostics = tokenize("@")
    assert not tokens
    assert len(diagnostics) == 1
    assert diagnostics[0].span.line == 1 and diagnostics[0].span.column == 1
    assert "unexpected character" in diagnostics[0].message


def test_tokenize_comments_and_whitespace():
    tokens, _ = tokenize("# a comment\nmodel # trailing\n")
    assert [t.text for t in tokens] == ["model"]
    assert tokens[0].span.line == 2


def test_tokenize_spans_index_source():
    source = 'model "x" {\n  dimension a = {l1}\n}'
    tokens, _ = tokenize(source)
    for token in tokens:
        assert 0 <= token.span.start < token.span.end <= len(source)
        if token.kind != STRING:
            assert source[token.span.start : token.span.end] == token.text


def test_tokenize_numbers_and_comparators():
    tokens, _ = tokenize("theta <= 4.5 >= < > == 10")
    assert [t.kind for t in tokens] == [IDENT, "<=", NUMBER, ">=", "<", ">", "==", NUMBER]
    assert tokens[2].text == "4.5"


def test_numbers_are_ascii_digits_only():
    tokens, diagnostics = tokenize("1\u00b2 \u0663 7")
    assert [(t.kind, t.text) for t in tokens] == [(NUMBER, "1"), (NUMBER, "7")]
    assert [d.message for d in diagnostics] == [
        "unexpected character '\u00b2'",
        "unexpected character '\u0663'",
    ]


def test_unterminated_string_is_a_diagnostic():
    _, diagnostics = tokenize('model "oops')
    assert any("unterminated string" in d.message for d in diagnostics)


# -- parsing the deck fixture -----------------------------------------------------


def test_parse_deck_fixture_shape():
    model = parse_model(fixtures.source("deck"), "deck")
    assert model.name == "deck"
    assert len(model.declarations) == 2
    assert len(model.partitions) == 1
    assert len(model.queries) == 3
    rank = model.declarations[0]
    assert isinstance(rank, ast.DimensionDecl)
    assert rank.labels == ("A", "2", "3", "4", "5", "6", "7", "8", "9", "10", "J", "Q", "K")
    groups = model.partitions[0]
    assert [b.name for b in groups.blocks] == ["aces", "face", "numbered"]
    assert model.queries[0] == ast.Query("P", ast.LabelIs("rank", "A"))
    assert model.queries[1].kind == "P_cond"
    assert model.queries[2] == ast.Query("table", partition="groups")


def test_parse_continuum():
    model = parse_model(
        'model "q" { continuum theta from 0 to 90 tranches 90 }\nquery P(theta < 45)'
    )
    decl = model.declarations[0]
    assert isinstance(decl, ast.ContinuumDecl)
    assert (decl.low, decl.high, decl.tranches) == (Fraction(0), Fraction(90), 90)
    query = model.queries[0]
    assert query.predicate == ast.Comparison("theta", "<", Fraction(45))


def test_parse_aleph_tranche_marker():
    model = parse_model('model "q" { continuum theta from 0 to 1 tranches aleph }')
    assert model.declarations[0].tranches is None


def test_parse_decimal_endpoints():
    model = parse_model('model "q" { continuum x from 0.5 to 2.25 tranches 7 }')
    decl = model.declarations[0]
    assert (decl.low, decl.high) == (Fraction(1, 2), Fraction(9, 4))


@pytest.mark.parametrize(
    "text",
    ["0", "7", "44", "007", "2.50", "0.0", "00.010", "1" + "0" * 999, "9" * 600 + "." + "9" * 400],
)
def test_number_literals_read_as_their_exact_value(text):
    top = "9" * 1000
    model = parse_model(
        f'model "q" {{ continuum x from {text} to {top} tranches 1 }}\nquery P(x < {text})'
    )
    decl, value = model.declarations[0], model.queries[0].predicate.value
    assert (decl.low, decl.high, value) == (Fraction(text), Fraction(top), Fraction(text))
    assert type(decl.low) is type(value) is Fraction
    if Fraction(text):
        model = parse_model(f'model "q" {{ continuum y from 0 to {text} tranches 1 }}')
        assert model.declarations[0].high == Fraction(text)


@pytest.mark.parametrize("digits", ["1" + "0" * 1000, "9" * 1001, "9" * 500 + "." + "9" * 501])
def test_number_literal_over_the_digit_limit_is_a_diagnostic(digits):
    source = f'model "q" {{ continuum x from 0 to 1 tranches 1 }}\nquery P(x < {digits})'
    start = source.index(digits)
    [diagnostic] = diagnostics_of(source)
    assert diagnostic.message == "number has more than 1000 digits"
    assert (diagnostic.span.start, diagnostic.span.end) == (start, start + len(digits))
    assert (diagnostic.span.line, diagnostic.span.column) == (2, len("query P(x < ") + 1)


def test_empty_model_parses_but_is_degenerate():
    model = parse_model('model "x" {}')
    assert model.declarations == ()


def test_empty_source_reports_empty_model():
    with pytest.raises(ModelError, match="empty model"):
        parse_model("")
    with pytest.raises(ModelError, match="empty model"):
        parse_model("   # only a comment\n")


# -- diagnostics --------------------------------------------------------------------


def diagnostics_of(source):
    with pytest.raises(ModelError) as err:
        parse_model(source)
    return err.value.diagnostics


def test_duplicate_label_diagnostic():
    diags = diagnostics_of('model "x" { dimension r = {A, A} }')
    assert any("duplicate label 'A'" in d.message for d in diags)


def test_duplicate_declaration_diagnostic():
    diags = diagnostics_of('model "x" { dimension r = {A} dimension r = {B} }')
    assert any("duplicate declaration" in d.message for d in diags)


def test_unknown_dimension_diagnostic():
    diags = diagnostics_of('model "x" { dimension r = {A} }\nquery P(s == A)')
    assert any("unknown dimension 's'" in d.message for d in diags)


def test_unknown_label_diagnostic():
    diags = diagnostics_of('model "x" { dimension r = {A} }\nquery P(r == Z)')
    assert any("unknown label 'Z'" in d.message for d in diags)


def test_comparison_on_labelled_dimension_diagnostic():
    diags = diagnostics_of('model "x" { dimension r = {A} }\nquery P(r < 3)')
    assert any("needs a continuum" in d.message for d in diags)


def test_unknown_partition_diagnostic():
    diags = diagnostics_of('model "x" { dimension r = {A} }\nquery table(nope)')
    assert any("unknown partition 'nope'" in d.message for d in diags)


def test_reversed_continuum_bounds_diagnostic():
    diags = diagnostics_of('model "x" { continuum t from 9 to 3 tranches 2 }')
    assert any("'from' below 'to'" in d.message for d in diags)


def test_zero_tranches_diagnostic():
    diags = diagnostics_of('model "x" { continuum t from 0 to 1 tranches 0 }')
    assert any("at least 1" in d.message for d in diags)


def test_duplicate_block_name_diagnostic():
    diags = diagnostics_of(
        'model "x" { dimension r = {A, B} partition p { q: r == A; q: r == B; } }'
    )
    assert any("duplicate block name 'q'" in d.message for d in diags)


@pytest.mark.parametrize(
    "tail, message, position",
    [
        ("query P(x in {abc", "expected ',' or '}', found end of input", (4, 18)),
        # The last token is a list that ends on line 5, after "  abc}".
        ("query P(x in {abc,\n  abc}", "expected ')', found end of input", (5, 7)),
        ("query", "expected one of 'P', 'O', 'L', 'E', 'table', 'atomic' after 'query', "
         "found end of input", (4, 6)),
    ],
)
def test_end_of_input_is_reported_after_the_last_token(tail, message, position):
    source = 'model "m" {\n  dimension x = {abc}\n}\n' + tail
    end = SourceSpan(len(source), len(source), *position)
    assert [(d.message, d.span) for d in diagnostics_of(source)] == [(message, end)]


def test_syntax_error_reports_expected_tokens():
    diags = diagnostics_of('model "x" { dimension r = A} }')
    assert any("expected '{'" in d.message for d in diags)


def test_errors_accumulate():
    source = 'model "x" { dimension r = {A, A} dimension r = {B} }\nquery P(zz == A)'
    diags = diagnostics_of(source)
    assert len(diags) >= 3


def test_diagnostic_spans_are_inside_the_source():
    source = 'model "x" { dimension r = {A, A} }\nquery P(zz == A)'
    for diag in diagnostics_of(source):
        assert 0 <= diag.span.start <= diag.span.end <= len(source)
        assert diag.span.line >= 1 and diag.span.column >= 1


def test_diagnostic_rendering_golden():
    source = 'model "x" { dimension r = {A} }\nquery P(r == Z)'
    with pytest.raises(ModelError) as err:
        parse_model(source, filename="bad.evd")
    rendered = err.value.render("bad.evd")
    assert rendered == "bad.evd:2:14: error: unknown label 'Z' for dimension 'r'"


_LISTS_HEAD = 'model "m" {\n  dimension d = {a, b}\n  continuum t from 0 to 1 tranches 4\n}\n'


# Label lists the parser refuses, read whole as one token or token by token
# (a trailing comma or a non-ASCII label keeps the lexer from reading the
# list whole): every diagnostic, in order, as rendered.
@pytest.mark.parametrize(
    "source, rendered",
    [
        (
            'model "m" { dimension x = {a, a, } }',
            "m.evd:1:31: error: duplicate label 'a' in dimension 'x'\n"
            "m.evd:1:34: error: expected a label, found '}'",
        ),
        (
            'model "m" { dimension x = {a, b, a, "b"} }',
            "m.evd:1:34: error: duplicate label 'a' in dimension 'x'\n"
            "m.evd:1:37: error: duplicate label 'b' in dimension 'x'",
        ),
        (
            _LISTS_HEAD + "query P(d in {z, })",
            "m.evd:5:15: error: unknown label 'z' for dimension 'd'\n"
            "m.evd:5:18: error: expected a label, found '}'",
        ),
        (
            # Parsing resumes after the refused list's '}', so the next
            # query's own error is reported too.
            _LISTS_HEAD + "query P(d in {a b})\nquery P(d == y)",
            "m.evd:5:17: error: expected ',' or '}', found 'b'\n"
            "m.evd:6:14: error: unknown label 'y' for dimension 'd'",
        ),
        (
            _LISTS_HEAD + "query P(t in {a, é})",
            "m.evd:5:15: error: continuum 't' has no labels to match; use an ordering comparison\n"
            "m.evd:5:18: error: continuum 't' has no labels to match; use an ordering comparison",
        ),
        (
            _LISTS_HEAD + "query P(t in {a, 2})",
            "m.evd:5:15: error: continuum 't' has no labels to match; use an ordering comparison\n"
            "m.evd:5:18: error: continuum 't' has no labels to match; use an ordering comparison",
        ),
        (_LISTS_HEAD + "query P(d in {é, a, a})", "m.evd:5:15: error: unknown label 'é' for dimension 'd'"),
        (
            _LISTS_HEAD + "query P(d in {z, a,\n  y})",
            "m.evd:5:15: error: unknown label 'z' for dimension 'd'\n"
            "m.evd:6:3: error: unknown label 'y' for dimension 'd'",
        ),
    ],
)
def test_refused_label_list_diagnostics(source, rendered):
    with pytest.raises(ModelError) as err:
        parse_model(source, filename="m.evd")
    assert err.value.render("m.evd") == rendered


# -- scale ---------------------------------------------------------------------------


def test_front_end_is_linear_in_the_source():
    # A 1.6 MB model: lexing, parsing and compiling it took minutes when
    # label lookups scanned the declaration; the bound leaves room for a
    # slow machine.
    labels = [f"l{i}" for i in range(10**5)]
    source = (
        'model "big" {\n  dimension d = {' + ", ".join(labels) + "}\n}\n"
        "query P(d in {" + ", ".join(reversed(labels)) + "})\n"
    )
    started = time.perf_counter()
    model = parse_model(source)
    compiled = compile_model(model)
    elapsed = time.perf_counter() - started
    assert model.queries[0].predicate.labels == tuple(reversed(labels))
    assert compiled.queries[0].evaluate() == 1
    assert elapsed < 10


def test_block_names_are_checked_by_hash():
    # 5 * 10^4 blocks and one repeated name: one diagnostic, at the repeat,
    # and the first block kept.  Checking each name against every earlier
    # block took seconds at a few thousand blocks.
    blocks = "".join(f"b{i}: d == a; " for i in range(5 * 10**4))
    head = 'model "m" {\n  dimension d = {a, b}\n  partition p { ' + blocks
    source = head + "b7: d == b; }\n}\n"
    started = time.perf_counter()
    diags = diagnostics_of(source)
    elapsed = time.perf_counter() - started
    at = len(head)
    assert [(d.message, d.span) for d in diags] == [
        ("duplicate block name 'b7'", SourceSpan(at, at + 2, 3, at - source.index("  partition") + 1))
    ]
    assert elapsed < 10
    # The first block of a name is the one kept.
    parser = _Parser(tokenize('model "m" { dimension d = {a, b} partition p { q: d == a; q: d == b; } }')[0])
    (partition,) = parser.parse_file().partitions
    assert [(b.name, b.predicate) for b in partition.blocks] == [("q", ast.LabelIs("d", "a"))]


def _label_list(start: int, texts: list[str]) -> tuple[str, list[int]]:
    """``texts`` joined by ", ", and the source offset of each when the
    list begins at offset ``start``."""
    offsets = []
    at = start
    for text in texts:
        offsets.append(at)
        at += len(text) + 2
    return ", ".join(texts), offsets


def test_label_diagnostics_at_scale():
    # Repeated declared labels, unknown query labels (some repeated) and
    # repeated known members: one diagnostic per bad occurrence, each with
    # its token's span, in source order.
    n = 3000
    declared = [f"l{i}" for i in range(n)] + [f"l{i}" for i in range(0, n, 97)]
    members = []
    for i in range(0, n, 3):
        members += [f"l{i}", f"l{i}"]
        if i % 150 == 0:
            members += [f"u{i}", f"u{i}"]
    head = 'model "m" {\n  dimension d = {'
    labels_text, label_at = _label_list(len(head), declared)
    line3 = "query P(d in {"
    line3_start = len(head) + len(labels_text) + len("}\n}\n")
    members_text, member_at = _label_list(line3_start + len(line3), members)
    source = head + labels_text + "}\n}\n" + line3 + members_text + "})\n"

    expected = []
    for text, at in zip(declared[n:], label_at[n:]):
        span = SourceSpan(at, at + len(text), 2, at - len("model \"m\" {\n") + 1)
        expected.append((f"duplicate label {text!r} in dimension 'd'", span))
    for text, at in zip(members, member_at):
        if text.startswith("u"):
            span = SourceSpan(at, at + len(text), 4, at - line3_start + 1)
            expected.append((f"unknown label {text!r} for dimension 'd'", span))
    with pytest.raises(ModelError) as err:
        parse_model(source)
    assert [(d.message, d.span) for d in err.value.diagnostics] == expected

    # Without the errors, the query keeps each member's first occurrence.
    known = [m.replace("u", "l") for m in members]
    model = parse_model(
        head + ", ".join(declared[:n]) + "}\n}\n" + line3 + ", ".join(known) + "})\n"
    )
    assert model.queries[0].predicate.labels == tuple(dict.fromkeys(known))


# -- pretty-printing round trips ---------------------------------------------------


@pytest.mark.parametrize("name", fixtures.names())
def test_fixture_round_trips(name):
    model = parse_model(fixtures.source(name), name)
    printed = ast.render_model(model)
    assert parse_model(printed, name + "#2") == model


def random_model(rng: random.Random) -> ast.Model:
    declarations = []
    for d in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            low = rng.randint(0, 5)
            high = low + rng.randint(1, 20)
            tranches = rng.choice([None, 1, 2, 10, 90])
            declarations.append(
                ast.ContinuumDecl(f"c{d}", Fraction(low), Fraction(high), tranches)
            )
        else:
            labels = tuple(f"l{d}_{i}" for i in range(rng.randint(1, 6)))
            declarations.append(ast.DimensionDecl(f"d{d}", labels))

    def random_pred(depth=2) -> ast.Predicate:
        choices = [decl for decl in declarations if isinstance(decl, ast.DimensionDecl)]
        if depth == 0 or rng.random() < 0.45 or not choices:
            continua = [d for d in declarations if isinstance(d, ast.ContinuumDecl)]
            if continua and rng.random() < 0.3:
                target = rng.choice(continua)
                op = rng.choice(["<", "<=", ">", ">="])
                return ast.Comparison(target.name, op, Fraction(rng.randint(0, 30)))
            if not choices:
                return ast.TrueLiteral()
            target = rng.choice(choices)
            if rng.random() < 0.5:
                return ast.LabelIs(target.name, rng.choice(target.labels))
            k = rng.randint(1, len(target.labels))
            return ast.LabelIn(target.name, tuple(rng.sample(target.labels, k)))
        roll = rng.random()
        if roll < 0.25:
            return ast.NotPred(random_pred(depth - 1))
        left, right = random_pred(depth - 1), random_pred(depth - 1)
        node = ast.AndPred if roll < 0.65 else ast.OrPred
        # The parser flattens a same-kind chain in front into its parent.
        return node((left.operands if isinstance(left, node) else (left,)) + (right,))

    partitions = []
    if rng.random() < 0.5 and any(
        isinstance(d, ast.DimensionDecl) for d in declarations
    ):
        target = next(d for d in declarations if isinstance(d, ast.DimensionDecl))
        blocks = tuple(
            ast.Block(f"b{i}", ast.LabelIs(target.name, label))
            for i, label in enumerate(target.labels)
        )
        partitions.append(ast.PartitionDecl("parts", blocks))

    queries = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["P", "P_cond", "O", "L", "E", "atomic", "table"])
        if kind == "atomic":
            queries.append(ast.Query("atomic"))
        elif kind == "table":
            if partitions:
                queries.append(ast.Query("table", partition="parts"))
        elif kind == "P_cond":
            queries.append(ast.Query("P_cond", random_pred(), random_pred()))
        else:
            queries.append(ast.Query(kind, random_pred()))
    return ast.Model("generated", tuple(declarations), tuple(partitions), tuple(queries))


def test_randomized_model_round_trips():
    rng = random.Random(20260810)
    for _ in range(200):
        model = random_model(rng)
        printed = ast.render_model(model)
        assert parse_model(printed) == model, printed


@pytest.mark.parametrize("label", ["\u0663", "\u0967\u0968", "\uff13", "1\u0663", "\u0663.5", "2.\u0663", "\U0001d7d8"])
def test_non_ascii_digit_labels_round_trip(label):
    # Only ASCII digits make a bare NUMBER label; any other decimal digit
    # renders quoted, so the printed model parses back to the same tree.
    model = ast.Model(
        "m",
        (ast.DimensionDecl("d", (label, "b")),),
        (),
        (
            ast.Query("P", ast.LabelIs("d", label)),
            ast.Query("P", ast.LabelIn("d", ("b", label))),
        ),
    )
    printed = ast.render_model(model)
    assert f'"{label}"' in printed
    assert parse_model(printed) == model, printed


def test_a_chain_is_one_node():
    head = 'model "m" { dimension d = {a, b, c} }\nquery P('
    a, b, c = (ast.LabelIs("d", label) for label in "abc")

    def parsed(text):
        return parse_model(head + text + ")").queries[0].predicate

    flat = ast.AndPred((a, b, c))
    # A parenthesised chain in front joins a chain of its own kind; one
    # behind stays a node of its own, and each prints as it was written.
    assert parsed("d == a and d == b and d == c") == flat
    assert parsed("(d == a and d == b) and d == c") == flat
    assert parsed("d == a and (d == b and d == c)") == ast.AndPred((a, ast.AndPred((b, c))))
    assert parsed("(d == a or d == b) or d == c") == ast.OrPred((a, b, c))
    assert parsed("(d == a or d == b) and d == c") == ast.AndPred((ast.OrPred((a, b)), c))
    for text in ("d == a and (d == b and d == c)", "(d == a or d == b) and d == c"):
        assert ast.render_predicate(parsed(text)) == text


@pytest.mark.parametrize("node", [ast.AndPred, ast.OrPred])
def test_a_chain_needs_a_tuple_of_two_or_more_operands(node):
    leaf = ast.TrueLiteral()
    for operands in ((), (leaf,), [leaf, leaf]):
        with pytest.raises(ValueError, match="needs a tuple of two or more operands"):
            node(operands)
    with pytest.raises(ValueError):
        node(leaf, leaf)  # the operands as separate arguments
    assert node((leaf, leaf)).operands == (leaf, leaf)


def test_dump_tree_is_stable():
    model = parse_model(fixtures.source("deck"), "deck")
    first = ast.dump_tree(model)
    second = ast.dump_tree(parse_model(fixtures.source("deck"), "deck"))
    assert first == second
    assert first.startswith('model "deck" @1:1')
    assert "block aces" in first
