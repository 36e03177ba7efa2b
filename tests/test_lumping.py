"""Lumped continua: the compiler gives a continuum one weighted cell per run
of tranches that no comparison of the model tells apart.  These tests
compare each lumped compile with the same model compiled over a space
built tranche by tranche through the library API, and bound the cost of
models whose tranche count dwarfs their source."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from evidentia.cli import main
from evidentia.dsl import ModelError, SourceSpan, ast, compile_model, lower_predicate, parse_model
from evidentia.dsl import compiler
from evidentia.spaces import Dimension

WIDTHS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(2))


def tranche_dimension(decl, thresholds=()):
    """The library-built counterpart of a declaration: one weightless label
    per tranche, ignoring the thresholds."""
    if isinstance(decl, ast.DimensionDecl):
        return Dimension(decl.name, decl.labels)
    n = decl.tranches
    width = (decl.high - decl.low) / n
    edges = [decl.low + width * i for i in range(n + 1)]
    labels = tuple(f"[{lo},{hi})" for lo, hi in zip(edges, edges[1:]))
    return Dimension(decl.name, labels, (decl.low, width))


def outcome(model, scaled):
    """Everything a compile shows: the diagnostics, or the atom count, the
    total cardinality, every atom's labels and each query's value or
    evaluation error."""
    try:
        compiled = compile_model(model, scaled=scaled)
    except ModelError as exc:
        return [(d.message, d.span) for d in exc.diagnostics]
    values = []
    for query in compiled.queries:
        try:
            values.append((query.text, query.evaluate()))
        except (ValueError, ZeroDivisionError) as exc:
            values.append((query.text, type(exc).__name__, str(exc)))
    space = compiled.space
    atoms = [atom.labels for atom in space.atoms()]
    return space.size, space.total_cardinality, atoms, values


class ModelMaker:
    """Random models over two or three small dimensions in random order:
    labelled ones and finite continua, comparisons on and off the grid,
    `is`/`in` tests, and partitions, some of them invalid."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def declarations(self):
        rng = self.rng
        decls = []
        for d in range(rng.randint(1, 3)):
            if rng.random() < 0.55:
                width = rng.choice(WIDTHS)
                low = Fraction(rng.randint(0, 5))
                n = rng.randint(1, 9)
                decls.append(ast.ContinuumDecl(f"x{d}", low, low + width * n, n))
            else:
                labels = tuple(f"l{d}{i}" for i in range(rng.randint(1, 4)))
                decls.append(ast.DimensionDecl(f"d{d}", labels))
        return tuple(decls)

    def threshold(self, decl):
        rng = self.rng
        width = (decl.high - decl.low) / decl.tranches
        roll = rng.random()
        if roll < 0.05:
            return decl.low + width * rng.randint(decl.tranches + 1, decl.tranches + 3)
        if roll < 0.1:
            return max(Fraction(0), decl.low - width * rng.randint(1, 3))
        k = Fraction(rng.randint(0, decl.tranches))
        if roll < 0.14 and k < decl.tranches:
            k += Fraction(1, 2)  # inside a tranche
        return decl.low + width * k

    def leaf(self, decls):
        rng = self.rng
        decl = rng.choice(decls)
        if isinstance(decl, ast.ContinuumDecl):
            op = rng.choice(("<", "<=", ">", ">="))
            return ast.Comparison(decl.name, op, self.threshold(decl))
        if rng.random() < 0.5:
            return ast.LabelIs(decl.name, rng.choice(decl.labels))
        k = rng.randint(1, len(decl.labels))
        return ast.LabelIn(decl.name, tuple(rng.sample(decl.labels, k)))

    def predicate(self, decls, depth=2):
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            if roll < 0.03:
                return ast.TrueLiteral()
            if roll < 0.05:
                return ast.FalseLiteral()
            return self.leaf(decls)
        if roll < 0.55:
            return ast.NotPred(self.predicate(decls, depth - 1))
        left, right = self.predicate(decls, depth - 1), self.predicate(decls, depth - 1)
        node = ast.AndPred if roll < 0.8 else ast.OrPred
        # The parser flattens a same-kind chain in front into its parent.
        return node((left.operands if isinstance(left, node) else (left,)) + (right,))

    def partition(self, decls, name):
        """Runs of one dimension, each block written as comparisons or a
        label set; sometimes a block is dropped, widened into its neighbour
        or replaced by a random predicate."""
        rng = self.rng
        decl = rng.choice(decls)
        size = decl.tranches if isinstance(decl, ast.ContinuumDecl) else len(decl.labels)
        cuts = sorted(rng.sample(range(1, size), min(size - 1, rng.randint(0, 3))))
        edges = [0] + cuts + [size]
        blocks = []
        for b, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if rng.random() < 0.15:
                hi = min(size, hi + 1)  # overlaps the next block
            if isinstance(decl, ast.ContinuumDecl):
                width = (decl.high - decl.low) / decl.tranches
                below = ast.Comparison(decl.name, "<", decl.low + width * hi)
                above = ast.Comparison(decl.name, ">=", decl.low + width * lo)
                pred = ast.AndPred((above, below))
            else:
                pred = ast.LabelIn(decl.name, decl.labels[lo:hi])
            if rng.random() < 0.1:
                pred = self.predicate(decls, 1)
            if rng.random() < 0.1 and len(edges) > 2:
                continue  # leaves a gap
            blocks.append(ast.Block(f"b{b}", pred))
        if not blocks:
            blocks.append(ast.Block("all", ast.TrueLiteral()))
        return ast.PartitionDecl(name, tuple(blocks))

    def model(self) -> ast.Model:
        rng = self.rng
        decls = self.declarations()
        partitions = tuple(self.partition(decls, f"p{i}") for i in range(rng.randint(0, 2)))
        queries = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.choice(("P", "P_cond", "O", "L", "E", "table", "atomic"))
            if kind == "atomic":
                queries.append(ast.Query("atomic"))
            elif kind == "table":
                if partitions:
                    queries.append(ast.Query("table", partition=rng.choice(partitions).name))
            elif kind == "P_cond":
                queries.append(ast.Query(kind, self.predicate(decls), self.predicate(decls)))
            else:
                queries.append(ast.Query(kind, self.predicate(decls)))
        # Parsing the printed text gives every node the span of real source.
        return parse_model(ast.render_model(ast.Model("m", decls, partitions, tuple(queries))))


def test_lumped_compile_matches_the_tranche_by_tranche_space(monkeypatch):
    rng = random.Random(11)
    make = ModelMaker(rng)
    seen = {"values": 0, "diagnostics": 0, "partition errors": 0, "lumped": 0}
    for _ in range(400):
        model = make.model()
        scaled = rng.random() < 0.4
        lumped = outcome(model, scaled)
        with monkeypatch.context() as patch:
            patch.setattr(compiler, "_dimension", tranche_dimension)
            reference = outcome(model, scaled)
        assert lumped == reference, ast.render_model(model)
        if isinstance(lumped, list):
            seen["diagnostics"] += 1
            seen["partition errors"] += any("partition '" in m for m, _ in lumped)
        else:
            seen["values"] += 1
            space = compile_model(model, scaled=scaled).space
            seen["lumped"] += space.cell_count < space.size
    # The draw reaches every path it is meant to check.
    assert min(seen.values()) > 60, seen


def test_standalone_comparison_off_the_cuts_is_a_model_error():
    space = compile_model(
        parse_model('model "m" { continuum x from 0 to 10 tranches 10 }\nquery P(x < 4)')
    ).space
    assert [d.weights for d in space.dimensions] == [(4, 6)]
    assert lower_predicate(space, ast.Comparison("x", ">=", Fraction(4))).count == 6
    pred = ast.Comparison("x", "<", Fraction(7), SourceSpan(3, 9, 1, 4))
    with pytest.raises(ModelError, match="threshold 7 is not a cut of 'x'") as exc:
        lower_predicate(space, pred)
    assert [d.span for d in exc.value.diagnostics] == [pred.span]
    with pytest.raises(ModelError, match=r"splits tranche \[6,7\) of 'x'"):
        lower_predicate(space, ast.Comparison("x", "<", Fraction(13, 2)))


def test_standalone_comparison_on_a_labelled_dimension_is_a_model_error():
    space = compile_model(parse_model('model "m" { dimension rank = {A, K} }')).space
    pred = ast.Comparison("rank", "<", Fraction(3), SourceSpan(5, 13, 2, 3))
    with pytest.raises(ModelError) as exc:
        lower_predicate(space, pred)
    assert [(d.message, d.span) for d in exc.value.diagnostics] == [
        ("'rank' has no numeric order to compare against", pred.span)
    ]


def test_partition_listings_name_atoms_not_cells():
    source = (
        'model "m" {\n'
        "  dimension d = {a, b}\n"
        "  continuum x from 0 to 10 tranches 10\n"
        "  partition p { lo: x < 2; hi: x >= 8; }\n"
        "  partition q { lo: x < 5; hi: x >= 3; }\n"
        "}\n"
    )
    with pytest.raises(ModelError) as exc:
        compile_model(parse_model(source))
    assert [d.message for d in exc.value.diagnostics] == [
        "partition 'p': partition does not cover the space; uncovered: "
        "a/[2,3), a/[3,4), a/[4,5), ... (12 total)",
        "partition 'q': blocks 'lo' and 'hi' overlap on: "
        "a/[3,4), a/[4,5), b/[3,4), ... (4 total)",
    ]


def big_model_source(labels: int, tranches: int) -> str:
    names = ", ".join(f"l{i}" for i in range(labels))
    q = tranches // 4
    return (
        f'model "big" {{\n  dimension d = {{{names}}}\n'
        f"  continuum x from 0 to {tranches} tranches {tranches}\n"
        f"  partition p {{ low: x < {q}; mid: x >= {q} and x < {3 * q}; high: x >= {3 * q}; }}\n"
        "}\n"
        f"query P(x < {2 * q})\n"
        f"query P(x >= {q} and d in {{l1, l2, l3}} | x < {3 * q})\n"
        f"query O(d == l7 or x >= {tranches - 1234})\n"
        f"query E(x < {q + 17})\n"
        "query L(x < 3)\n"
        "query table(p)\n"
        "query atomic\n"
    )


def test_ten_million_atoms_cost_what_their_classes_cost(tmp_path, capsys):
    path = tmp_path / "big.evd"
    path.write_text(big_model_source(100, 10**5), encoding="utf-8")
    started = time.perf_counter()
    assert main(["eval", str(path)]) == 0
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert "E(x < 25017) = 2501700 " in out and "atomic = 1/10000000 " in out
    assert elapsed < 1, elapsed
    tracemalloc.start()
    try:
        assert main(["eval", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == out
    assert peak < 4 * 2**20, peak


def test_an_uncut_continuum_is_one_cell():
    space = compile_model(
        parse_model('model "m" { continuum x from 0 to 1 tranches 9999999 }')
    ).space
    assert (space.cell_count, space.size) == (1, 9999999)
    assert space.dimensions[0].atom_label(9999998) == "[9999998/9999999,1)"
