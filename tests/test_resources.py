"""Resource law: no allocation outgrows the input.

Each test bounds the ``tracemalloc`` peak of one compile and evaluation, or
what a compiled model keeps, by a small multiple of the same measure of the
same model with one term, one query, one block or one partition; and a
partition is tabulated once, however many queries ask for its table.
"""

import tracemalloc
from fractions import Fraction

import pytest

from evidentia.dsl import compile_model, compiler, parse_model

LABELS = 1000
QUERIES = 400
# A compile and evaluation of a 10^6-cell space with one term peaks near
# 0.5 MB; one mask of that space is 125 kB.
FACTOR = 8


def _model(*predicates: str, blocks: int = 0, partitions: int = 1, tables: int = 1) -> str:
    """Two dimensions of LABELS labels and one ``P`` query per predicate;
    with ``blocks``, also ``partitions`` partitions ``p0``, ``p1``, ... of
    the second axis into that many blocks (the last takes the labels left
    over), and ``tables`` queries of each one's table."""
    labels = ", ".join(f"b{i}" for i in range(LABELS))
    declared = tabled = ""
    if blocks:
        rest = ", ".join(f"b{i}" for i in range(blocks - 1, LABELS))
        named = "".join(f" k{i}: y == b{i};" for i in range(blocks - 1))
        for n in range(partitions):
            declared += f"  partition p{n} {{{named} rest: y in {{{rest}}}; }}\n"
            tabled += f"query table(p{n})\n" * tables
    return (
        'model "grid" {\n'
        f"  dimension x = {{{labels}}}\n"
        f"  dimension y = {{{labels}}}\n"
        f"{declared}"
        "}\n"
        + "".join(f"query P({predicate})\n" for predicate in predicates)
        + tabled
    )


def _peak(source: str):
    """The answers of the model's queries and the allocation peak of
    compiling and evaluating them (parsing is not measured)."""
    model = parse_model(source)
    tracemalloc.start()
    try:
        answers = [query.evaluate() for query in compile_model(model).queries]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return answers, peak


def _retained(source: str):
    """The compiled model and the memory it keeps: what is still allocated
    when the compile returns (parsing is not measured)."""
    model = parse_model(source)
    tracemalloc.start()
    try:
        compiled = compile_model(model)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return compiled, kept


@pytest.mark.parametrize(
    "word, leaf, count, share",
    [("or", "y == b{}", LABELS, 1), ("and", "not y == b{}", LABELS - 1, Fraction(1, LABELS))],
    ids=["or", "and"],
)
def test_a_chain_holds_one_mask_at_a_time(word, leaf, count, share):
    # count leaves on the second axis, 125 kB of mask each.
    (answer,), peak = _peak(_model(f" {word} ".join(leaf.format(i) for i in range(count))))
    assert answer == share
    assert peak < FACTOR * _peak(_model(leaf.format(0)))[1]


@pytest.mark.parametrize("predicate", ["y == b{}", "y == b{} | x == b{}"], ids=["P", "P_cond"])
def test_many_queries_hold_one_mask_at_a_time(predicate):
    # Each query lowers a 125 kB mask or two; its answer is a ratio of counts.
    answers, peak = _peak(_model(*(predicate.format(i, i) for i in range(QUERIES))))
    assert answers == [Fraction(1, LABELS)] * QUERIES
    assert peak < FACTOR * _peak(_model(predicate.format(0, 0)))[1]


def test_a_compiled_model_keeps_no_query_mask():
    compiled, kept = _retained(_model(*(f"y == b{i}" for i in range(QUERIES))))
    assert [query.evaluate() for query in compiled.queries] == [Fraction(1, LABELS)] * QUERIES
    assert kept < FACTOR * _retained(_model("y == b0"))[1]


def test_a_compiled_model_keeps_no_block_mask():
    compiled, kept = _retained(_model(blocks=LABELS))
    (table,) = compiled.queries
    assert [share for _, share in table.evaluate()] == [Fraction(1, LABELS)] * LABELS
    assert kept < FACTOR * _retained(_model(blocks=1))[1]


def test_a_partition_is_tabulated_once_however_many_tables_name_it(monkeypatch):
    tabulate, calls = compiler.partition_distribution, []

    def counted(partition):
        calls.append(None)
        return tabulate(partition)

    monkeypatch.setattr(compiler, "partition_distribution", counted)
    compiled = compile_model(parse_model(_model(blocks=10, tables=QUERIES)))
    assert calls == [None]
    rows = [(f"k{i}", Fraction(1, LABELS)) for i in range(9)] + [("rest", Fraction(991, LABELS))]
    assert all(query.evaluate() == rows for query in compiled.queries)


def test_many_partitions_hold_one_partition_at_a_time():
    # Each partition lowers 100 masks of 125 kB; its table is a row of counts.
    partitions = FACTOR + 2
    answers, peak = _peak(_model(blocks=100, partitions=partitions))
    assert len(answers) == partitions and all(answer == answers[0] for answer in answers)
    assert peak < FACTOR * _peak(_model(blocks=100))[1]


def test_tables_of_one_partition_are_equal_but_distinct_lists():
    first, second = compile_model(parse_model(_model(blocks=2, tables=2))).queries
    rows = first.evaluate()
    assert rows == second.evaluate() and rows is not second.evaluate()
    rows.clear()
    assert first.evaluate() == second.evaluate() == [
        ("k0", Fraction(1, LABELS)), ("rest", Fraction(LABELS - 1, LABELS))
    ]
