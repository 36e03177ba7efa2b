"""Tests for the enumeration oracle, including its independence from the
measure engine."""

import ast as python_ast
import inspect
from fractions import Fraction
from itertools import product

import pytest

from evidentia import oracle

RANK_DIM = ("rank", "A 2 3 4 5 6 7 8 9 10 J Q K".split())
SUIT_DIM = ("suit", ["clubs", "diamonds", "hearts", "spades"])
PIPS = [str(i) for i in range(1, 7)]


def test_deck_ace_probability():
    result = oracle.probability([RANK_DIM, SUIT_DIM], lambda a: a["rank"] == "A")
    assert result == Fraction(1, 13)


def test_constant_true_probability():
    assert oracle.probability([RANK_DIM], lambda a: True) == 1


def test_two_dice_sum_of_seven():
    # hand enumeration: 16, 25, 34, 43, 52, 61 -> six of thirty-six pairs
    seven_pairs = {("1", "6"), ("2", "5"), ("3", "4"), ("4", "3"), ("5", "2"), ("6", "1")}
    result = oracle.probability(
        [("d1", PIPS), ("d2", PIPS)],
        lambda a: (a["d1"], a["d2"]) in seven_pairs,
    )
    assert result == Fraction(6, 36) == Fraction(1, 6)


def test_conditional_ace_given_ace_or_face():
    result = oracle.conditional_probability(
        [RANK_DIM, SUIT_DIM],
        lambda a: a["rank"] == "A",
        lambda a: a["rank"] in {"A", "J", "Q", "K"},
    )
    assert result == Fraction(1, 4)


def test_conditional_on_itself_is_one():
    pred = lambda a: a["rank"] == "Q"
    assert oracle.conditional_probability([RANK_DIM], pred, pred) == 1


def test_conditional_on_nothing_is_an_error():
    with pytest.raises(ZeroDivisionError):
        oracle.conditional_probability([RANK_DIM], lambda a: True, lambda a: False)


def test_enumeration_limit():
    too_big = [(f"d{i}", [str(j) for j in range(10)]) for i in range(8)]  # 10^8
    with pytest.raises(ValueError, match="exceeds the enumeration limit"):
        oracle.probability(too_big, lambda a: True)


def test_degenerate_dimensions_rejected():
    with pytest.raises(ValueError):
        oracle.probability([], lambda a: True)
    with pytest.raises(ValueError):
        oracle.probability([("empty", [])], lambda a: True)


def test_oracle_module_is_self_contained():
    """The oracle must not share code with the engine it cross-checks:
    stdlib imports only."""
    source = inspect.getsource(oracle)
    tree = python_ast.parse(source)
    imported = set()
    for node in python_ast.walk(tree):
        if isinstance(node, python_ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, python_ast.ImportFrom):
            assert node.level == 0, "oracle must not import from the package"
            imported.add(node.module)
    assert imported <= {"__future__", "fractions", "itertools", "typing"}


@pytest.mark.parametrize(
    "dimensions",
    [[SUIT_DIM], [RANK_DIM, SUIT_DIM], [("a", ["x", "y"]), ("b", PIPS), ("c", ["p", "q", "r"])]],
    ids=["one", "two", "three"],
)
def test_a_walk_shows_each_atom_once_in_row_major_order(dimensions):
    seen = []

    def record(atom):
        seen.append(tuple(atom.items()))  # the mapping is valid during the call only
        return atom[dimensions[-1][0]] == dimensions[-1][1][0]

    result = oracle.probability(dimensions, record)
    names = [name for name, _ in dimensions]
    assert seen == [tuple(zip(names, combo)) for combo in product(*(labels for _, labels in dimensions))]
    assert result == Fraction(1, len(dimensions[-1][1]))


def test_a_conditional_walk_calls_each_predicate_once_per_atom_given_first():
    dimensions = [RANK_DIM, SUIT_DIM]
    calls = []

    def recorder(name, holds):
        def predicate(atom):
            calls.append((name, atom["rank"], atom["suit"]))
            return holds(atom)

        return predicate

    result = oracle.conditional_probability(
        dimensions,
        recorder("A", lambda a: a["rank"] == "A"),
        recorder("B", lambda a: a["suit"] == "hearts"),
    )
    assert result == Fraction(1, 13)
    atoms = list(product(RANK_DIM[1], SUIT_DIM[1]))
    assert calls == [(name, *atom) for atom in atoms for name in "BA"]


@pytest.mark.parametrize("measure", ["probability", "conditional_probability"])
def test_the_enumeration_limit_is_checked_before_any_predicate_call(measure):
    too_big = [(f"d{i}", [str(j) for j in range(10)]) for i in range(8)]  # 10^8

    def never(atom):
        pytest.fail("a predicate ran before the limit was checked")

    predicates = [never] * (2 if measure == "conditional_probability" else 1)
    with pytest.raises(ValueError, match="exceeds the enumeration limit"):
        getattr(oracle, measure)(too_big, *predicates)
