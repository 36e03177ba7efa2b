"""Resource law: no allocation outgrows the input.

Each test bounds the ``tracemalloc`` peak of one compile and evaluation by
a small multiple of the peak of the same model with one term.
"""

import tracemalloc
from fractions import Fraction

import pytest

from evidentia.dsl import compile_model, parse_model

LABELS = 1000
# A compile and evaluation of a 10^6-cell space with one term peaks near
# 0.5 MB; one mask of that space is 125 kB.
FACTOR = 8


def _model(query: str) -> str:
    labels = ", ".join(f"b{i}" for i in range(LABELS))
    return (
        'model "grid" {\n'
        f"  dimension x = {{{labels}}}\n"
        f"  dimension y = {{{labels}}}\n"
        "}\n"
        f"query P({query})\n"
    )


def _peak(source: str):
    """The answer of the model's one query and the allocation peak of
    compiling and evaluating it (parsing is not measured)."""
    model = parse_model(source)
    tracemalloc.start()
    try:
        answer = compile_model(model).queries[0].evaluate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return answer, peak


@pytest.mark.parametrize(
    "word, leaf, count, share",
    [("or", "y == b{}", LABELS, 1), ("and", "not y == b{}", LABELS - 1, Fraction(1, LABELS))],
    ids=["or", "and"],
)
def test_a_chain_holds_one_mask_at_a_time(word, leaf, count, share):
    # count leaves on the second axis, 125 kB of mask each.
    answer, peak = _peak(_model(f" {word} ".join(leaf.format(i) for i in range(count))))
    assert answer == share
    assert peak < FACTOR * _peak(_model(leaf.format(0)))[1]
