"""Brute-force probability by explicit enumeration.

A second, independent realisation of counting: walk every atom of a finite
product space, evaluate a plain predicate, and divide match count by total
count with :class:`fractions.Fraction`.  Deliberately self-contained --
stdlib only, no imports from the rest of the package -- so differential
tests compare two genuinely separate computations.

A walk hands every predicate one mapping from dimension name to label,
updated in place from atom to atom, with its keys in dimension order.  It
is valid only during the call: a predicate that needs an atom later must
copy it, e.g. with ``dict(atom)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, Sequence

Dimensions = Sequence[tuple[str, Sequence[str]]]
Predicate = Callable[[Mapping[str, str]], bool]

MAX_ATOMS = 10**7


def atom_count(dimensions: Dimensions) -> int:
    if not dimensions:
        raise ValueError("no dimensions")
    total = 1
    for name, labels in dimensions:
        if not labels:
            raise ValueError(f"dimension {name!r} has no labels")
        total *= len(labels)
    return total


def _counts(dimensions: Dimensions, predicates: Sequence[Predicate]):
    total = atom_count(dimensions)
    if total > MAX_ATOMS:
        raise ValueError(f"{total} atoms exceeds the enumeration limit {MAX_ATOMS}")
    # One mapping per walk, updated in place: the outer dimensions once per
    # run of the last one, the last dimension once per atom.
    names = [name for name, _ in dimensions]
    last, last_labels = dimensions[-1]
    atom = dict.fromkeys(names)
    hits = [0] * len(predicates)
    indexed = tuple(enumerate(predicates))
    for combo in product(*(labels for _, labels in dimensions[:-1])):
        atom.update(zip(names, combo))
        for label in last_labels:
            atom[last] = label
            for i, predicate in indexed:
                if predicate(atom):
                    hits[i] += 1
    return hits, total


def probability(dimensions: Dimensions, predicate: Predicate) -> Fraction:
    """(# atoms satisfying the predicate) / (# atoms), fully reduced."""
    hits, total = _counts(dimensions, [predicate])
    return Fraction(hits[0], total)


def conditional_probability(
    dimensions: Dimensions, predicate: Predicate, given: Predicate
) -> Fraction:
    """count(A and B) / count(B) by direct enumeration."""
    hits, _total = _counts(
        dimensions, [given, lambda atom: predicate(atom) and given(atom)]
    )
    reference, both = hits
    if reference == 0:
        raise ZeroDivisionError(
            "conditioning on impossibility: no atoms satisfy the reference predicate"
        )
    return Fraction(both, reference)
