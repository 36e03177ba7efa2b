"""Brute-force probability by explicit enumeration.

A second, independent realisation of counting: walk every atom of a finite
product space, evaluate a plain predicate, and divide match count by total
count with :class:`fractions.Fraction`.  Deliberately self-contained --
stdlib only, no imports from the rest of the package -- so differential
tests compare two genuinely separate computations.

One walker serves both measures, which call each predicate once per atom
with one mapping from dimension name to label, updated in place from atom
to atom, with its keys in dimension order.  The mapping is valid only
during the call: a predicate that needs an atom later must copy it, e.g.
with ``dict(atom)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Mapping, Sequence

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


def _atoms(dimensions: Dimensions) -> Iterator[Mapping[str, str]]:
    """Every atom, in row-major order, once the limit has been checked."""
    total = atom_count(dimensions)
    if total > MAX_ATOMS:
        raise ValueError(f"{total} atoms exceeds the enumeration limit {MAX_ATOMS}")
    names = [name for name, _ in dimensions]
    last, last_labels = dimensions[-1]
    atom = dict.fromkeys(names)
    for combo in product(*(labels for _, labels in dimensions[:-1])):
        atom.update(zip(names, combo))
        for label in last_labels:
            atom[last] = label
            yield atom


def probability(dimensions: Dimensions, predicate: Predicate) -> Fraction:
    """(# atoms satisfying the predicate) / (# atoms), fully reduced."""
    hits = sum(1 for atom in _atoms(dimensions) if predicate(atom))
    return Fraction(hits, atom_count(dimensions))


def conditional_probability(
    dimensions: Dimensions, predicate: Predicate, given: Predicate
) -> Fraction:
    """count(A and B) / count(B) by direct enumeration.  Each predicate runs
    once on every atom, ``given`` first."""
    reference = both = 0
    for atom in _atoms(dimensions):
        holds = given(atom)
        if predicate(atom) and holds:
            both += 1
        if holds:
            reference += 1
    if reference == 0:
        raise ZeroDivisionError(
            "conditioning on impossibility: no atoms satisfy the reference predicate"
        )
    return Fraction(both, reference)
