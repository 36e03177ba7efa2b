"""Possibility spaces, propositions over them, and named partitions.

A space is the Cartesian product of named, finitely labelled dimensions,
enumerated row-major in declaration order so that cell ids are
deterministic.  Two flavours share one type:

* a *finite* space counts each cell as one unit of evidence;
* a *scaled* space declares the whole space to have the infinite
  cardinality ``aleph``, split evenly so each of its ``n`` cells is a
  tranche of cardinality ``aleph/n``.  Only whole tranches can be talked
  about; anything finer means building a new space with a finer grid.

Propositions are immutable subsets of one space's cells, stored as one
``int`` bitmask with bit ``i`` for cell ``i`` and combined with ``&``
(and), ``|`` (or) and ``~`` (not).  Cells never mix across spaces: a
proposition means something only relative to the model that produced its
space, so cross-space operations raise instead of silently coercing.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .hyperrational import ALEPH, Hyperrational


@dataclass(frozen=True)
class Dimension:
    """One axis of a possibility space.

    ``grid``, when present, is ``(low, width)``: label ``i`` stands for the
    half-open interval ``[low + i*width, low + (i+1)*width)``.  Continuum
    declarations discretised into equal tranches carry it so numeric
    comparisons can resolve to whole cells.
    """

    name: str
    labels: tuple[str, ...]
    grid: tuple[Fraction, Fraction] | None = None

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each label, built on first use and then kept."""
        return {label: i for i, label in enumerate(self.labels)}


class Atom(NamedTuple):
    """One indivisible cell: its id and its per-dimension labels."""

    index: int
    labels: tuple[str, ...]


class PossibilitySpace:
    """Product of labelled dimensions; finite by default, infinite when
    ``scaled``."""

    def __init__(self, dimensions: Sequence[Dimension], scaled: bool = False):
        dims = tuple(dimensions)
        if not dims:
            raise ValueError("a space needs at least one dimension")
        seen = set()
        for dim in dims:
            if dim.name in seen:
                raise ValueError(f"duplicate dimension name {dim.name!r}")
            seen.add(dim.name)
            if not dim.labels:
                raise ValueError(f"dimension {dim.name!r} has no labels")
            if len(set(dim.labels)) != len(dim.labels):
                counts = Counter(dim.labels)
                dupes = sorted(l for l, c in counts.items() if c > 1)
                raise ValueError(
                    f"dimension {dim.name!r} repeats label(s): {', '.join(dupes)}"
                )
        self._dims = dims
        self._scaled = bool(scaled)
        size = 1
        for dim in dims:
            size *= len(dim.labels)
        self._size = size
        strides = []
        acc = 1
        for dim in reversed(dims):
            strides.append(acc)
            acc *= len(dim.labels)
        self._strides = tuple(reversed(strides))
        if scaled:
            self._unit = ALEPH / size
            self._total = ALEPH
        else:
            self._unit = Hyperrational(1)
            self._total = Hyperrational(size)
        self._full = (1 << size) - 1

    @property
    def dimensions(self) -> tuple[Dimension, ...]:
        return self._dims

    @property
    def scaled(self) -> bool:
        return self._scaled

    @property
    def size(self) -> int:
        """Number of cells (atoms, or tranches when scaled)."""
        return self._size

    @property
    def unit_cardinality(self) -> Hyperrational:
        """Evidence carried by one cell: 1, or ``aleph/n`` when scaled."""
        return self._unit

    @property
    def total_cardinality(self) -> Hyperrational:
        """Evidence carried by the whole space: ``n``, or ``aleph``."""
        return self._total

    @property
    def top(self) -> "Proposition":
        """The proposition true in every cell."""
        return Proposition(self, self._full)

    @property
    def bottom(self) -> "Proposition":
        """The contradictory proposition: the empty subset."""
        return Proposition(self, 0)

    def labels_of(self, cell: int) -> tuple[str, ...]:
        if not 0 <= cell < self._size:
            raise IndexError(f"cell {cell} outside space of size {self._size}")
        out = []
        for dim, stride in zip(self._dims, self._strides):
            out.append(dim.labels[(cell // stride) % len(dim.labels)])
        return tuple(out)

    def assignment_of(self, cell: int) -> dict[str, str]:
        return dict(zip((d.name for d in self._dims), self.labels_of(cell)))

    def atoms(self) -> Iterator[Atom]:
        for cell in range(self._size):
            yield Atom(cell, self.labels_of(cell))

    def proposition(self, members: Iterable[int]) -> "Proposition":
        """The subset of the cells ``members``, in time linear in the size."""
        digits = bytearray(b"0") * self._size
        for cell in members:
            if not 0 <= cell < self._size:
                raise ValueError("member ids fall outside the space")
            digits[-1 - cell] = ord("1")
        return Proposition(self, int(digits, 2))

    def where(self, predicate: Callable[[Mapping[str, str]], bool]) -> "Proposition":
        """Subset of cells whose label assignment satisfies ``predicate``."""
        return self.proposition(
            cell for cell in range(self._size) if predicate(self.assignment_of(cell))
        )

    def axis_proposition(
        self, dimension: str, label_indices: Iterable[int]
    ) -> "Proposition":
        """Cells whose index along ``dimension`` is one of ``label_indices``:
        one period of that pattern, doubled by shifts past the space size."""
        k = self._dim_index(dimension)
        stride = self._strides[k]
        width = len(self._dims[k].labels)
        mask = 0
        for index in label_indices:
            if not 0 <= index < width:
                raise ValueError(f"no label index {index} in dimension {dimension!r}")
            mask |= ((1 << stride) - 1) << (index * stride)
        length = stride * width
        while length < self._size:
            mask |= mask << length
            length *= 2
        return Proposition(self, mask & self._full)

    def _dim_index(self, name: str) -> int:
        for i, dim in enumerate(self._dims):
            if dim.name == name:
                return i
        raise ValueError(f"no dimension named {name!r}")


def _cells(mask: int) -> Iterator[int]:
    """The cell ids whose bits are set in ``mask``, in ascending order."""
    return (cell for cell, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


@dataclass(frozen=True)
class Proposition:
    """A subset of one space's cells: bit ``i`` of ``mask`` holds cell ``i``."""

    space: PossibilitySpace
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask.bit_length() > self.space.size:
            raise ValueError("member ids fall outside the space")

    @property
    def members(self) -> frozenset[int]:
        """The cell ids, derived from ``mask``."""
        return frozenset(_cells(self.mask))

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def _same_space(self, other: "Proposition"):
        if other.space is not self.space:
            raise ValueError("propositions belong to different spaces")

    def __and__(self, other):
        if not isinstance(other, Proposition):
            return NotImplemented
        self._same_space(other)
        return Proposition(self.space, self.mask & other.mask)

    def __or__(self, other):
        if not isinstance(other, Proposition):
            return NotImplemented
        self._same_space(other)
        return Proposition(self.space, self.mask | other.mask)

    def __invert__(self):
        return Proposition(self.space, self.space._full ^ self.mask)

    def __repr__(self):
        body = ", ".join(map(str, islice(_cells(self.mask), 8)))
        if self.count > 8:
            body += f", ... ({self.count} cells)"
        return f"Proposition({{{body}}})"


@dataclass(frozen=True)
class StateSpacePartition:
    """Disjoint, exhaustive, named blocks of one space.

    Build through :func:`make_partition`, which validates the structure.
    """

    space: PossibilitySpace
    blocks: tuple[tuple[str, Proposition], ...]


def _describe_cells(space: PossibilitySpace, mask: int, limit: int = 3) -> str:
    shown = ["/".join(space.labels_of(c)) for c in islice(_cells(mask), limit)]
    if mask.bit_count() > limit:
        shown.append(f"... ({mask.bit_count()} total)")
    return ", ".join(shown)


def make_partition(
    space: PossibilitySpace, blocks: Sequence[tuple[str, Proposition]]
) -> StateSpacePartition:
    """Validate and freeze a grouping of the space into named blocks.

    Raises ``ValueError`` naming the offending blocks (overlap) or the
    uncovered cells (non-exhaustiveness).
    """
    if not blocks:
        raise ValueError("a partition needs at least one block")
    covered = 0
    names = set()
    for name, prop in blocks:
        if prop.space is not space:
            raise ValueError(f"block {name!r} belongs to a different space")
        if name in names:
            raise ValueError(f"duplicate block name {name!r}")
        names.add(name)
        clashes = covered & prop.mask
        if clashes:
            lowest = clashes & -clashes
            other = next(earlier for earlier, block in blocks if block.mask & lowest)
            raise ValueError(
                f"blocks {other!r} and {name!r} overlap on: "
                f"{_describe_cells(space, clashes)}"
            )
        covered |= prop.mask
    if covered != space._full:
        raise ValueError(
            f"partition does not cover the space; uncovered: "
            f"{_describe_cells(space, space._full ^ covered)}"
        )
    return StateSpacePartition(space, tuple((name, prop) for name, prop in blocks))


def build_finite_space(
    dimensions: Sequence[tuple[str, Sequence[str]]]
) -> PossibilitySpace:
    """Finite product space from ``(name, labels)`` pairs; one atom per
    combination, in row-major declaration order."""
    dims = [Dimension(name, tuple(labels)) for name, labels in dimensions]
    return PossibilitySpace(dims, scaled=False)


def build_scaled_space(
    tranche_labels: Sequence[str], name: str = "value"
) -> PossibilitySpace:
    """Scaled space of total cardinality ``aleph`` with one tranche of
    cardinality ``aleph/n`` per label."""
    dims = [Dimension(name, tuple(tranche_labels))]
    return PossibilitySpace(dims, scaled=True)
