"""Possibility spaces, propositions over them, and named partitions.

A space is the Cartesian product of named dimensions.  Its *atoms* are the
indivisible possibilities, one per combination of positions along the
dimensions, enumerated row-major in declaration order so that atom ids are
deterministic.  Evidence counts atoms.  Two flavours share one type:

* a *finite* space counts each atom as one unit of evidence;
* a *scaled* space declares the whole space to have the infinite
  cardinality ``aleph``, split evenly so each of its ``n`` atoms is a
  tranche of cardinality ``aleph/n``.  Only whole tranches can be talked
  about; anything finer means building a new space with a finer grid.

A space computes over *cells*, the product of its dimensions' labels,
enumerated row-major in the same way.  A dimension may give each label a
*weight*, the number of consecutive atoms the label stands for; without
weights (every space the library builders make) each label is one atom
and the cells are the atoms.

A continuum is an interval cut into equal half-open tranches, the atoms of
its axis, e.g. ``[44,45)``.  :meth:`Dimension.continuum` cuts it only at
the thresholds that fall on a tranche boundary and gives each run of
tranches between two cuts one cell, labelled with the run's bounds and
weighted with its tranche count.  No comparison against those thresholds
can tell two tranches of a run apart, so the work follows the classes a
model can distinguish rather than its tranche count, while counts,
cardinalities and the atoms named in diagnostics stay those of the
tranches.  :meth:`Dimension.compare` resolves an ordering comparison to
whole cells: a threshold on a tranche boundary is exact (a bare boundary
point weighs one atom, below tranche resolution), while a threshold
strictly inside a tranche, or on a boundary the dimension was not cut at,
is an error rather than a silent approximation.  Positions and labels are
computed in integers over one common denominator of the grid, so neither
builds a ``Fraction``.

Propositions are immutable subsets of one space's cells, stored as one
``int`` bitmask with bit ``i`` for cell ``i`` and combined with ``&``
(and), ``|`` (or) and ``~`` (not); their ``count`` is the number of atoms
they hold.  Cells never mix across spaces: a proposition means something
only relative to the model that produced its space, so cross-space
operations raise instead of silently coercing.

Everything here is immutable after construction and safe to share between
threads, with one cache of four tables per space.  Each space keeps the
evidence values and the probabilities that ``evidence.evidence`` and
``evidence.probability`` have computed on it, keyed by atom count, since on
one space both depend on the count alone: each holds one entry per distinct
count asked about, at most ``size + 1``.  It also keeps two tables keyed by
the count pair ``(|A and B|, |B|)``, each with one entry per distinct pair
asked about, at most ``(size + 1)(size + 2)/2``: the conditional
probabilities ``evidence.conditional_probability`` has computed, and the
right-hand quotients P(A and B)/P(B) of ``evidence.check_product_rule``,
kept as the conditional's own object when equal to it.  The tables stay
thread-safe because their entries are idempotent: two threads that miss on
one key compute equal values, and either store is right.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, islice, product
from math import gcd
from numbers import Rational
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._value import Value, record
from .hyperrational import ALEPH, Hyperrational


@record
class Dimension(Value):
    """One axis of a possibility space: a tuple of one or more distinct
    labels.

    ``grid``, when present, is ``(low, width)``: atom ``i`` along the axis
    stands for the half-open interval ``[low + i*width, low + (i+1)*width)``.
    Continuum declarations discretised into equal tranches carry it so
    numeric comparisons can resolve to whole cells.  Its ends are exact
    (``int`` or ``Fraction``; a ``float`` or a ``bool`` is a ``TypeError``)
    and its width is positive.  Positions and labels are computed in integers over one
    common denominator: atom ``i`` starts at ``(base + i*step)/scale``, so
    placing a threshold is one ``divmod`` and printing a bound one ``gcd``,
    and neither builds a ``Fraction``.

    ``weights``, when present, gives each label's atom count: label ``j``
    covers the consecutive atoms from ``offsets[j]`` up to
    ``offsets[j + 1]``.  ``None`` means one atom per label.  Weights need a
    grid, which names the atoms inside a label.
    """

    name: str
    labels: tuple[str, ...]
    grid: tuple[Fraction, Fraction] | None = None
    weights: tuple[int, ...] | None = None

    def __init__(self, name, labels, grid=None, weights=None):
        attrs = self.__dict__
        attrs["name"] = name
        attrs["labels"] = labels
        attrs["grid"] = grid
        attrs["weights"] = weights
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.labels, tuple):
            raise TypeError(
                f"dimension {self.name!r} needs a tuple of labels, not {self.labels!r}"
            )
        if not self.labels:
            raise ValueError(f"dimension {self.name!r} has no labels")
        if len(set(self.labels)) != len(self.labels):
            dupes = sorted(l for l, c in Counter(self.labels).items() if c > 1)
            raise ValueError(f"dimension {self.name!r} repeats label(s): {', '.join(dupes)}")
        if self.grid is not None:
            _require_exact(self.name, *self.grid)
            if self.grid[1] <= 0:
                raise ValueError(
                    f"grid of {self.name!r} needs a positive tranche width, "
                    f"not {self.grid[1]}"
                )

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each label, built on first use and then kept."""
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """First atom of each label, then the atom count."""
        return tuple(accumulate(self.weights or [1] * len(self.labels), initial=0))

    @cached_property
    def _steps(self) -> tuple[int, int, int]:
        """The grid as integers ``(base, step, scale)``."""
        return _integer_grid(self.grid)

    @property
    def size(self) -> int:
        """Number of atoms along this axis."""
        return len(self.labels) if self.weights is None else self.offsets[-1]

    def atom_label(self, atom: int) -> str:
        """Label of one atom: its own label, or in a weighted dimension its
        tranche ``[lo,hi)`` computed from the grid."""
        if self.weights is None:
            return self.labels[atom]
        return _grid_label(self._steps, atom, atom + 1)

    @classmethod
    def continuum(
        cls, name: str, low: Fraction, high: Fraction, tranches: int, thresholds=()
    ) -> "Dimension":
        """The interval from ``low`` to ``high`` in ``tranches`` equal
        tranches, cut at each of ``thresholds`` that falls on a tranche
        boundary: one cell per run between two cuts, weighted with its
        tranche count, or one per tranche (``weights`` ``None``) when every
        tranche is cut.  Raises ``TypeError`` for an end that is not an
        ``int`` or ``Fraction`` or a tranche count that is not an ``int``
        (a ``bool`` is neither), and ``ValueError`` for fewer than one tranche
        or ``low >= high``."""
        _require_exact(name, low, high)
        if not isinstance(tranches, int) or isinstance(tranches, bool):
            raise TypeError(f"{name!r} needs a whole number of tranches, not {tranches!r}")
        if tranches < 1:
            raise ValueError(f"{name!r} needs at least one tranche, not {tranches}")
        if low >= high:
            raise ValueError(f"continuum {name!r} needs low below high ({low} >= {high})")
        low_n, low_d = low.numerator, low.denominator
        high_n, high_d = high.numerator, high.denominator
        width = Fraction(high_n * low_d - low_n * high_d, low_d * high_d * tranches)
        grid = (Fraction(low_n, low_d), width)
        steps = _integer_grid(grid)
        cuts = {0, tranches}
        for value in thresholds:
            k, whole = _position(steps, tranches, value)
            if whole:
                cuts.add(k)
        edges = sorted(cuts)
        runs = list(zip(edges, edges[1:]))
        labels = tuple(_grid_label(steps, a, b) for a, b in runs)
        weights = None if len(runs) == tranches else tuple(b - a for a, b in runs)
        return cls(name, labels, grid, weights)

    def compare(self, op: str, value: Fraction) -> range:
        """Indices of the labels where ``x op value`` holds, for ``op`` one
        of ``<``, ``<=``, ``>``, ``>=``.  Tranches below the cut at
        ``value`` lie inside ``x < value`` and ``x <= value``, those from it
        on inside ``x > value`` and ``x >= value``.  Raises ``ValueError``
        for any other ``op``, when the dimension has no grid, when ``value``
        falls inside a tranche, or when the dimension was not cut there."""
        if op not in _ORDER_OPS:
            raise ValueError(
                f"unknown comparison {op!r} on {self.name!r}; use one of <, <=, >, >="
            )
        if self.grid is None:
            raise ValueError(f"{self.name!r} has no numeric order to compare against")
        i, whole = _position(self._steps, self.size, value)
        if not whole:
            raise ValueError(
                f"threshold {value} splits tranche {self.atom_label(i)} of "
                f"{self.name!r}; rebuild with a finer tranche count"
            )
        j = bisect_left(self.offsets, i)
        if self.offsets[j] != i:
            raise ValueError(
                f"threshold {value} is not a cut of {self.name!r} in this "
                "compiled space; compile the comparison as part of the model"
            )
        return range(j) if op in ("<", "<=") else range(j, len(self.labels))


_ORDER_OPS = frozenset(("<", "<=", ">", ">="))


def _require_exact(name: str, *values) -> None:
    for value in values:
        if not isinstance(value, Rational) or isinstance(value, bool):
            raise TypeError(
                f"{name!r} needs exact numbers, not {value!r}; use integers or Fraction"
            )


def _integer_grid(grid: tuple[Fraction, Fraction]) -> tuple[int, int, int]:
    # (base, step, scale) over the common denominator of low and width:
    # grid atom i starts at (base + i*step)/scale.
    low, width = grid
    return (
        low.numerator * width.denominator,
        width.numerator * low.denominator,
        low.denominator * width.denominator,
    )


def _position(steps: tuple[int, int, int], n: int, value: Fraction) -> tuple[int, bool]:
    # How many of the n tranches lie below a threshold, clamped to 0..n,
    # and whether it sits on their boundary: (k, True) is the cut before
    # tranche k, (k, False) a point inside tranche k.
    try:
        p, q = value.numerator, value.denominator
    except AttributeError:
        raise TypeError(
            f"threshold {value!r} is not exact; use integers or Fraction"
        ) from None
    base, step, scale = steps
    above = p * scale - base * q
    if above <= 0:
        return 0, True
    k, rest = divmod(above, step * q)
    return (n, True) if k >= n else (k, not rest)


def _grid_label(steps: tuple[int, int, int], start: int, stop: int) -> str:
    """The interval ``[lo,hi)`` that grid atoms ``start`` up to ``stop``
    cover, in exact rationals: ``[44,45)``, ``[1/2,1)``."""
    base, step, scale = steps
    return f"[{_ratio(base + step * start, scale)},{_ratio(base + step * stop, scale)})"


def _ratio(numerator: int, denominator: int) -> str:
    # In lowest terms, printed as Fraction prints it: n, or n/d.
    g = gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"


class Atom(NamedTuple):
    """One indivisible possibility: its id and its per-dimension labels."""

    index: int
    labels: tuple[str, ...]


class PossibilitySpace:
    """Product of labelled dimensions; finite by default, infinite when
    ``scaled``."""

    def __init__(self, dimensions: Sequence[Dimension], scaled: bool = False):
        dims = tuple(dimensions)
        if not dims:
            raise ValueError("a space needs at least one dimension")
        self._positions: dict[str, int] = {}
        for k, dim in enumerate(dims):
            if dim.name in self._positions:
                raise ValueError(f"duplicate dimension name {dim.name!r}")
            self._positions[dim.name] = k
            if dim.weights is not None and (
                dim.grid is None
                or len(dim.weights) != len(dim.labels)
                or min(dim.weights) < 1
            ):
                raise ValueError(
                    f"dimension {dim.name!r} needs a grid and one positive "
                    "weight per label"
                )
        self._dims = dims
        self._scaled = bool(scaled)
        size = cells = 1
        for dim in dims:
            size *= dim.size
            cells *= len(dim.labels)
        self._size = size
        self._cells = cells
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
        self._full = (1 << cells) - 1
        groups = tuple(
            self._weight_groups(k) for k, dim in enumerate(dims) if dim.weights
        )
        # Atoms in the cells set in a mask: one per cell unless a dimension
        # has weights.
        self._count = partial(_weighted, groups=groups) if groups else int.bit_count
        self._evidence: dict[int, Hyperrational] = {}  # evidence.evidence's
        self._probabilities: dict[int, Hyperrational] = {}  # evidence.probability's
        # Keyed by (|A and B|, |B|): evidence.conditional_probability's, and
        # evidence.check_product_rule's P(AB)/P(B), divided once per key.
        # Each counts both masks once per call.
        self._conditionals: dict[tuple[int, int], Hyperrational] = {}
        self._quotients: dict[tuple[int, int], Hyperrational] = {}

    @property
    def dimensions(self) -> tuple[Dimension, ...]:
        return self._dims

    @property
    def scaled(self) -> bool:
        return self._scaled

    @property
    def size(self) -> int:
        """Number of atoms (tranches when scaled)."""
        return self._size

    @property
    def cell_count(self) -> int:
        """Number of cells: ``size`` unless some dimension has weights."""
        return self._cells

    @property
    def unit_cardinality(self) -> Hyperrational:
        """Evidence carried by one atom: 1, or ``aleph/n`` when scaled."""
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
        if not 0 <= cell < self._cells:
            raise IndexError(f"cell {cell} outside space of size {self._cells}")
        out = []
        for dim, stride in zip(self._dims, self._strides):
            out.append(dim.labels[(cell // stride) % len(dim.labels)])
        return tuple(out)

    def assignment_of(self, cell: int) -> dict[str, str]:
        return dict(zip((d.name for d in self._dims), self.labels_of(cell)))

    def atoms(self) -> Iterator[Atom]:
        """Every atom with its per-dimension atom labels, in row-major order."""
        dims = self._dims
        combos = product(*(range(dim.size) for dim in dims))
        for index, combo in enumerate(combos):
            yield Atom(index, tuple(d.atom_label(i) for d, i in zip(dims, combo)))

    def proposition(self, members: Iterable[int]) -> "Proposition":
        """The subset of the cells ``members``, in time linear in the cell
        count."""
        digits = bytearray(b"0") * self._cells
        for cell in members:
            if not 0 <= cell < self._cells:
                raise ValueError("member ids fall outside the space")
            digits[-1 - cell] = ord("1")
        return Proposition(self, int(digits, 2))

    def where(self, predicate: Callable[[Mapping[str, str]], bool]) -> "Proposition":
        """Subset of cells whose label assignment satisfies ``predicate``."""
        return self.proposition(
            cell for cell in range(self._cells) if predicate(self.assignment_of(cell))
        )

    def axis_proposition(
        self, dimension: str, label_indices: Iterable[int]
    ) -> "Proposition":
        """Cells whose label index along ``dimension`` is one of
        ``label_indices``."""
        return Proposition(self, self._axis_mask(self._dim_index(dimension), label_indices))

    def _axis_mask(self, k: int, label_indices: Iterable[int]) -> int:
        # One period of the pattern, doubled by shifts past the cell count.
        stride = self._strides[k]
        width = len(self._dims[k].labels)
        mask = 0
        for index in label_indices:
            if not 0 <= index < width:
                raise ValueError(
                    f"no label index {index} in dimension {self._dims[k].name!r}"
                )
            mask |= ((1 << stride) - 1) << (index * stride)
        length = stride * width
        while length < self._cells:
            mask |= mask << length
            length *= 2
        return mask & self._full

    def _weight_groups(self, k: int) -> tuple[tuple[int, int], ...]:
        # (multiplier, cell mask) pairs, one per bit of the weights: a cell's
        # weight along dimension k is the sum of the multipliers of the
        # groups holding it, so a count takes at most log2(atoms) of them
        # however many labels the dimension has.
        weights = self._dims[k].weights
        return tuple(
            (1 << b, self._axis_mask(k, [j for j, w in enumerate(weights) if w >> b & 1]))
            for b in range(max(weights).bit_length())
        )

    def _first_atoms(self, mask: int, limit: int) -> list[tuple[str, ...]]:
        """Labels of the first ``limit`` atoms, in row-major atom order, of
        the cells set in ``mask``.  The atoms of a label are consecutive, so
        along each axis the labels are taken in order and each one taken
        yields at least one atom: no call walks more than ``limit`` of them.
        A run of one-atom dimensions, whose labels are fixed, takes no frame."""
        dims, strides = self._dims, self._strides

        def walk(k: int, sub: int) -> list[tuple[str, ...]]:
            start = k
            while k < len(dims) and dims[k].size == 1:
                k += 1
            fixed = tuple(dim.atom_label(0) for dim in dims[start:k])
            if k == len(dims):
                return [fixed] if sub else []
            dim, stride = dims[k], strides[k]
            out: list[tuple[str, ...]] = []
            while sub and len(out) < limit:
                j = ((sub & -sub).bit_length() - 1) // stride
                tails = walk(k + 1, (sub >> (j * stride)) & ((1 << stride) - 1))
                for atom in range(dim.offsets[j], dim.offsets[j + 1]):
                    label = dim.atom_label(atom)
                    out.extend((*fixed, label, *tail) for tail in tails)
                    if len(out) >= limit:
                        break
                sub = sub >> ((j + 1) * stride) << ((j + 1) * stride)
            return out[:limit]

        return walk(0, mask)

    def _dim_index(self, name: str) -> int:
        if name not in self._positions:
            raise ValueError(f"no dimension named {name!r}")
        return self._positions[name]


def _weighted(mask: int, groups: tuple[tuple[tuple[int, int], ...], ...]) -> int:
    """Atoms in ``mask``: each cell weighs the product of its weights along
    the weighted dimensions, whose groups are ``groups``."""
    total = 0
    for multiplier, group in groups[0]:
        part = mask & group
        if part:
            rest = _weighted(part, groups[1:]) if len(groups) > 1 else part.bit_count()
            total += multiplier * rest
    return total


def _cells(mask: int) -> Iterator[int]:
    """The cell ids whose bits are set in ``mask``, in ascending order."""
    return (cell for cell, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


@record
class Proposition(Value):
    """A subset of one space's cells: bit ``i`` of ``mask`` holds cell ``i``.

    Immutable: ``__init__`` fills the two slots through
    ``object.__setattr__``, and after it assigning or deleting any
    attribute, a field or another name, raises ``FrozenInstanceError`` (an
    ``AttributeError``) from :class:`~evidentia._value.Value`.  Two
    propositions are equal when they hold the same cells of the same space
    object."""

    __slots__ = ("space", "mask")

    space: PossibilitySpace
    mask: int

    def __init__(self, space, mask):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mask", mask)
        self.__post_init__()

    def __post_init__(self):
        if self.mask < 0 or self.mask.bit_length() > self.space._cells:
            raise ValueError("member ids fall outside the space")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which validates.
        return self.__class__, (self.space, self.mask)

    @property
    def members(self) -> frozenset[int]:
        """The cell ids, derived from ``mask``."""
        return frozenset(_cells(self.mask))

    @property
    def count(self) -> int:
        """The number of atoms in the cells held."""
        return self.space._count(self.mask)

    def __and__(self, other):
        if not isinstance(other, Proposition):
            return NotImplemented
        if other.space is not self.space:
            raise ValueError("propositions belong to different spaces")
        return Proposition(self.space, self.mask & other.mask)

    def __or__(self, other):
        if not isinstance(other, Proposition):
            return NotImplemented
        if other.space is not self.space:
            raise ValueError("propositions belong to different spaces")
        return Proposition(self.space, self.mask | other.mask)

    def __invert__(self):
        return Proposition(self.space, self.space._full ^ self.mask)

    def __repr__(self):
        body = ", ".join(map(str, islice(_cells(self.mask), 8)))
        cells = self.mask.bit_count()
        if cells > 8:
            body += f", ... ({cells} cells)"
        return f"Proposition({{{body}}})"


@record
class StateSpacePartition(Value):
    """Disjoint, exhaustive, named blocks of one space.

    Build through :func:`make_partition`, which validates the structure.
    """

    space: PossibilitySpace
    blocks: tuple[tuple[str, Proposition], ...]

    def __init__(self, space, blocks):
        attrs = self.__dict__
        attrs["space"] = space
        attrs["blocks"] = blocks


def _describe_atoms(space: PossibilitySpace, mask: int, limit: int = 3) -> str:
    shown = ["/".join(labels) for labels in space._first_atoms(mask, limit)]
    total = space._count(mask)
    if total > limit:
        shown.append(f"... ({total} total)")
    return ", ".join(shown)


def make_partition(
    space: PossibilitySpace, blocks: Iterable[tuple[str, Proposition]]
) -> StateSpacePartition:
    """Validate and freeze a grouping of the space into named blocks.

    Raises ``ValueError`` naming the offending blocks (overlap) or the
    uncovered atoms (non-exhaustiveness): the first three in row-major
    order and their total.
    """
    blocks = tuple(blocks)
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
                f"{_describe_atoms(space, clashes)}"
            )
        covered |= prop.mask
    if covered != space._full:
        raise ValueError(
            f"partition does not cover the space; uncovered: "
            f"{_describe_atoms(space, space._full ^ covered)}"
        )
    return StateSpacePartition(space, blocks)


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
