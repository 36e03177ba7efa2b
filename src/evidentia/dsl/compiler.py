"""Lowering from syntax to spaces, partitions and executable queries.

Labelled dimensions become axes directly, one cell per label.  A continuum
declares ``tranches`` equal half-open intervals between its endpoints, the
atoms of its axis, e.g. ``[44,45)``.  No predicate of a model can tell
apart two tranches between adjacent thresholds of its comparisons, and
under the counting measure a run of ``k`` such tranches carries ``k``
atoms.  So before it builds the space the compiler collects every
threshold on each continuum, from partition blocks and queries alike, cuts
the grid there and gives the axis one cell per run, labelled with the
run's bounds and weighted with its tranche count.  Work then follows the
runs, not the tranche count, while counts, cardinalities and every atom a
diagnostic names stay those of the tranches.  A continuum declared with
``tranches aleph`` asserts that the interval is infinitely subdivided; it
compiles to a single whole-interval cell, is only accepted in a scaled
compile (where the infinite interior is what ``aleph`` measures), and
cannot be cut by comparisons.

Predicates lower to member sets over whole cells.  An ordering comparison
resolves each tranche in full: a threshold on a tranche boundary is exact
(a bare boundary point weighs one atom, below tranche resolution), while a
threshold strictly inside a tranche is an error asking for a finer grid
rather than a silent approximation.  Lowered on its own against a compiled
space, a comparison whose threshold is not one of the space's cuts is an
error too.

Queries are lowered eagerly, so every predicate problem surfaces at compile
time; evaluation itself is deferred behind :class:`PreparedQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..evidence import (
    atomic_probability,
    conditional_probability,
    evidence,
    log_odds,
    odds,
    partition_distribution,
    probability,
)
from ..spaces import (
    Dimension,
    PossibilitySpace,
    Proposition,
    StateSpacePartition,
    grid_label,
    make_partition,
)
from . import ast
from .diagnostics import Diagnostic, ModelError, SourceSpan

DEFAULT_ATOM_LIMIT = 10**7

_PROVENANCE = {
    "P": "Theorem 4",
    "P_cond": "Theorem 5",
    "O": "Theorem 3",
    "L": "Theorem 3",
    "E": "Axiom 3",
    "table": "Theorem 4",
    "atomic": "Axiom 4",
}


class _LoweringError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        self.diagnostic = Diagnostic(message, span)
        super().__init__(message)


@dataclass(frozen=True)
class PreparedQuery:
    """One query, lowered and ready to run against its space."""

    text: str
    kind: str
    provenance: str
    _thunk: Callable[[int], object]

    def evaluate(self, digits: int = 6):
        """Run the query; ``digits`` only affects log-odds precision."""
        return self._thunk(digits)


@dataclass(frozen=True)
class CompiledModel:
    name: str
    space: PossibilitySpace
    partitions: dict[str, StateSpacePartition]
    queries: tuple[PreparedQuery, ...]


def _thresholds(pred: ast.Predicate | None, out: dict[str, set]) -> None:
    """Add each comparison threshold in ``pred`` to ``out[dimension]``."""
    if isinstance(pred, ast.Comparison):
        out.setdefault(pred.dimension, set()).add(pred.value)
    elif isinstance(pred, ast.NotPred):
        _thresholds(pred.operand, out)
    elif isinstance(pred, (ast.AndPred, ast.OrPred)):
        _thresholds(pred.left, out)
        _thresholds(pred.right, out)


def _position(low, width, n: int, value):
    # A threshold sits this many tranche widths above low, clamped to the
    # grid: a whole position is a cut between tranches, any other falls
    # inside tranche int(position).
    return min(max((value - low) / width, 0), n)


def _dimension(decl: ast.DimensionDecl | ast.ContinuumDecl, thresholds) -> Dimension:
    if isinstance(decl, ast.DimensionDecl):
        return Dimension(decl.name, decl.labels)
    count = decl.tranches or 1
    grid = (decl.low, (decl.high - decl.low) / count)
    cuts = {0, count}
    for value in thresholds:
        k = _position(*grid, count, value)
        if k == int(k):
            cuts.add(int(k))
    edges = sorted(cuts)
    runs = list(zip(edges, edges[1:]))
    labels = tuple(grid_label(grid, a, b) for a, b in runs)
    weights = None if len(runs) == count else tuple(b - a for a, b in runs)
    return Dimension(decl.name, labels, grid, weights)


def _comparison_indices(dim: Dimension, node: ast.Comparison) -> range:
    # Whole tranches only: tranches below the cut lie inside "x < t" /
    # "x <= t" and those from it on inside "x > t" / "x >= t" (a boundary
    # point is one atom, below tranche resolution).  A threshold inside a
    # tranche fits neither side.
    k = _position(*dim.grid, dim.size, node.value)
    i = int(k)
    if k != i:
        raise _LoweringError(
            f"threshold {node.value} splits tranche {dim.atom_label(i)} of "
            f"{dim.name!r}; rebuild with a finer tranche count",
            node.span,
        )
    j = dim.boundary(i)
    if j is None:
        raise _LoweringError(
            f"threshold {node.value} is not a cut of {dim.name!r} in this "
            "compiled space; compile the comparison as part of the model",
            node.span,
        )
    return range(j) if node.op in ("<", "<=") else range(j, len(dim.labels))


def lower_predicate(space: PossibilitySpace, pred: ast.Predicate) -> Proposition:
    """Turn a predicate tree into the subset of cells it denotes.

    Raises :class:`ModelError` when a comparison cannot be resolved to
    whole cells.
    """
    try:
        return _lower(space, pred)
    except _LoweringError as exc:
        raise ModelError([exc.diagnostic]) from None


def _lower(space: PossibilitySpace, pred: ast.Predicate) -> Proposition:
    if isinstance(pred, ast.TrueLiteral):
        return space.top
    if isinstance(pred, ast.FalseLiteral):
        return space.bottom
    if isinstance(pred, ast.NotPred):
        return ~_lower(space, pred.operand)
    if isinstance(pred, ast.AndPred):
        return _lower(space, pred.left) & _lower(space, pred.right)
    if isinstance(pred, ast.OrPred):
        return _lower(space, pred.left) | _lower(space, pred.right)
    if isinstance(pred, (ast.LabelIs, ast.LabelIn)):
        dim = _find_dimension(space, pred.dimension, pred.span)
        names = (pred.label,) if isinstance(pred, ast.LabelIs) else pred.labels
        index = dim.index
        for name in names:
            if name not in index:
                raise _LoweringError(
                    f"unknown label {name!r} for dimension {pred.dimension!r}",
                    pred.span,
                )
        return space.axis_proposition(pred.dimension, [index[name] for name in names])
    if isinstance(pred, ast.Comparison):
        dim = _find_dimension(space, pred.dimension, pred.span)
        if dim.grid is None:
            raise _LoweringError(
                f"{pred.dimension!r} has no numeric order to compare against",
                pred.span,
            )
        return space.axis_proposition(pred.dimension, _comparison_indices(dim, pred))
    raise TypeError(f"not a predicate node: {pred!r}")


def _find_dimension(space: PossibilitySpace, name: str, span: SourceSpan) -> Dimension:
    for dim in space.dimensions:
        if dim.name == name:
            return dim
    raise _LoweringError(f"unknown dimension {name!r}", span)


def compile_model(
    model: ast.Model,
    scaled: bool = False,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> CompiledModel:
    """Build the space the model implies and lower all of its queries.

    ``scaled`` switches the space to total cardinality ``aleph``; ratio
    queries answer identically either way, which is what the
    scale-invariance suite verifies.
    """
    diagnostics: list[Diagnostic] = []
    if not model.declarations:
        raise ModelError(
            [
                Diagnostic(
                    "empty model: declare at least one dimension or continuum",
                    model.span,
                )
            ]
        )
    # Count the atoms from the declarations alone: an over-limit model is
    # rejected before any of its tranches is built.
    size = 1
    for decl in model.declarations:
        if isinstance(decl, ast.DimensionDecl):
            size *= len(decl.labels)
        else:
            if decl.tranches is None and not scaled:
                diagnostics.append(
                    Diagnostic(
                        f"continuum {decl.name!r} with aleph tranches needs a "
                        "scaled space (--scaled): its cells are infinitely "
                        "subdivided",
                        decl.span,
                    )
                )
            size *= decl.tranches or 1
    if size > atom_limit:
        diagnostics.append(
            Diagnostic(
                f"model spans {size} atoms, above the limit of {atom_limit}; "
                "use coarser tranches or raise the limit",
                model.span,
            )
        )
    if diagnostics:
        raise ModelError(diagnostics)

    thresholds: dict[str, set] = {}
    for part in model.partitions:
        for block in part.blocks:
            _thresholds(block.predicate, thresholds)
    for query in model.queries:
        _thresholds(query.predicate, thresholds)
        _thresholds(query.given, thresholds)
    space = PossibilitySpace(
        [_dimension(d, thresholds.get(d.name, ())) for d in model.declarations],
        scaled=scaled,
    )

    partitions: dict[str, StateSpacePartition] = {}
    for part in model.partitions:
        blocks = []
        ok = True
        for block in part.blocks:
            try:
                blocks.append((block.name, _lower(space, block.predicate)))
            except _LoweringError as exc:
                diagnostics.append(exc.diagnostic)
                ok = False
        if not ok:
            continue
        try:
            partitions[part.name] = make_partition(space, blocks)
        except ValueError as exc:
            diagnostics.append(
                Diagnostic(f"partition {part.name!r}: {exc}", part.span)
            )

    queries: list[PreparedQuery] = []
    for query in model.queries:
        try:
            queries.append(_prepare(space, partitions, query))
        except _LoweringError as exc:
            diagnostics.append(exc.diagnostic)

    if diagnostics:
        raise ModelError(diagnostics)
    return CompiledModel(model.name, space, partitions, tuple(queries))


def _prepare(
    space: PossibilitySpace,
    partitions: dict[str, StateSpacePartition],
    query: ast.Query,
) -> PreparedQuery:
    text = ast.render_query(query)
    provenance = _PROVENANCE[query.kind]
    if query.kind == "atomic":
        thunk = lambda digits: atomic_probability(space)
    elif query.kind == "table":
        if query.partition not in partitions:
            raise _LoweringError(
                f"unknown or invalid partition {query.partition!r}", query.span
            )
        table = partitions[query.partition]
        thunk = lambda digits: partition_distribution(table)
    elif query.kind == "P_cond":
        prop = _lower(space, query.predicate)
        given = _lower(space, query.given)
        thunk = lambda digits, a=prop, b=given: conditional_probability(a, b)
    else:
        prop = _lower(space, query.predicate)
        if query.kind == "P":
            thunk = lambda digits, a=prop: probability(a)
        elif query.kind == "O":
            thunk = lambda digits, a=prop: odds(a)
        elif query.kind == "L":
            thunk = lambda digits, a=prop: log_odds(a, digits)
        else:  # E
            thunk = lambda digits, a=prop: evidence(a)
    return PreparedQuery(text, query.kind, provenance, thunk)
