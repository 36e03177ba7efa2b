"""Seeded model generator and answer checker for the eval workloads.

The generator writes `.evd` text and keeps its own description of every
dimension, predicate and query.  Expected answers are counted from that
description (see :func:`count`), never taken from the engine, and the
expected `evidentia eval` output is rendered from those counts.  Only the
generated text reaches the program.

Predicates are tuples:

* ``("is", d, i)``: dimension ``d`` has label index ``i``
* ``("in", d, (i, j, ...))``: label index in the tuple, in source order
* ``("cmp", d, op, t)``: continuum ``d`` compared with a threshold ``t``
  that lies on a tranche boundary
* ``("not", p)``, ``("and", p, q)``, ``("or", p, q)``
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
import random
import string
from dataclasses import dataclass, field
from fractions import Fraction

ATOM_LIMIT = 10**7  # the compiler's default limit, which atom-limit errors exceed

PROVENANCE = {
    "P": "Theorem 4",
    "P_cond": "Theorem 5",
    "O": "Theorem 3",
    "L": "Theorem 3",
    "E": "Axiom 3",
    "table": "Theorem 4",
    "atomic": "Axiom 4",
}
ERROR_KINDS = ("unknown_label", "threshold_split", "atom_limit")
WIDTHS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(2), Fraction(1, 10))  # tranche widths


@dataclass(frozen=True)
class LabelDim:
    name: str
    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Continuum:
    name: str
    low: Fraction
    width: Fraction
    tranches: int

    @property
    def size(self) -> int:
        return self.tranches

    def bounds(self, i: int) -> tuple[Fraction, Fraction]:
        lo = self.low + self.width * i
        return lo, lo + self.width


@dataclass
class Query:
    kind: str
    pred: tuple | None = None
    given: tuple | None = None
    counts: tuple[int, ...] = ()  # (count,), (|A and B|, |B|) or one per block


@dataclass
class Model:
    name: str
    dims: list
    partition: list[tuple[str, tuple]]  # (block name, predicate)
    queries: list[Query]
    scaled: bool
    json: bool
    error: str | None = None
    text: str = ""
    expected_stderr: str = ""  # the diagnostic an erroneous model must give; {path} is its file
    block_counts: list[int] = field(default_factory=list)

    @property
    def atoms(self) -> int:
        return math.prod(d.size for d in self.dims)


# -- rendering -------------------------------------------------------------------


def number_text(value: Fraction) -> str:
    """Shortest exact decimal; the grammar has no fractions or signs."""
    if value.denominator == 1:
        return str(value.numerator)
    places = 0
    while (value * 10**places).denominator != 1:
        places += 1
    digits = str((value * 10**places).numerator).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def render(pred: tuple, dims: list, parent: int = 0) -> str:
    """Canonical predicate text: the form the engine prints queries in."""
    kind = pred[0]
    if kind == "is":
        return f"{dims[pred[1]].name} == {dims[pred[1]].labels[pred[2]]}"
    if kind == "in":
        labels = dims[pred[1]].labels
        return f"{dims[pred[1]].name} in {{{', '.join(labels[i] for i in pred[2])}}}"
    if kind == "cmp":
        return f"{dims[pred[1]].name} {pred[2]} {number_text(pred[3])}"
    if kind == "not":
        text, level = f"not {render(pred[1], dims, 3)}", 3
    elif kind == "and":
        text, level = f"{render(pred[1], dims, 2)} and {render(pred[2], dims, 3)}", 2
    else:
        text, level = f"{render(pred[1], dims, 1)} or {render(pred[2], dims, 2)}", 1
    return f"({text})" if level < parent else text


def query_text(query: Query, dims: list) -> str:
    if query.kind == "atomic":
        return "atomic"
    if query.kind == "table":
        return "table(part)"
    if query.kind == "P_cond":
        return f"P({render(query.pred, dims)} | {render(query.given, dims)})"
    return f"{query.kind}({render(query.pred, dims)})"


def _label_lines(labels, per_line: int = 12) -> str:
    if len(labels) <= per_line:
        return ", ".join(labels)
    rows = [", ".join(labels[i : i + per_line]) for i in range(0, len(labels), per_line)]
    return "\n    " + ",\n    ".join(rows) + "\n  "


def model_source(model: Model) -> str:
    lines = [f'model "{model.name}" {{']
    for dim in model.dims:
        if isinstance(dim, LabelDim):
            lines.append(f"  dimension {dim.name} = {{{_label_lines(dim.labels)}}}")
        else:
            high = dim.low + dim.width * dim.tranches
            lines.append(
                f"  continuum {dim.name} from {number_text(dim.low)} to "
                f"{number_text(high)} tranches {dim.tranches}"
            )
    if model.partition:
        blocks = " ".join(f"{name}: {render(p, model.dims)};" for name, p in model.partition)
        lines.append(f"  partition part {{ {blocks} }}")
    lines.append("}")
    lines.extend(f"query {query_text(q, model.dims)}" for q in model.queries)
    return "\n".join(lines) + "\n"


# -- counting from structure -----------------------------------------------------------


def _leaves(pred: tuple, out: list):
    kind = pred[0]
    if kind in ("is", "in", "cmp"):
        out.append(pred)
    elif kind == "not":
        _leaves(pred[1], out)
    elif kind in ("and", "or"):
        _leaves(pred[1], out)
        _leaves(pred[2], out)


def _leaf_holds(leaf: tuple, index: int, dim) -> bool:
    kind = leaf[0]
    if kind == "is":
        return index == leaf[2]
    if kind == "in":
        return index in leaf[2]
    lo, hi = dim.bounds(index)
    return hi <= leaf[3] if leaf[2] in ("<", "<=") else lo >= leaf[3]


def _holds(pred: tuple, assign: dict, dims: list) -> bool:
    kind = pred[0]
    if kind == "not":
        return not _holds(pred[1], assign, dims)
    if kind == "and":
        return _holds(pred[1], assign, dims) and _holds(pred[2], assign, dims)
    if kind == "or":
        return _holds(pred[1], assign, dims) or _holds(pred[2], assign, dims)
    return _leaf_holds(pred, assign[pred[1]], dims[pred[1]])


def _classes(d: int, dim, leaves: list) -> list[tuple[int, int]]:
    """Split dimension ``d`` into runs of indices no leaf tells apart, as
    (representative index, size) pairs."""
    if isinstance(dim, Continuum):
        cuts = {0, dim.tranches}
        for leaf in leaves:
            cuts.add(int((leaf[3] - dim.low) / dim.width))
        edges = sorted(cuts)
        return [(a, b - a) for a, b in zip(edges, edges[1:])]
    mentioned = set()
    for leaf in leaves:
        mentioned.update((leaf[2],) if leaf[0] == "is" else leaf[2])
    groups: dict[tuple, list[int]] = {}
    for i in sorted(mentioned):
        sig = tuple(_leaf_holds(leaf, i, dim) for leaf in leaves)
        if sig in groups:
            groups[sig][1] += 1
        else:
            groups[sig] = [i, 1]
    rest = dim.size - len(mentioned)
    if rest:
        spare = next(i for i in range(dim.size) if i not in mentioned)
        sig = tuple(False for _ in leaves)
        if sig in groups:
            groups[sig][1] += rest
        else:
            groups[sig] = [spare, rest]
    return [tuple(g) for g in groups.values()]


def count(dims: list, preds: list[tuple]) -> list[int]:
    """Atoms satisfying each predicate, by enumerating the classes of
    indices the predicates can tell apart, weighted by class size."""
    leaves: list = []
    for pred in preds:
        _leaves(pred, leaves)
    by_dim: dict[int, list] = {}
    for leaf in leaves:
        by_dim.setdefault(leaf[1], []).append(leaf)
    free = math.prod(dims[d].size for d in range(len(dims)) if d not in by_dim)
    refs = sorted(by_dim)
    per_dim = [_classes(d, dims[d], by_dim[d]) for d in refs]
    counts = [0] * len(preds)
    for combo in itertools.product(*per_dim):
        assign = {d: rep for d, (rep, _) in zip(refs, combo)}
        weight = free * math.prod(size for _, size in combo)
        for k, pred in enumerate(preds):
            if _holds(pred, assign, dims):
                counts[k] += weight
    return counts


# -- predicate generation ----------------------------------------------------------------


# Predicate skeletons, "L" marking a leaf.  Each model cycles through a
# fixed list of them and through its dimensions in a fixed rotation, so its
# lowering work depends on its size, not on the luck of the draw; the seed
# picks the order, the labels and the thresholds.
L = ("L",)
SKELETONS = (
    L,
    ("not", L),
    ("and", L, L),
    ("or", L, L),
    ("or", ("and", L, L), L),
    ("not", ("or", L, L)),
    ("and", ("or", L, L), ("and", L, L)),
    ("and", ("or", ("and", L, L), L), ("not", L)),
)


def _depth(skeleton: tuple) -> int:
    return 0 if skeleton == L else 1 + max(_depth(part) for part in skeleton[1:])


class PredicateMaker:
    """Draws predicates of bounded depth over ``dims``; leaf ``k`` of the
    model tests dimension ``rotation[k % len(rotation)]``.  Comparisons cut
    the middle half of a continuum, and ``in`` sets hold ``in_size`` labels,
    or a third to two thirds of the dimension when ``in_size`` is None, so
    that leaf selectivities, and with them the sizes of the propositions
    built, vary little from seed to seed."""

    def __init__(self, rng: random.Random, dims: list, depth: int, rotation: list[int], in_size: tuple[int, int] | None):
        self.rng = rng
        self.dims = dims
        self.skeletons = [s for s in SKELETONS if _depth(s) <= depth]
        self.rotation = rotation
        self.in_size = in_size
        self.leaf_count = rng.randrange(len(rotation))
        self.tree_count = rng.randrange(len(self.skeletons))

    def leaf(self) -> tuple:
        rng, d = self.rng, self.rotation[self.leaf_count % len(self.rotation)]
        self.leaf_count += 1
        dim = self.dims[d]
        if isinstance(dim, Continuum):
            op = rng.choice(("<", "<=", ">", ">="))
            cut = rng.randint(max(1, dim.tranches // 4), max(1, 3 * dim.tranches // 4))
            return ("cmp", d, op, dim.low + dim.width * cut)
        if rng.random() < 0.3:
            return ("is", d, rng.randrange(dim.size))
        if self.in_size is None:
            low, high = max(1, dim.size // 3), max(1, 2 * dim.size // 3)
        else:
            low, high = (min(n, dim.size) for n in self.in_size)
        return ("in", d, tuple(rng.sample(range(dim.size), rng.randint(low, high))))

    def fill(self, skeleton: tuple) -> tuple:
        if skeleton == L:
            return self.leaf()
        return (skeleton[0],) + tuple(self.fill(part) for part in skeleton[1:])

    def __call__(self) -> tuple:
        skeleton = self.skeletons[self.tree_count % len(self.skeletons)]
        self.tree_count += 1
        return self.fill(skeleton)


def _kind_counts(mix: dict[str, float], total: int) -> list[str]:
    kinds = []
    for kind, weight in mix.items():
        kinds.extend([kind] * int(weight * total))
    kinds.extend(["P"] * (total - len(kinds)))
    return kinds


def _queries(make: PredicateMaker, kinds: list[str]) -> list[Query]:
    """Queries of the given kinds, each redrawn until it is defined: L needs
    0 < E(A) < E(T) and P( | B) needs E(B) > 0."""
    dims = make.dims
    total = math.prod(d.size for d in dims)
    out = []
    for kind in kinds:
        if kind in ("table", "atomic"):
            out.append(Query(kind))
            continue
        while True:
            pred = make()
            if kind == "P_cond":
                given = make()
                both, ref = count(dims, [("and", pred, given), given])
                if ref:
                    out.append(Query(kind, pred, given, (both, ref)))
                    break
                continue
            (hits,) = count(dims, [pred])
            if kind != "L" or 0 < hits < total:
                out.append(Query(kind, pred, None, (hits,)))
                break
    return out


def _partition(rng: random.Random, dims: list, d: int, blocks: int) -> list[tuple[str, tuple]]:
    """Blocks cutting dimension ``d`` into consecutive runs; the last block
    is written as the negation of the others where that stays short."""
    dim = dims[d]
    cuts = sorted(rng.sample(range(1, dim.size), min(blocks, dim.size) - 1))
    edges = [0] + cuts + [dim.size]
    out = []
    for b, (lo, hi) in enumerate(zip(edges, edges[1:])):
        if isinstance(dim, Continuum):
            parts = []
            if lo > 0:
                parts.append(("cmp", d, ">=", dim.low + dim.width * lo))
            if hi < dim.size:
                parts.append(("cmp", d, "<", dim.low + dim.width * hi))
            pred = parts[0] if len(parts) == 1 else ("and", parts[0], parts[1])
        elif hi - lo == 1:
            pred = ("is", d, lo)
        else:
            pred = ("in", d, tuple(range(lo, hi)))
        out.append((f"b{b}", pred))
    if not isinstance(dim, Continuum) and len(out) > 1 and dim.size - edges[-2] > edges[-2]:
        out[-1] = (out[-1][0], ("not", ("in", d, tuple(range(edges[-2])))))
    return out


def _words(rng: random.Random, n: int) -> tuple[str, ...]:
    """Distinct identifier labels; the digit in second place keeps every
    label clear of the language's keywords."""
    seen: set[str] = set()
    out = []
    while len(out) < n:
        word = (
            rng.choice(string.ascii_lowercase)
            + rng.choice(string.digits)
            + "".join(rng.choices(string.ascii_lowercase + string.digits, k=rng.randint(3, 7)))
        )
        if word not in seen:
            seen.add(word)
            out.append(word)
    return tuple(out)


def _continuum(rng: random.Random, name: str, tranches: int) -> Continuum:
    width = rng.choice(WIDTHS)
    return Continuum(name, Fraction(rng.randint(0, 100)), width, tranches)


# -- workload models ----------------------------------------------------------------------

LARGE_MIX = {"P": 0.3, "P_cond": 0.2, "O": 0.15, "E": 0.15, "L": 0.1, "table": 0.05, "atomic": 0.05}
WIDE_MIX = {"P": 0.35, "P_cond": 0.15, "O": 0.15, "E": 0.15, "L": 0.1, "table": 0.05, "atomic": 0.05}


def large_model(rng: random.Random, name: str, atoms: int, tranches: int, queries: int, variant: int) -> Model:
    """2-3 dimensions, one a continuum of ``tranches`` tranches, a
    partition and ``queries`` queries of depth up to 3; finite compile, text
    output.  ``variant`` fixes the choices that change what a model costs
    (dimension count, tranche width, which dimension the partition cuts and
    into how many blocks), so that a stratum costs about the same whatever
    the seed."""
    rest = max(2, round(atoms / tranches))
    if variant % 2 and rest >= 8:
        first = max(2, math.isqrt(rest) // 2)
        sizes = [first, max(2, round(rest / first))]
    else:
        sizes = [rest]
    dims: list = [LabelDim(f"d{k}", tuple(f"a{i}" for i in range(size))) for k, size in enumerate(sizes)]
    at = variant % (len(dims) + 1)
    dims.insert(at, Continuum("x", Fraction(rng.randint(0, 100)), WIDTHS[variant % len(WIDTHS)], tranches))
    cut = at if variant % 2 == 0 else (1 if at == 0 else 0)
    partition = _partition(rng, dims, cut, 3 + variant % 4)
    kinds = _kind_counts(LARGE_MIX, queries)
    rng.shuffle(kinds)
    model = Model(name, dims, partition, _queries(PredicateMaker(rng, dims, 3, list(range(len(dims))), None), kinds), False, False)
    return _finish(model)


def wide_model(
    rng: random.Random,
    name: str,
    labels: int,
    queries: int,
    scaled: bool,
    as_json: bool,
    error: str | None = None,
) -> Model:
    """Small space (at most 10^3 atoms), long source: ``labels`` labels on
    one dimension and ``queries`` queries with large ``in`` sets."""
    dims: list = [LabelDim("tag", _words(rng, labels))]
    dims.append(_continuum(rng, "level", 3))
    if labels * 6 <= 1000 and rng.random() < 0.5:
        dims.append(LabelDim("side", ("left", "right")))
    partition = _partition(rng, dims, 0, rng.randint(3, 6))
    rotation = [0, 0, 1, 0] + ([2] if len(dims) == 3 else [])
    kinds = _kind_counts(WIDE_MIX, queries)
    rng.shuffle(kinds)
    model = Model(name, dims, partition, _queries(PredicateMaker(rng, dims, 2, rotation, (10, 60)), kinds), scaled, as_json)
    model.error = error
    return _finish(model, rng)


def _finish(model: Model, rng: random.Random | None = None) -> Model:
    model.block_counts = count(model.dims, [p for _, p in model.partition])
    if model.error == "atom_limit":
        # Two continua of >= 5000 tranches each push the product past the
        # limit; the compiler must refuse the model.
        for k in range(2):
            model.dims.append(_continuum(rng, f"fine{k}", rng.randint(5000, 6000)))
        model.expected_stderr = (
            f"{{path}}:1:1: error: model spans {model.atoms} atoms, above the limit of "
            f"{ATOM_LIMIT}; use coarser tranches or raise the limit\n"
        )
    model.text = model_source(model)
    if model.error == "unknown_label":
        model.text = _inject_unknown_label(rng, model)
    elif model.error == "threshold_split":
        model.text = _inject_split(rng, model)
    return model


def _inject_unknown_label(rng: random.Random, model: Model) -> str:
    lines = model.text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("query P("))
    bad = "zz" + "".join(rng.choices(string.digits, k=6))
    line = lines[row].replace("query P(", f"query P(tag == {bad} or ", 1)
    lines[row] = line
    column = line.index(bad) + 1
    model.expected_stderr = f"{{path}}:{row + 1}:{column}: error: unknown label {bad!r} for dimension 'tag'\n"
    return "\n".join(lines)


def _inject_split(rng: random.Random, model: Model) -> str:
    d = next(i for i, dim in enumerate(model.dims) if isinstance(dim, Continuum))
    dim = model.dims[d]
    i = rng.randrange(dim.tranches)
    lo, hi = dim.bounds(i)
    threshold = (lo + hi) / 2
    op = rng.choice(("<", "<=", ">", ">="))
    lines = model.text.rstrip("\n").split("\n")
    lines.append(f"query P({dim.name} {op} {number_text(threshold)})")
    message = (
        f"threshold {threshold} splits tranche [{fraction_text(lo)},{fraction_text(hi)}) "
        f"of {dim.name!r}; rebuild with a finer tranche count"
    )
    model.expected_stderr = f"{{path}}:{len(lines)}:9: error: {message}\n"
    return "\n".join(lines) + "\n"


# -- expected output ---------------------------------------------------------------------


def approx_text(value: Fraction, digits: int = 6) -> str:
    """Half-even decimal rounding of an exact rational, by the procedure the
    output format documents."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + len(str(abs(value.numerator))) + 5
        quotient = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        rounded = quotient.quantize(decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN)
    return format(abs(rounded) if not rounded else rounded, "f")


def log_text(value: Fraction, digits: int = 6) -> str:
    p, q = value.numerator, value.denominator
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 20 + len(str(len(str(p)) + len(str(q))))
        result = decimal.Decimal(p).ln() - decimal.Decimal(q).ln()
        rounded = result.quantize(decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN)
    return format(abs(rounded) if not rounded else rounded, "f")


def _aleph_multiple(value: Fraction) -> str:
    p, q = value.numerator, value.denominator
    head = "aleph" if p == 1 else f"{p}*aleph"
    return head if q == 1 else f"{head}/{q}"


def _ratio(value: Fraction) -> tuple[str, str, str]:
    return fraction_text(value), approx_text(value), "appreciable" if value else "zero"


def expected_records(model: Model) -> list[dict]:
    """The records `evidentia eval --format json` must print, built from the
    generator's counts."""
    total = model.atoms
    records = []
    for query in model.queries:
        kind = query.kind
        blocks = None
        if kind == "P":
            exact, approx, magnitude = _ratio(Fraction(query.counts[0], total))
        elif kind == "P_cond":
            exact, approx, magnitude = _ratio(Fraction(*query.counts))
        elif kind == "O":
            hits = query.counts[0]
            if hits == total:
                exact, approx, magnitude = "infinite-odds", None, "infinite"
            else:
                exact, approx, magnitude = _ratio(Fraction(hits, total - hits))
        elif kind == "L":
            odds = Fraction(query.counts[0], total - query.counts[0])
            exact, approx, magnitude = fraction_text(odds), log_text(odds), "appreciable"
        elif kind == "E":
            hits = query.counts[0]
            if model.scaled and hits:
                exact, approx, magnitude = _aleph_multiple(Fraction(hits, total)), None, "infinite"
            else:
                exact, approx, magnitude = _ratio(Fraction(hits))
        elif kind == "atomic":
            if model.scaled:
                exact, approx, magnitude = "1/aleph", None, "infinitesimal"
            else:
                exact, approx, magnitude = _ratio(Fraction(1, total))
        else:  # table
            blocks = [
                {"name": name, "exact": fraction_text(Fraction(c, total)), "approx": approx_text(Fraction(c, total))}
                for (name, _), c in zip(model.partition, model.block_counts)
            ]
            exact = "; ".join(f"{b['name']}: {b['exact']}" for b in blocks)
            approx = magnitude = None
        record = {
            "query": query_text(query, model.dims),
            "kind": kind,
            "exact": exact,
            "approx": approx,
            "magnitude": magnitude,
            "provenance": PROVENANCE[kind],
        }
        if blocks is not None:
            record["blocks"] = blocks
        records.append(record)
    return records


def text_output(records: list[dict]) -> str:
    lines = []
    for r in records:
        if r["kind"] == "table":
            lines.append(f"{r['query']}  [{r['provenance']}]")
            lines.extend(f"  {b['name']} = {b['exact']} ≈ {b['approx']}" for b in r["blocks"])
            continue
        if r["kind"] == "L":
            head = f"{r['query']} = {r['approx']} (log of odds {r['exact']})"
        else:
            head = f"{r['query']} = {r['exact']}"
            if r["approx"] is not None:
                head += f" ≈ {r['approx']}"
            if r["magnitude"] in ("infinite", "infinitesimal"):
                head += f" ({r['magnitude']})"
        lines.append(f"{head}  [{r['provenance']}]")
    return "".join(line + "\n" for line in lines)


def expectation(model: Model, path: str) -> tuple[int, str | list, str]:
    """(exit code, stdout, stderr) that a correct `eval` of ``model`` gives.
    For JSON output the stdout entry is the decoded record list."""
    if model.error:
        return 1, "", model.expected_stderr.format(path=path)
    records = expected_records(model)
    return 0, (records if model.json else text_output(records)), ""


def mismatch(model: Model, path: str, code, out: str, err: str) -> str | None:
    """None when one `eval` run printed exactly what it should."""
    want_code, want_out, want_err = expectation(model, path)
    if code != want_code:
        return f"{model.name}: exit {code!r}, expected {want_code}: {err.strip()[-300:]}"
    if err != want_err:
        return f"{model.name}: stderr {err.strip()[:200]!r}, expected {want_err.strip()!r}"
    if model.json and not model.error:
        try:
            got = json.loads(out)
        except ValueError:
            return f"{model.name}: stdout is not JSON"
        if got != want_out:
            bad = next((i for i, (a, b) in enumerate(zip(got, want_out)) if a != b), min(len(got), len(want_out)))
            return f"{model.name}: record {bad} differs"
    elif out != want_out:
        got_lines, want_lines = out.splitlines(), want_out.splitlines()
        bad = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), None)
        if bad is None:
            return f"{model.name}: {len(got_lines)} output lines, expected {len(want_lines)}"
        return f"{model.name}: line {bad + 1} is {got_lines[bad]!r}, expected {want_lines[bad]!r}"
    return None


# -- cross-check of the structural counts with the enumeration oracle -----------------------


def oracle_view(model: Model):
    """Dimensions and a predicate compiler in the shape `evidentia.oracle`
    takes: label assignments, tranches named by their index."""
    dims = []
    for dim in model.dims:
        if isinstance(dim, LabelDim):
            dims.append((dim.name, dim.labels))
        else:
            dims.append((dim.name, tuple(str(i) for i in range(dim.tranches))))
    index = {
        dim.name: {label: i for i, label in enumerate(dim.labels)}
        for dim in model.dims
        if isinstance(dim, LabelDim)
    }

    def compile_pred(pred: tuple):
        kind = pred[0]
        if kind == "not":
            inner = compile_pred(pred[1])
            return lambda atom: not inner(atom)
        if kind in ("and", "or"):
            left, right = compile_pred(pred[1]), compile_pred(pred[2])
            if kind == "and":
                return lambda atom: left(atom) and right(atom)
            return lambda atom: left(atom) or right(atom)
        dim = model.dims[pred[1]]
        if kind == "cmp":
            return lambda atom: _leaf_holds(pred, int(atom[dim.name]), dim)
        table = index[dim.name]
        return lambda atom: _leaf_holds(pred, table[atom[dim.name]], dim)

    return dims, compile_pred


def oracle_disagreements(oracle, model: Model, every: int) -> list[str]:
    """Recount every ``every``-th query and every partition block by brute
    enumeration and report where the structural counts differ."""
    dims, compile_pred = oracle_view(model)
    total = model.atoms
    problems = []
    for k, query in enumerate(model.queries):
        if k % every or query.pred is None:
            continue
        if query.kind == "P_cond":
            got = oracle.conditional_probability(dims, compile_pred(query.pred), compile_pred(query.given))
            want = Fraction(*query.counts)
        else:
            got = oracle.probability(dims, compile_pred(query.pred))
            want = Fraction(query.counts[0], total)
        if got != want:
            problems.append(f"{model.name}: query {k}: oracle {got}, counted {want}")
    for (name, pred), c in zip(model.partition, model.block_counts):
        got = oracle.probability(dims, compile_pred(pred))
        if got != Fraction(c, total):
            problems.append(f"{model.name}: block {name}: oracle {got}, counted {Fraction(c, total)}")
    return problems
