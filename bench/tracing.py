"""Spans and counters recorded from outside the program.

:meth:`Tracer.install` replaces the entry points of each layer with timing
and counting wrappers, patching every name where its caller looks it up
(``evidentia.cli.compile_model``, ``evidentia.dsl.compiler.make_partition``
and so on), and :meth:`Tracer.uninstall` puts the originals back.  A span
records its name, start, end, parent span and operation id in flat arrays
kept in memory; self times are computed from them when the run ends.

Families of calls that nest into themselves (recursive predicate lowering,
field operations built from other field operations, measures built from
measures) record only their outermost call, so each span is work the layer
was asked for from outside.
"""

from __future__ import annotations

import dataclasses
import json
import time
import tracemalloc
from array import array
from collections import Counter

SUITES = (
    "hyperrational_laws",
    "sum_rule",
    "additivity",
    "product_rule_exhaustive",
    "product_rule_random",
    "odds_reciprocity",
    "monotonicity",
    "scale_invariance",
    "oracle_equivalence",
)
QUERY_KINDS = ("P", "P_cond", "O", "L", "E", "table", "atomic")
FIELD_OPS = {
    "add": ("__add__", "__radd__"),
    "sub": ("__sub__", "__rsub__"),
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__", "__rtruediv__"),
    "cmp": ("__lt__", "__le__", "__gt__", "__ge__"),
    "str": ("__str__",),
}
FIELD_NAMES = tuple(FIELD_OPS) + ("parse", "approx")

# Per-layer metrics: (name, unit, better).  Times and counts are per
# operation of the workload; *_per_s entries are ratios of totals.
METRICS = (
    [
        ("lexer.s", "s", "lower"),
        ("lexer.tokens", "count", "lower"),
        ("lexer.tokens_per_s", "1/s", "higher"),
        ("parser.s", "s", "lower"),
        ("parser.nodes", "count", "lower"),
        ("parser.nodes_per_s", "1/s", "higher"),
        ("compiler.s", "s", "lower"),
        ("compiler.space_s", "s", "lower"),
        ("compiler.lower_s", "s", "lower"),
        ("compiler.lowerings", "count", "lower"),
        ("compiler.partition_s", "s", "lower"),
        ("compiler.alloc_peak_mb", "MB", "lower"),
        ("spaces.axis_s", "s", "lower"),
        ("spaces.axis_calls", "count", "lower"),
        ("spaces.setop_s", "s", "lower"),
        ("spaces.setops", "count", "lower"),
        ("spaces.cells", "count", "lower"),
        ("spaces.cells_per_lower_s", "1/s", "higher"),
        ("evidence.s", "s", "lower"),
        ("evidence.queries", "count", "lower"),
    ]
    + [(f"evidence.{kind}_s", "s", "lower") for kind in QUERY_KINDS]
    + [m for op in FIELD_NAMES for m in ((f"hyperrational.{op}_s", "s", "lower"), (f"hyperrational.{op}_n", "count", "lower"))]
    + [
        ("hyperrational.ops_per_s", "1/s", "higher"),
        ("oracle.s", "s", "lower"),
        ("oracle.calls", "count", "lower"),
        ("oracle.atoms", "count", "lower"),
        ("oracle.atoms_per_s", "1/s", "higher"),
    ]
    + [m for s in SUITES for m in ((f"suites.{s}_s", "s", "lower"), (f"suites.{s}_cases", "count", "higher"))]
    + [
        ("cli.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.out_bytes", "count", "lower"),
        ("cli.diagnostics", "count", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def _ast_nodes(value) -> int:
    """Syntax-tree nodes under ``value``: every dataclass except spans."""
    if isinstance(value, (tuple, list)):
        return sum(_ast_nodes(v) for v in value)
    if not dataclasses.is_dataclass(value) or type(value).__name__ == "SourceSpan":
        return 0
    return 1 + sum(_ast_nodes(getattr(value, f.name)) for f in dataclasses.fields(value))


def _declared_atoms(model) -> int:
    size = 1
    for decl in model.declarations:
        labels = getattr(decl, "labels", None)
        size *= len(labels) if labels is not None else (decl.tranches or 1)
    return size


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.compiled: dict[str, tuple] = {}  # model name -> (model, scaled)
        self._depth: Counter = Counter()
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.name.append(nid)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, owner, attr: str, name, group: str | None = None, after=None):
        """Replace ``owner.attr`` with a wrapper recording a span.  ``name``
        is a string or a function of the call's arguments; inside a call of
        the same ``group`` the original runs unrecorded."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = getattr(owner, attr)
        depth = self._depth

        def wrapper(*args, **kwargs):
            if group is not None and depth[group]:
                return original(*args, **kwargs)
            if group is not None:
                depth[group] += 1
            idx = self.begin(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                self.finish(idx)
                if group is not None:
                    depth[group] -= 1
            if after is not None:
                after(result, args, kwargs)
            return result

        if is_classmethod:
            replacement = classmethod(lambda cls, *a, **k: wrapper(*a, **k))
        else:
            replacement = wrapper
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def _count(self, key: str, amount=1):
        self.counts[key] += amount

    def install(self, evidentia):
        """Wrap the entry points of every layer of the imported package."""
        cli = evidentia.cli
        compiler = evidentia.dsl.compiler
        parser = evidentia.dsl.parser
        suites = evidentia.suites
        oracle = evidentia.oracle
        spaces = evidentia.spaces
        field = evidentia.hyperrational

        def parsed(model, args, kwargs):
            self._count("parser.nodes", _ast_nodes(model))

        def compiled(result, args, kwargs):
            model = args[0]
            scaled = kwargs.get("scaled", args[1] if len(args) > 1 else False)
            self.compiled[model.name] = (model, scaled)

        def lowered(result, args, kwargs):
            self._count("compiler.lowerings")

        self._wrap(parser, "tokenize", "lexer", after=lambda r, a, k: self._count("lexer.tokens", len(r[0])))
        for module in (cli, suites):
            self._wrap(module, "parse_model", "parser", after=parsed)
            self._wrap(module, "compile_model", "compiler", after=compiled)
        self._wrap(compiler, "_lower", "compiler.lower", group="lower", after=lowered)
        self._wrap(compiler, "make_partition", "compiler.partition")

        self._wrap(spaces.PossibilitySpace, "axis_proposition", "spaces.axis")
        for attr in ("__and__", "__or__", "__invert__"):
            self._wrap(spaces.Proposition, attr, "spaces.setop")
        post_init = spaces.Proposition.__post_init__

        def count_cells(prop):
            post_init(prop)
            self.counts["spaces.cells"] += len(prop.members)

        spaces.Proposition.__post_init__ = count_cells
        self._undo.append((spaces.Proposition, "__post_init__", post_init))

        self._wrap(compiler.PreparedQuery, "evaluate", lambda args: f"evidence.{args[0].kind}", group="evidence")
        for attr in ("evidence", "probability", "conditional_probability", "odds", "check_sum_rule", "check_product_rule"):
            self._wrap(suites, attr, "evidence.direct", group="evidence")

        for op, attrs in FIELD_OPS.items():
            for attr in attrs:
                self._wrap(field.Hyperrational, attr, f"hyperrational.{op}", group="field")
        self._wrap(field.Hyperrational, "parse", "hyperrational.parse", group="field")
        for module in (field, cli):
            self._wrap(module, "decimal_approximation", "hyperrational.approx", group="field")

        def enumerated(result, args, kwargs):
            self._count("oracle.atoms", oracle.atom_count(args[0]))

        for attr in ("probability", "conditional_probability"):
            self._wrap(oracle, attr, "oracle", after=enumerated)

        for short in SUITES:
            self._wrap(
                suites,
                f"{short}_suite",
                f"suites.{short}",
                after=lambda r, a, k, short=short: self._count(f"suites.{short}_cases", r.cases),
            )

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- probes outside the timed operations --------------------------------------

    def probe_compiles(self, evidentia) -> dict:
        """Compile each model seen once more with its partitions and queries
        stripped (space building alone), and the largest one in full under
        tracemalloc for its allocation peak."""
        compile_model = evidentia.dsl.compiler.compile_model
        ModelError = evidentia.dsl.diagnostics.ModelError
        space_times = []
        largest = None
        for model, scaled in self.compiled.values():
            bare = dataclasses.replace(model, partitions=(), queries=())
            start = time.perf_counter()
            try:
                compile_model(bare, scaled=scaled)
            except ModelError:
                continue
            space_times.append(time.perf_counter() - start)
            if largest is None or _declared_atoms(model) > _declared_atoms(largest[0]):
                largest = (model, scaled)
        peak = 0.0
        if largest is not None:
            tracemalloc.start()
            try:
                compile_model(largest[0], scaled=largest[1])
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            except ModelError:
                pass
            finally:
                tracemalloc.stop()
        return {
            "compiler.space_s": sum(space_times) / len(space_times) if space_times else 0.0,
            "compiler.alloc_peak_mb": peak,
        }

    # -- summary ------------------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        """Calls, inclusive and self time for every span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = table[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return table

    def metrics(self, ops: int, probes: dict, overhead: float, speed: float) -> dict[str, float]:
        """Every per-layer metric, per operation; zero where a layer did not
        run in this workload.  Times are multiplied by ``speed``, the run's
        factor from raw to reference seconds."""
        table = self.span_table()
        c = self.counts

        def total(name):
            return table.get(name, {}).get("total_s", 0.0)

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        def rate(amount, seconds):
            return amount / seconds if seconds else 0.0

        evidence_s = sum(row["total_s"] for name, row in table.items() if name.startswith("evidence."))
        field_s = sum(total(f"hyperrational.{op}") for op in FIELD_NAMES)
        field_n = sum(calls(f"hyperrational.{op}") for op in FIELD_NAMES)
        raw = {
            "lexer.s": table.get("lexer", {}).get("self_s", 0.0),
            "lexer.tokens": c["lexer.tokens"],
            "parser.s": table.get("parser", {}).get("self_s", 0.0),
            "parser.nodes": c["parser.nodes"],
            "compiler.s": total("compiler"),
            "compiler.lower_s": total("compiler.lower"),
            "compiler.lowerings": c["compiler.lowerings"],
            "compiler.partition_s": total("compiler.partition"),
            "spaces.axis_s": total("spaces.axis"),
            "spaces.axis_calls": calls("spaces.axis"),
            "spaces.setop_s": total("spaces.setop"),
            "spaces.setops": calls("spaces.setop"),
            "spaces.cells": c["spaces.cells"],
            "evidence.s": evidence_s,
            "evidence.queries": sum(calls(f"evidence.{k}") for k in QUERY_KINDS),
            "oracle.s": total("oracle"),
            "oracle.calls": calls("oracle"),
            "oracle.atoms": c["oracle.atoms"],
            "cli.s": total("cli"),
            "cli.self_s": table.get("cli", {}).get("self_s", 0.0),
            "cli.out_bytes": c["cli.out_bytes"],
            "cli.diagnostics": c["cli.diagnostics"],
        }
        for kind in QUERY_KINDS:
            raw[f"evidence.{kind}_s"] = total(f"evidence.{kind}")
        for op in FIELD_NAMES:
            raw[f"hyperrational.{op}_s"] = total(f"hyperrational.{op}")
            raw[f"hyperrational.{op}_n"] = calls(f"hyperrational.{op}")
        for short in SUITES:
            raw[f"suites.{short}_s"] = total(f"suites.{short}")
            raw[f"suites.{short}_cases"] = c[f"suites.{short}_cases"]
        units = dict((name, unit) for name, unit, _ in METRICS)
        for name in raw:
            if units[name] == "s":
                raw[name] *= speed
        out = {name: value / ops for name, value in raw.items()}
        out.update(probes)
        out["compiler.space_s"] *= speed
        out["lexer.tokens_per_s"] = rate(c["lexer.tokens"], raw["lexer.s"])
        out["parser.nodes_per_s"] = rate(c["parser.nodes"], raw["parser.s"])
        out["spaces.cells_per_lower_s"] = rate(c["spaces.cells"], raw["compiler.lower_s"])
        out["hyperrational.ops_per_s"] = rate(field_n, field_s * speed)
        out["oracle.atoms_per_s"] = rate(c["oracle.atoms"], raw["oracle.s"])
        out["trace.overhead"] = overhead
        return {name: float(out[name]) for name, _, _ in METRICS}

    def write(self, path, limit: int = 200_000):
        """Write the first ``limit`` spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(min(limit, len(self.start))):
                handle.write(
                    json.dumps(
                        {
                            "name": self.names[self.name[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "op": self.op[i],
                        }
                    )
                    + "\n"
                )
