"""Command-line interface: evaluate model files, dump their syntax trees,
and run the verification suites.

Exit codes: 0 success, 1 diagnostics or failed checks, 2 I/O problems or
usage errors.
The check seed resolves as --seed, then the EVIDENTIA_SEED environment
variable, then the recorded default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import suites
from .dsl.ast import dump_tree
from .dsl.compiler import CompiledModel, compile_model
from .dsl.diagnostics import ModelError
from .dsl.parser import parse_model
from .evidence import LogOdds, Odds
from .hyperrational import Hyperrational, MagnitudeClass, decimal_approximation

_APPROXIMABLE = (MagnitudeClass.APPRECIABLE, MagnitudeClass.ZERO)
#: Largest ``--digits``; the time of an ``L`` query grows faster than this.
MAX_DIGITS = 1000


@dataclass
class OutputRecord:
    query: str
    kind: str
    exact: str
    approx: str | None
    magnitude: str | None
    provenance: str
    blocks: list[dict[str, str]] | None = None

    def to_json(self) -> dict:
        payload = {
            "query": self.query,
            "kind": self.kind,
            "exact": self.exact,
            "approx": self.approx,
            "magnitude": self.magnitude,
            "provenance": self.provenance,
        }
        if self.blocks is not None:
            payload["blocks"] = self.blocks
        return payload


def _scalar(value: Hyperrational, digits: int):
    magnitude = value.magnitude()
    approx = (
        decimal_approximation(value, digits) if magnitude in _APPROXIMABLE else None
    )
    return str(value), approx, str(magnitude)


def _record(query, result, digits: int) -> OutputRecord:
    if isinstance(result, Hyperrational):
        exact, approx, magnitude = _scalar(result, digits)
        return OutputRecord(query.text, query.kind, exact, approx, magnitude, query.provenance)
    if isinstance(result, Odds):
        if result.is_infinite:
            return OutputRecord(
                query.text, query.kind, "infinite-odds", None, "infinite", query.provenance
            )
        exact, approx, magnitude = _scalar(result.ratio, digits)
        return OutputRecord(query.text, query.kind, exact, approx, magnitude, query.provenance)
    if isinstance(result, LogOdds):
        return OutputRecord(
            query.text,
            query.kind,
            str(result.odds),
            result.approx,
            str(result.odds.magnitude()),
            query.provenance,
        )
    if isinstance(result, list):  # table rows
        blocks = []
        for name, value in result:
            blocks.append(
                {
                    "name": name,
                    "exact": str(value),
                    "approx": decimal_approximation(value, digits),
                }
            )
        joined = "; ".join(f"{b['name']}: {b['exact']}" for b in blocks)
        return OutputRecord(
            query.text, query.kind, joined, None, None, query.provenance, blocks
        )
    raise TypeError(f"unexpected query result {result!r}")


def _text_lines(record: OutputRecord) -> list[str]:
    if record.kind == "table":
        lines = [f"{record.query}  [{record.provenance}]"]
        for block in record.blocks or []:
            lines.append(f"  {block['name']} = {block['exact']} ≈ {block['approx']}")
        return lines
    if record.kind == "L":
        head = f"{record.query} = {record.approx} (log of odds {record.exact})"
    else:
        head = f"{record.query} = {record.exact}"
        if record.approx is not None:
            head += f" ≈ {record.approx}"
        if record.magnitude in ("infinite", "infinitesimal"):
            head += f" ({record.magnitude})"
    return [f"{head}  [{record.provenance}]"]


def _read_source(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = exc
    print(f"error: cannot read {path}: {reason}", file=sys.stderr)
    return None


def _load_compiled(path: str, scaled: bool) -> CompiledModel | None:
    source = _read_source(path)
    if source is None:
        return None
    model = parse_model(source, filename=path)
    return compile_model(model, scaled=scaled)


def _cmd_eval(args) -> int:
    if args.digits > MAX_DIGITS:
        print(f"error: --digits must be at most {MAX_DIGITS}", file=sys.stderr)
        return 2
    try:
        compiled = _load_compiled(args.file, args.scaled)
    except ModelError as exc:
        print(exc.render(args.file), file=sys.stderr)
        return 1
    if compiled is None:
        return 2
    records = []
    had_errors = False
    for query in compiled.queries:
        try:
            result = query.evaluate(args.digits)
        except (ZeroDivisionError, ValueError) as exc:
            print(f"{args.file}: error: {query.text}: {exc}", file=sys.stderr)
            had_errors = True
            continue
        records.append(_record(query, result, args.digits))
    if args.format == "json":
        print(json.dumps([r.to_json() for r in records], indent=2, ensure_ascii=False))
    else:
        for record in records:
            for line in _text_lines(record):
                print(line)
    return 1 if had_errors else 0


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("EVIDENTIA_SEED")
    if raw is None:
        return suites.DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        print(f"error: EVIDENTIA_SEED must be an integer, got {raw!r}", file=sys.stderr)
        return None


def _cmd_check(args) -> int:
    seed = _resolve_seed(args)
    if seed is None:
        return 1
    extra_models = []
    if args.file:
        try:
            source = _read_source(args.file)
            if source is None:
                return 2
            extra_models.append((args.file, parse_model(source, filename=args.file)))
        except ModelError as exc:
            print(exc.render(args.file), file=sys.stderr)
            return 1
    if args.instances == 0:
        print("warning: --instances 0 requested; nothing was checked")
        print(f"seed: {seed}")
        return 0
    results = suites.run_all(seed=seed, instances=args.instances, extra_models=extra_models)
    for result in results:
        print(result.summary())
    print(f"seed: {seed}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_parse(args) -> int:
    source = _read_source(args.file)
    if source is None:
        return 2
    try:
        model = parse_model(source, filename=args.file)
    except ModelError as exc:
        print(exc.render(args.file), file=sys.stderr)
        return 1
    if args.dump_ast:
        print(dump_tree(model), end="")
    return 0


def non_negative_int(text: str) -> int:
    """Argument type for counts: argparse reports a ValueError as a usage error."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidentia",
        description="Exact evidence calculus over declared possibility spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd_eval = sub.add_parser("eval", help="evaluate the queries of a model file")
    cmd_eval.add_argument("file", help="model file to evaluate")
    cmd_eval.add_argument(
        "--scaled",
        action="store_true",
        help="give the space the infinite total cardinality aleph",
    )
    cmd_eval.add_argument(
        "--digits",
        type=non_negative_int,
        default=6,
        help=f"decimal digits for approximations (0 to {MAX_DIGITS})",
    )
    cmd_eval.add_argument("--format", choices=("text", "json"), default="text")
    cmd_eval.set_defaults(run=_cmd_eval)

    cmd_check = sub.add_parser(
        "check", help="run the verification suites (optionally over an extra model)"
    )
    cmd_check.add_argument("file", nargs="?", help="extra model file to include")
    cmd_check.add_argument("--seed", type=int, default=None, help="random seed")
    cmd_check.add_argument(
        "--instances",
        type=non_negative_int,
        default=None,
        help="randomized cases per suite (0 skips everything)",
    )
    cmd_check.set_defaults(run=_cmd_check)

    cmd_parse = sub.add_parser("parse", help="parse a model file and report problems")
    cmd_parse.add_argument("file", help="model file to parse")
    cmd_parse.add_argument(
        "--dump-ast", action="store_true", help="print the span-annotated syntax tree"
    )
    cmd_parse.set_defaults(run=_cmd_parse)
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
