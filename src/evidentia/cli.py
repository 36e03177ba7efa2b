"""Command-line interface: evaluate model files, dump their syntax trees,
and run the verification suites.

Exit codes: 0 success, 1 diagnostics or failed checks, 2 I/O problems or
usage errors.
The check seed resolves as --seed, then the EVIDENTIA_SEED environment
variable, then the recorded default.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .dsl.ast import dump_tree
from .dsl.compiler import UNDEFINED, compile_model
from .dsl.diagnostics import ModelError
from .dsl.parser import parse_model
from .evidence import LogOdds, Odds
from .hyperrational import MAX_DIGITS, MagnitudeClass, decimal_approximation

_APPROXIMABLE = (MagnitudeClass.APPRECIABLE, MagnitudeClass.ZERO)


def _record(query, result, digits: int) -> dict:
    """The output-v1 record of one query's result: a :class:`Hyperrational`,
    :class:`Odds`, :class:`LogOdds` or a table's ``(name, value)`` rows;
    only a table's record has ``blocks``."""
    approx = magnitude = blocks = None
    if isinstance(result, list):
        blocks = [
            {"name": name, "exact": str(value), "approx": decimal_approximation(value, digits)}
            for name, value in result
        ]
        exact = "; ".join(f"{b['name']}: {b['exact']}" for b in blocks)
    elif isinstance(result, Odds) and result.is_infinite:
        exact, magnitude = str(result), "infinite"
    elif isinstance(result, LogOdds):
        exact, approx, magnitude = str(result.odds), result.approx, str(result.odds.magnitude())
    else:
        value = result.ratio if isinstance(result, Odds) else result
        magnitude = value.magnitude()
        if magnitude in _APPROXIMABLE:
            approx = decimal_approximation(value, digits)
        exact, magnitude = str(value), str(magnitude)
    record = {
        "query": query.text,
        "kind": query.kind,
        "exact": exact,
        "approx": approx,
        "magnitude": magnitude,
        "provenance": query.provenance,
    }
    if blocks is not None:
        record["blocks"] = blocks
    return record


def _text_lines(record: dict) -> list[str]:
    tail = f"  [{record['provenance']}]"
    if record["kind"] == "table":
        lines = [record["query"] + tail]
        for block in record["blocks"]:
            lines.append(f"  {block['name']} = {block['exact']} ≈ {block['approx']}")
        return lines
    if record["kind"] == "L":
        head = f"{record['query']} = {record['approx']} (log of odds {record['exact']})"
    else:
        head = f"{record['query']} = {record['exact']}"
        if record["approx"] is not None:
            head += f" ≈ {record['approx']}"
        if record["magnitude"] in ("infinite", "infinitesimal"):
            head += f" ({record['magnitude']})"
    return [head + tail]


def _read_source(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = exc
    print(f"error: cannot read {path}: {reason}", file=sys.stderr)
    return None


def _load(path: str, build=lambda model: model):
    """``build`` applied to the model parsed from ``path``, and exit code 0;
    or, with the problem printed, ``None`` and exit code 2 when the file
    cannot be read, 1 when parsing or ``build`` raises a :class:`ModelError`."""
    source = _read_source(path)
    if source is None:
        return None, 2
    try:
        return build(parse_model(source, filename=path)), 0
    except ModelError as exc:
        print(exc.render(path), file=sys.stderr)
        return None, 1


def _cmd_eval(args) -> int:
    if args.digits > MAX_DIGITS:
        print(f"error: --digits must be at most {MAX_DIGITS}", file=sys.stderr)
        return 2
    compiled, code = _load(args.file, lambda model: compile_model(model, scaled=args.scaled))
    if code:
        return code
    records = []
    had_errors = False
    for query in compiled.queries:
        try:
            result = query.evaluate(args.digits)
        except UNDEFINED as exc:
            print(f"{args.file}: error: {query.text}: {exc}", file=sys.stderr)
            had_errors = True
            continue
        records.append(_record(query, result, args.digits))
    if args.format == "json":
        import json  # only here: text output, the default, never needs it

        print(json.dumps(records, indent=2, ensure_ascii=False))
    else:
        for record in records:
            for line in _text_lines(record):
                print(line)
    return 1 if had_errors else 0


def _resolve_seed(args, default: int) -> int | None:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("EVIDENTIA_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        print(f"error: EVIDENTIA_SEED must be an integer, got {raw!r}", file=sys.stderr)
        return None


def _cmd_check(args) -> int:
    from . import suites

    seed = _resolve_seed(args, suites.DEFAULT_SEED)
    if seed is None:
        return 1
    extra_models = []
    if args.file:
        # Refused as eval refuses it: every valid model compiles scaled.
        model, code = _load(args.file, lambda model: compile_model(model, scaled=True) and model)
        if code:
            return code
        extra_models.append((args.file, model))
    results = suites.run_all(seed=seed, instances=args.instances, extra_models=extra_models)
    if not results:
        print("warning: --instances 0 requested; nothing was checked")
    for result in results:
        print(result.summary())
    print(f"seed: {seed}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_parse(args) -> int:
    model, code = _load(args.file)
    if not code and args.dump_ast:
        print(dump_tree(model), end="")
    return code


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
        help=(
            "randomized cases per suite; also shrinks the exhaustive "
            "product-rule pass from 12 atoms to 8 (0 skips everything)"
        ),
    )
    cmd_check.set_defaults(run=_cmd_check)

    cmd_parse = sub.add_parser("parse", help="parse a model file and report problems")
    cmd_parse.add_argument("file", help="model file to parse")
    cmd_parse.add_argument(
        "--dump-ast", action="store_true", help="print the span-annotated syntax tree"
    )
    cmd_parse.set_defaults(run=_cmd_parse)
    return parser


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    # Built on the first main call, not at import, and shared by later
    # calls: parse_args keeps nothing between calls.
    return build_arg_parser()


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
