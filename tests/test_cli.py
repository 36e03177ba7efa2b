"""Tests for the command-line interface: golden outputs, JSON schema
validation, exit codes, and seed handling."""

import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import evidentia
from evidentia import Hyperrational, cli, fixtures
from evidentia.cli import build_arg_parser, main

DATA = Path(__file__).parent / "data"


@pytest.fixture
def fixture_path(tmp_path):
    def materialise(name: str) -> str:
        target = tmp_path / f"{name}.evd"
        target.write_text(fixtures.source(name), encoding="utf-8")
        return str(target)

    return materialise


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- python -m evidentia --------------------------------------------------------


@pytest.mark.parametrize("name, flags", [("deck", []), ("coin", ["--scaled"])])
def test_python_dash_m_runs_the_cli(capsys, fixture_path, name, flags):
    argv = ["eval", fixture_path(name), *flags]
    package_root = str(Path(evidentia.__file__).resolve().parent.parent)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
        PYTHONIOENCODING="utf-8",
    )
    done = subprocess.run(
        [sys.executable, "-m", "evidentia", *argv], capture_output=True, env=env, timeout=60
    )
    code, out, err = run(capsys, *argv)
    assert (done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")) == (
        code, out, err,
    )
    assert code == 0 and out


# -- eval -----------------------------------------------------------------------


def test_eval_deck_matches_golden(capsys, fixture_path):
    code, out, err = run(capsys, "eval", fixture_path("deck"))
    assert code == 0 and err == ""
    assert out == (DATA / "deck_eval.txt").read_text(encoding="utf-8")
    assert "P(rank == A) = 1/13 ≈ 0.076923" in out


def test_eval_scaled_coin_matches_golden(capsys, fixture_path):
    code, out, err = run(capsys, "eval", fixture_path("coin"), "--scaled")
    assert code == 0 and err == ""
    assert out == (DATA / "coin_eval_scaled.txt").read_text(encoding="utf-8")
    assert "E(face == H) = aleph/2" in out
    assert "E(true) = aleph" in out
    assert "1/aleph (infinitesimal)" in out


@pytest.mark.parametrize("name", ["coin", "deck", "dice", "quadrant", "quadrant_q"])
@pytest.mark.parametrize(
    "suffix, flags",
    [
        ("_eval.txt", []),
        ("_eval_scaled.txt", ["--scaled"]),
        ("_eval.json", ["--format", "json"]),
        ("_eval_scaled.json", ["--scaled", "--format", "json"]),
    ],
)
def test_eval_every_fixture_matches_golden(capsys, fixture_path, name, suffix, flags):
    code, out, err = run(capsys, "eval", fixture_path(name), *flags)
    assert (code, err) == (0, "")
    assert out == (DATA / f"{name}{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "golden, flags",
    [
        ("records_eval.txt", []),
        ("records_eval_scaled.txt", ["--scaled"]),
        ("records_eval.json", ["--format", "json"]),
        ("records_eval_scaled.json", ["--scaled", "--format", "json"]),
    ],
)
def test_eval_every_record_shape_matches_golden(capsys, golden, flags):
    # Infinite and zero odds, a log of odds, E, atomic, a conditional and a
    # table; scaled, E(true) is infinite and atomic infinitesimal.  L(false)
    # fails to evaluate, which is reported and makes the exit code 1.
    path = str(DATA / "records.evd")
    code, out, err = run(capsys, "eval", path, *flags)
    assert out == (DATA / golden).read_text(encoding="utf-8")
    assert err == f"{path}: error: L(false): log-odds undefined: the proposition has zero evidence\n"
    assert code == 1


def test_eval_json_validates_against_shipped_schema(capsys, fixture_path):
    schema = json.loads(
        (resources.files("evidentia") / "schema" / "output-v1.schema.json").read_text()
    )
    for name in fixtures.names():
        for flags in ([], ["--scaled"]):
            code, out, _ = run(
                capsys, "eval", fixture_path(name), "--format", "json", *flags
            )
            assert code == 0
            records = json.loads(out)
            jsonschema.validate(records, schema)


def test_eval_text_and_json_report_identical_exact_values(capsys, fixture_path):
    path = fixture_path("deck")
    _, json_out, _ = run(capsys, "eval", path, "--format", "json")
    _, text_out, _ = run(capsys, "eval", path, "--format", "text")
    for record in json.loads(json_out):
        if record["kind"] == "table":
            for block in record["blocks"]:
                assert f"{block['name']} = {block['exact']}" in text_out
        else:
            assert f"{record['query']} = {record['exact']}" in text_out


def test_eval_exact_values_reparse(capsys, fixture_path):
    for name in fixtures.names():
        _, out, _ = run(capsys, "eval", fixture_path(name), "--format", "json", "--scaled")
        for record in json.loads(out):
            if record["kind"] == "table":
                for block in record["blocks"]:
                    Hyperrational.parse(block["exact"])
            elif record["exact"] != "infinite-odds":
                Hyperrational.parse(record["exact"])


def test_eval_digits_flag(capsys, fixture_path):
    code, out, _ = run(capsys, "eval", fixture_path("deck"), "--digits", "2")
    assert code == 0
    assert "P(rank == A) = 1/13 ≈ 0.08" in out


@pytest.mark.parametrize("command, flag", [("eval", "--digits"), ("check", "--instances")])
def test_negative_count_flag_is_a_usage_error(capsys, fixture_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, fixture_path("coin"), flag, "-1"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid non_negative_int value: '-1'" in capsys.readouterr().err


def test_digits_above_the_bound_is_a_usage_error(capsys, tmp_path):
    model = tmp_path / "m.evd"
    model.write_text('model "x" { dimension r = {A, B, C} }\nquery L(r == A)')
    code, out, err = run(capsys, "eval", str(model), "--digits", "1001")
    assert code == 2 and out == ""
    assert "--digits must be at most 1000" in err
    code, out, _ = run(capsys, "eval", str(model), "--digits", "1000")
    assert code == 0
    assert out.startswith("L(r == A) = -0.693147180559945309417232121458176568075500134")
    assert len(out.split(" = ")[1].split(" ")[0]) == len("-0.") + 1000


# Each form with the column where its 101st level starts, or None for a
# chain, which is one level however many terms it has.
DEEP_FORMS = {
    "parentheses": (lambda n: "(" * n + "r == A" + ")" * n, 9 + 100),
    "not": (lambda n: "not " * n + "r == A", 9 + 4 * 100),
    "and": (lambda n: " and ".join(["r == A"] * n), None),
    "or": (lambda n: " or ".join(["r == A"] * n), None),
}


@pytest.mark.parametrize("form", sorted(DEEP_FORMS))
def test_predicate_nesting_is_bounded(capsys, tmp_path, form):
    write, column = DEEP_FORMS[form]
    model = tmp_path / "deep.evd"
    for depth in (100, 101, 5000):
        model.write_text(
            f'model "x" {{ dimension r = {{A, B}} }}\nquery P({write(depth)})', encoding="utf-8"
        )
        code, out, err = run(capsys, "eval", str(model))
        if column is None or depth == 100:
            assert (code, err) == (0, ""), depth
            assert " = 1/2 ≈ 0.500000  [Theorem 4]" in out
        else:
            assert code == 1, depth
            assert err == f"{model}:2:{column}: error: predicate nests deeper than 100 levels\n"


@pytest.mark.parametrize("word", ["and", "or"])
def test_long_flat_chain_evaluates_in_bounded_time(capsys, tmp_path, word):
    # 10^5 terms: one node, lowered in one loop over the operand masks.
    model = tmp_path / "chain.evd"
    predicate = f" {word} ".join(["r == A"] * 10**5)
    model.write_text(f'model "x" {{ dimension r = {{A, B}} }}\nquery P({predicate})', encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run(capsys, "eval", str(model))
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert out.endswith(" = 1/2 ≈ 0.500000  [Theorem 4]\n")
    assert elapsed < 20


def test_number_literals_are_bounded_ascii_decimals(capsys, tmp_path):
    model = tmp_path / "n.evd"

    def evaluate(declaration, query="P(x < 5)"):
        model.write_text(f'model "x" {{ {declaration} }}\nquery {query}', encoding="utf-8")
        return run(capsys, "eval", str(model))

    top = "1" + "0" * 999  # 1000 digits
    code, out, _ = evaluate(f"continuum x from 0 to {top} tranches 2", f"P(x < 5{top[1:-1]})")
    assert code == 0 and out.startswith("P(x < 5000") and " = 1/2 " in out
    for declaration, message in (
        (f"continuum x from 0 to {top}0 tranches 2", "number has more than 1000 digits"),
        ("continuum x from 0 to " + "9" * 5000 + " tranches 2", "more than 1000 digits"),
        ("continuum x from 0 to 10 tranches " + "7" * 5000, "more than 1000 digits"),
        ("continuum x from 0 to 1\u00b2 tranches 2", "unexpected character '\u00b2'"),
        ("continuum x from 0 to 10 tranches \u0663", "unexpected character '\u0663'"),
        ("continuum x from -90 to 90 tranches 2", "unexpected character '-'"),
    ):
        code, _, err = evaluate(declaration)
        assert code == 1 and message in err, (declaration, err)


def test_an_overlap_across_many_one_label_dimensions_is_a_diagnostic(capsys, tmp_path):
    # The overlap message names the first clashing atoms, walking 2000
    # one-label dimensions without a stack frame each.
    model = tmp_path / "wide.evd"
    dimensions = "".join(f"  dimension d{i} = {{a}}\n" for i in range(2000))
    model.write_text(
        f'model "wide" {{\n{dimensions}  partition p {{ u: true; v: true; }}\n}}\n',
        encoding="utf-8",
    )
    atom = "/".join(["a"] * 2000)
    assert run(capsys, "eval", str(model)) == (
        1, "", f"{model}:2002:3: error: partition 'p': blocks 'u' and 'v' overlap on: {atom}\n",
    )


def test_an_atom_count_prints_in_full_up_to_4300_digits(capsys, tmp_path):
    model = tmp_path / "huge.evd"

    def write(*digits):
        lines = "".join(
            f"  continuum c{i} from 0 to 1 tranches {'9' * n}\n" for i, n in enumerate(digits)
        )
        model.write_text(f'model "huge" {{\n{lines}}}\nquery atomic\n', encoding="utf-8")

    write(1000, 1000, 1000, 1000, 300)
    size = (10**1000 - 1) ** 4 * (10**300 - 1)
    assert len(str(size)) == 4300
    assert run(capsys, "eval", str(model)) == (
        1,
        "",
        f"{model}:1:1: error: model spans {size} atoms, above the limit of 10000000; "
        "use coarser tranches or raise the limit\n",
    )
    # One digit more and the count could not be printed: every command
    # refuses the model where the count passes 10^4300.
    write(1000, 1000, 1000, 1000, 301)
    refusal = f"{model}:6:3: error: model spans at least 10^4300 atoms; use coarser tranches\n"
    for command in ("eval", "check", "parse"):
        assert run(capsys, command, str(model)) == (1, "", refusal), command


def test_eval_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "eval", "no/such/file.evd")
    assert code == 2
    assert "cannot read" in err


def test_eval_syntax_error_exits_1_with_span(capsys, tmp_path):
    bad = tmp_path / "bad.evd"
    bad.write_text('model "x" { dimension r = {A, A} }', encoding="utf-8")
    code, _, err = run(capsys, "eval", str(bad))
    assert code == 1
    assert f"{bad}:1:" in err and "duplicate label" in err


def test_eval_conditioning_error_exits_1(capsys, tmp_path):
    f = tmp_path / "m.evd"
    f.write_text('model "x" { dimension r = {A} }\nquery P(r == A | false)')
    code, out, err = run(capsys, "eval", str(f))
    assert code == 1
    assert "conditioning on impossibility" in err


# -- parse ----------------------------------------------------------------------


def test_parse_dump_matches_golden(capsys, fixture_path):
    code, out, err = run(capsys, "parse", fixture_path("deck"), "--dump-ast")
    assert code == 0 and err == ""
    assert out == (DATA / "deck_ast.txt").read_text(encoding="utf-8")


def test_parse_dump_of_continua(capsys, tmp_path):
    model = tmp_path / "m.evd"
    model.write_text(
        'model "m" {\n  continuum t from 0.5 to 2 tranches 6\n'
        "  continuum u from 0 to 1 tranches aleph\n}\nquery P(t < 0.75)\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "parse", str(model), "--dump-ast")
    assert code == 0 and err == ""
    assert out == (
        'model "m" @1:1[0:111]\n'
        "  continuum t @2:3[14:50]: from 0.5 to 2 tranches 6\n"
        "  continuum u @3:3[53:91]: from 0 to 1 tranches aleph\n"
        "  query @5:1[94:111]: P(t < 0.75)\n"
    )


def test_parse_without_dump_is_quiet(capsys, fixture_path):
    code, out, _ = run(capsys, "parse", fixture_path("deck"))
    assert code == 0 and out == ""


def test_parse_empty_file_reports_empty_model(capsys, tmp_path):
    empty = tmp_path / "empty.evd"
    empty.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "parse", str(empty))
    assert code == 1
    assert "empty model" in err


def test_parse_missing_file_is_io_error(capsys):
    assert run(capsys, "parse", "nope.evd")[0] == 2


def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path):
    source = fixtures.source("deck")
    plain, marked = tmp_path / "plain.evd", tmp_path / "marked.evd"
    plain.write_text(source, encoding="utf-8")
    marked.write_text(source, encoding="utf-8-sig")
    for argv in (["eval"], ["eval", "--format", "json"], ["parse", "--dump-ast"]):
        expected = run(capsys, *argv, str(plain))
        assert expected[0] == 0 and expected[1]
        assert run(capsys, *argv, str(marked)) == expected, argv


@pytest.mark.parametrize(
    "text, where",
    [
        ('model "x" {\n  \ufeffdimension r = {A}\n}', "2:3"),
        ('\ufeffmodel "x" { dimension r = {A} }', "1:1"),
    ],
    ids=["inside", "second-mark"],
)
def test_a_byte_order_mark_elsewhere_is_a_diagnostic(capsys, tmp_path, text, where):
    model = tmp_path / "m.evd"
    model.write_text(text, encoding="utf-8-sig")
    for command in ("eval", "parse"):
        code, _, err = run(capsys, command, str(model))
        assert code == 1
        assert f"{model}:{where}: error: unexpected character " + r"'\ufeff'" in err


def test_parse_does_not_import_the_suites(fixture_path):
    # Only `check` needs the verification suites; `parse` and `eval` skip
    # their import.
    package_root = str(Path(evidentia.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {package_root!r})\n"
        "from evidentia import cli\n"
        f"assert cli.main(['parse', {fixture_path('deck')!r}]) == 0\n"
        "print('evidentia.suites' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


# -- one argument parser per process ---------------------------------------------

# Runs each step, a list of arguments and the EVIDENTIA_SEED to set (or None
# to unset it), through one cli.main in one process, and prints what each
# gave as JSON.
_STEPS_CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from evidentia import cli
results = []
for argv, seed in json.loads(sys.argv[2]):
    if seed is None:
        os.environ.pop("EVIDENTIA_SEED", None)
    else:
        os.environ["EVIDENTIA_SEED"] = seed
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _run_steps(steps):
    package_root = str(Path(evidentia.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-I", "-c", _STEPS_CHILD, package_root, json.dumps(steps)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_repeated_main_calls_match_fresh_processes(fixture_path):
    coin = fixture_path("coin")
    check = ["check", "--instances", "1"]
    steps = [
        (["eval", coin, "--scaled", "--format", "json", "--digits", "3"], None),
        (["eval", coin], None),
        ([*check, "--seed", "3"], None),
        (check, None),
        (check, "5"),
        (check, None),
        (["eval", coin, "--digits", "-1"], None),
        (["eval", coin], None),
    ]
    in_sequence = _run_steps(steps)
    alone = [_run_steps([step])[0] for step in steps]
    assert in_sequence == alone
    assert alone[6][0] == "SystemExit(2)" and "seed: 5" in alone[4][1]


def test_main_builds_one_argument_parser(monkeypatch, capsys, fixture_path):
    built = []

    def counted():
        built.append(1)
        return build_arg_parser()

    monkeypatch.setattr(cli, "build_arg_parser", counted)
    cli._arg_parser.cache_clear()
    try:
        for _ in range(5):
            assert run(capsys, "eval", fixture_path("coin"))[0] == 0
    finally:
        cli._arg_parser.cache_clear()
    assert len(built) == 1


def test_importing_the_cli_builds_no_argument_parser():
    # A fresh `evidentia` process pays for its parser on its first main
    # call, not on import.
    package_root = str(Path(evidentia.__file__).resolve().parent.parent)
    code = (
        "import argparse, sys\n"
        f"sys.path.insert(0, {package_root!r})\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import evidentia.cli\n"
        "print(len(built))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


# -- check ----------------------------------------------------------------------


def test_check_small_run_passes(capsys):
    code, out, _ = run(capsys, "check", "--instances", "5")
    assert code == 0
    assert "sum rule" in out and "oracle equivalence" in out
    assert "seed: 271828" in out


def test_check_zero_instances_warns_and_passes(capsys):
    code, out, _ = run(capsys, "check", "--instances", "0")
    assert code == 0
    assert "nothing was checked" in out


def test_check_seed_flag_is_reported(capsys):
    code, out, _ = run(capsys, "check", "--instances", "3", "--seed", "42")
    assert code == 0
    assert "seed: 42" in out


def test_check_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("EVIDENTIA_SEED", "1234")
    code, out, _ = run(capsys, "check", "--instances", "3")
    assert code == 0
    assert "seed: 1234" in out


def test_check_flag_overrides_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("EVIDENTIA_SEED", "1234")
    code, out, _ = run(capsys, "check", "--instances", "3", "--seed", "9")
    assert "seed: 9" in out


def test_check_invalid_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("EVIDENTIA_SEED", "not-a-number")
    code, _, err = run(capsys, "check", "--instances", "3")
    assert code == 1
    assert "EVIDENTIA_SEED" in err


def test_check_with_extra_model(capsys, fixture_path):
    code, out, _ = run(capsys, "check", fixture_path("dice"), "--instances", "5")
    assert code == 0


def test_check_with_a_long_chain(capsys, tmp_path):
    # The oracle checks a 5000-term chain with one closure that loops over
    # its parts; nested two-part closures overflowed the stack.
    model = tmp_path / "chain.evd"
    chain = " or ".join(f"r == {label}" for label in "ABAB" * 1250)
    model.write_text(
        f'model "x" {{ dimension r = {{A, B, C}} }}\nquery P({chain})', encoding="utf-8"
    )
    code, out, err = run(capsys, "check", str(model), "--instances", "1")
    assert code == 0, err
    assert "Traceback" not in err


def test_check_corrupted_model_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.evd"
    bad.write_text("model { oops", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad), "--instances", "3")
    assert code == 1
    assert "error:" in err


def test_check_counts_an_undefined_log_odds_as_eval_does(capsys, tmp_path):
    # eval reports L(false) as one error line; both model suites take it as
    # an undefined answer on either side instead of raising.
    model = tmp_path / "undefined.evd"
    model.write_text(
        'model "u" { dimension d = {a, b} }\nquery L(false)\nquery P(d == a)\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", str(model), "--instances", "1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 10 and lines[-1] == "seed: 271828"
    assert all(line.endswith(" cases, ok") for line in lines[:9])
    assert lines[7] == "scale invariance: 18 cases, ok"  # the fixtures' 16, and L and P
    code, _, err = run(capsys, "eval", str(model))
    assert code == 1
    assert err == f"{model}: error: L(false): log-odds undefined: the proposition has zero evidence\n"


def test_check_refuses_a_model_that_does_not_compile_as_eval_does(capsys, tmp_path):
    model = tmp_path / "split.evd"
    model.write_text(
        'model "s" { continuum x from 0 to 10 tranches 10 }\nquery P(x < 2.5)\n',
        encoding="utf-8",
    )
    refusal = (
        f"{model}:2:9: error: threshold 5/2 splits tranche [2,3) of 'x'; "
        "rebuild with a finer tranche count\n"
    )
    assert run(capsys, "check", str(model), "--instances", "1") == (1, "", refusal)
    assert run(capsys, "eval", str(model)) == (1, "", refusal)


def test_check_skips_a_model_that_compiles_only_scaled(capsys, tmp_path):
    # Aleph tranches are refused by a finite compile: the model is valid,
    # and the two suites that compile it finite skip it.
    model = tmp_path / "aleph.evd"
    model.write_text(
        'model "a" { continuum x from 0 to 10 tranches aleph }\nquery P(true)\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", str(model), "--instances", "1")
    assert (code, err) == (0, "")
    skipped = [line for line in out.splitlines() if line.endswith(f"(skipped models: {model})")]
    assert [line.split(":")[0] for line in skipped] == ["scale invariance", "oracle equivalence"]


def test_check_instances_50_matches_golden(capsys):
    code, out, err = run(capsys, "check", "--instances", "50", "--seed", "1")
    assert code == 0 and err == ""
    assert out == (DATA / "check_instances50_seed1.txt").read_text(encoding="utf-8")


def test_check_skips_a_model_too_large_to_enumerate(capsys, tmp_path):
    """A short model of 10^6 tranches is compiled lumped; the oracle
    comparison counts its atoms from the declarations and skips it before
    allocating anything per tranche."""
    import time
    import tracemalloc

    big = tmp_path / "big.evd"
    big.write_text(
        'model "big" { continuum x from 0 to 1 tranches 1000000 }\nquery P(x < 0.5)\n',
        encoding="utf-8",
    )
    started = time.monotonic()
    code, out, err = run(capsys, "check", str(big), "--instances", "1")
    assert time.monotonic() - started < 2
    assert code == 0 and err == ""
    oracle_line = next(line for line in out.splitlines() if line.startswith("oracle equivalence"))
    assert oracle_line.endswith(f"ok (skipped models: {big})")

    tracemalloc.start()
    try:
        assert run(capsys, "check", str(big), "--instances", "1")[1] == out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
