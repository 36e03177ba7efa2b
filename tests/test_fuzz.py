"""Fuzz tests: no input text makes the command line or the hyperrational
reader end in a traceback or run without bound.

Besides arbitrary text and bytes, the strategies build inputs aimed at the
known limits: deeply nested predicates and literals, and long runs of
digits where numbers are converted.
"""

import contextlib
import io
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from evidentia import Hyperrational
from evidentia.cli import main
from evidentia.hyperrational import MAX_PARSE_BITS, MAX_PARSE_DEGREE

# Generous next to the few milliseconds an example takes, so a slow machine
# does not fail the test, but far below an unbounded run.
FUZZ = settings(max_examples=150, deadline=timedelta(seconds=2))

HEAD = 'model "m" {\n  dimension d = {a, b}\n  continuum x from 0 to 10 tranches 4\n}\n'

WORDS = (
    'model "m" { } dimension continuum partition query d x a b = , : ; ( ) | '
    "from to tranches aleph table atomic P O L E not and or true false in "
    "== < <= > >= 0 1 2.5 10 # \n"
).split(" ") + [
    # Letters, digits and spaces outside ASCII, which the lexer reads by
    # its slower per-character rules.
    "é", "ß", "aé", "²", "٣", "\u00a0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
]

DEEP_FORMS = (
    lambda n: "(" * n + "d == a" + ")" * n,
    lambda n: "not " * n + "d == a",
    lambda n: " and ".join(["d == a"] * n),
    lambda n: " or ".join(["x < 5"] * n),
    lambda n: "(not " * n + "true" + ")" * n,
)

# "@" marks where a run of digits goes.
NUMBER_SLOTS = (
    'model "m" { continuum x from 0 to 1@ tranches 2 }\nquery P(x < 1)\n',
    'model "m" { continuum x from 0.@ to 1 tranches 2 }\n',
    'model "m" { continuum x from 0 to 1 tranches 0@1 }\n',
    HEAD + "query P(x < @)\n",
    HEAD + "query P(x >= 0.@)\n",
    'model "m" { dimension d = {@, b} }\nquery P(d == b)\n',
)

digit_runs = st.builds(
    lambda digit, n: digit * n, st.sampled_from("0123456789"), st.integers(1, 6000)
)

model_sources = st.one_of(
    st.text(max_size=300),
    st.lists(st.sampled_from(WORDS), max_size=80).map(" ".join),
    st.builds(
        lambda form, n: HEAD + f"query P({form(n)})\n",
        st.sampled_from(DEEP_FORMS),
        st.integers(1, 3000),
    ),
    st.builds(
        lambda slot, digits: slot.replace("@", digits),
        st.sampled_from(NUMBER_SLOTS),
        digit_runs,
    ),
)
# Lone surrogates in the text become bytes that are not UTF-8.
model_files = st.one_of(
    model_sources.map(lambda text: text.encode("utf-8", "surrogatepass")), st.binary()
)

literals = st.one_of(
    st.text(max_size=100),
    st.lists(
        st.sampled_from(["aleph", "^", "2", "64", "0", "+", "-", "*", "/", "(", ")", " "]),
        max_size=40,
    ).map("".join),
    st.builds(lambda n: "(" * n + "1" + ")" * n, st.integers(1, 3000)),
    st.builds(lambda n: "-" * n + "aleph", st.integers(1, 3000)),
    st.builds(lambda n: "(-" * n + "2" + ")" * n, st.integers(1, 3000)),
    digit_runs,
)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.evd"


@pytest.mark.parametrize("command", ["parse", "eval"])
@FUZZ
@given(source=model_files)
def test_cli_ends_in_a_result_or_a_diagnostic(model_file, command, source):
    model_file.write_bytes(source)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(model_file)])
    assert code in (0, 1, 2)


@FUZZ
@given(text=literals)
def test_hyperrational_parse_returns_or_raises_value_error(text):
    try:
        value = Hyperrational.parse(text)
    except (ValueError, ZeroDivisionError):
        return
    assert isinstance(value, Hyperrational)
    sides = value.numerator_coefficients, value.denominator_coefficients
    assert max(len(side) for side in sides) - 1 <= MAX_PARSE_DEGREE
    assert max(abs(c).bit_length() for side in sides for c in side) <= MAX_PARSE_BITS
    assert Hyperrational.parse(str(value)) == value
