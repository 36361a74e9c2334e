"""Arbitrary JSON in place of the input files never crashes the CLI.

Every space, element and function file is replaced by a generated JSON
value, either arbitrary or shaped like the real format with arbitrary
parts.  `cli.main` must answer (exit 0) or reject the input (exit 2 with a
one-line `error:` message); exit 1 or an uncaught exception is a failure.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelip.cli import main

DATA = Path(__file__).parent / "data"
SPACE = str(DATA / "space4.json")
ELEMENT = str(DATA / "element.json")

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
RATIONAL = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=6).map(str)
NUMBER = RATIONAL | SCALARS
POINT = st.sampled_from(["0", "a", "b", "c"])  # the labels of space4.json
LABEL = POINT | st.text(max_size=3)
MAPPING = st.dictionaries(LABEL, NUMBER, max_size=4) | st.dictionaries(POINT, RATIONAL)


def _line_space(xs):
    points = [0, *xs]
    return {
        "labels": [str(x) for x in points],
        "base": "0",
        "dist": [[str(abs(x - y)) for y in points] for x in points],
    }


SPACES = (
    JSON
    | st.lists(st.integers(1, 9), max_size=4, unique=True).map(_line_space)
    | st.fixed_dictionaries(
        {
            "labels": st.lists(LABEL, max_size=4) | SCALARS | JSON,
            "base": LABEL | JSON,
            "dist": st.lists(st.lists(NUMBER, max_size=4), max_size=4) | SCALARS | JSON,
        }
    )
)
ELEMENTS = JSON | MAPPING | st.fixed_dictionaries({"coefficients": MAPPING | JSON})
FUNCTIONS = JSON | st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["lip0", "weight", "partial"]) | JSON,
        "values": MAPPING | JSON,
    }
)

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _run(argv_for, value) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv_for(str(path)))
    if status == 0:
        assert err.getvalue() == ""
    else:
        assert status == 2, err.getvalue()
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message


@FUZZ
@given(SPACES)
def test_fuzzed_space_file(value):
    _run(lambda path: ["positive-extremes", "--space", path], value)


@FUZZ
@given(ELEMENTS, st.sampled_from(["norm", "witness"]))
def test_fuzzed_element_file(value, command):
    flag = "--element" if command == "norm" else "--lam"
    _run(lambda path: [command, "--space", SPACE, flag, path], value)


@FUZZ
@given(FUNCTIONS, st.sampled_from(["extend", "weight"]))
def test_fuzzed_function_file(value, command):
    if command == "extend":
        _run(lambda path: ["extend", "--space", SPACE, "--function", path], value)
    else:
        _run(lambda path: ["weight", "--space", SPACE, "--element", ELEMENT, "--weight", path], value)


LOADERS = [
    lambda path: ["positive-extremes", "--space", path],
    lambda path: ["norm", "--space", SPACE, "--element", path],
    lambda path: ["extend", "--space", SPACE, "--function", path],
]


@pytest.mark.parametrize("argv_for", LOADERS, ids=["space", "element", "function"])
def test_json_nested_past_the_parser_is_an_input_error(argv_for, tmp_path, capsys):
    # 200,000 levels, far past the parser's recursion limit; the strategies
    # above stop at 10 leaves and never come near it
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(argv_for(str(path))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("argv_for", LOADERS, ids=["space", "element", "function"])
def test_json_integer_past_the_digit_limit_is_an_input_error(argv_for, tmp_path, capsys):
    # json.loads raises a plain ValueError for it, whose message names no file
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "big.json"
    path.write_text('{"coefficients": {"a": ' + "1" * (limit + 1) + "}}")
    assert main(argv_for(str(path))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON integer has more than {limit} digits\n"
