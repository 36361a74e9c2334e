import argparse
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from freelip import checks, cli, fileio, norms
from freelip.cli import main
from freelip.elements import canonicalize
from freelip.errors import FreeLipError, InternalVerificationFailure, ParseError
from freelip.functions import lip_function, partial_function, weight_function
from freelip.metric import PointedMetricSpace, validate_space
from freelip.rationals import as_fraction, format_fraction


@pytest.fixture
def line3_file(tmp_path):
    path = tmp_path / "line3.json"
    path.write_text(
        json.dumps(
            {
                "labels": ["0", "1", "2"],
                "base": "0",
                "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
            }
        )
    )
    return path


def test_rational_parsing():
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction("5") == 5
    assert as_fraction("0.1") == Fraction(1, 10)
    assert as_fraction("-7/2") == Fraction(-7, 2)
    with pytest.raises(ValueError):
        as_fraction("abc")
    with pytest.raises(TypeError):
        as_fraction(0.1)
    with pytest.raises(TypeError):
        as_fraction(True)
    # the exponent is refused before it is expanded: this returns at once
    with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
        as_fraction("1e10000000")
    with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
        as_fraction("-2.5E-4301")
    assert as_fraction("1e4300") == 10**4300
    assert format_fraction(Fraction(3, 4)) == "3/4"
    assert format_fraction(Fraction(6, 3)) == "2"


def test_space_round_trip(tmp_path, line3_file):
    space = fileio.load_space(line3_file)
    assert space.labels == ("0", "1", "2")
    assert space.d(0, 2) == 2
    # serialize, reload, byte-for-byte stable
    out = tmp_path / "copy.json"
    text = fileio.machine_dumps(fileio.space_payload(space))
    out.write_text(text)
    again = fileio.load_space(out)
    assert again == space
    assert fileio.machine_dumps(fileio.space_payload(again)) == text


def test_space_accepts_decimal_entries(tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(
        json.dumps(
            {"labels": ["0", "1"], "base": "0", "dist": [["0", "0.1"], ["0.1", "0"]]}
        )
    )
    assert fileio.load_space(path).d(0, 1) == Fraction(1, 10)


def test_malformed_space_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        fileio.load_space(bad)
    bad.write_text(json.dumps({"labels": ["0"], "base": "1", "dist": [["0"]]}))
    with pytest.raises(ParseError):
        fileio.load_space(bad)
    bad.write_text(json.dumps({"labels": ["0", "1"], "base": "0", "dist": [["0", "x"], ["x", "0"]]}))
    with pytest.raises(ParseError):
        fileio.load_space(bad)


_NOT_A_TYPE = "expected int, Fraction or string, got"


@pytest.mark.parametrize(
    "dist, message",
    [
        # a boolean after the string "1" and the number 1 were read: not 1
        ([["0", "1", 1], ["1", "0", True], ["x", "1", "0"]], f"{_NOT_A_TYPE} bool"),
        ([["0", "1/0", "x"], ["1/0", "0", "1"], ["x", "1", "0"]], "not a rational: '1/0'"),
        ([["0", "1", "x"], ["1", "0", "x"], ["x", "x", "0"]], "not a rational: 'x'"),
        ([["0", "2", "1"], ["2", "0", ["1"]], ["1", "1", "0"]], f"{_NOT_A_TYPE} list"),
        ([["0", 1, "1"], [1, "0", 0.5], ["1", "0.5", "0"]], f"{_NOT_A_TYPE} float"),
        ([["0", "1", "1e10000000"], ["1", "0", "1"], ["1", "1", "0"]],
         "decimal exponent beyond 4300: '1e10000000'"),
        ("0 1 2", "dist must be a list of rows"),
        ([["0", "1", "1"], "1 0 1", ["1", "1", "0"]], "malformed matrix row"),
        ([["0", "1", "2"], ["1", "0"], ["2", "1", "0"]],
         "matrix is not square: row 1 has 2 entries, expected 3"),
    ],
)
def test_space_loader_reports_the_first_bad_entry(tmp_path, dist, message):
    # entries are read row by row, so the error names the first bad one,
    # however often its string or an earlier good one repeats
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"labels": ["0", "1", "2"], "base": "0", "dist": dist}))
    with pytest.raises(ParseError) as caught:
        fileio.load_space(path)
    assert str(caught.value) == f"{path}: {message}"


def test_space_loader_parses_repeated_strings_to_the_same_values(tmp_path):
    dist = [["0", "1/3", "2/3", "1/3"], ["1/3", "0", "1/3", "2/3"], ["2/3", "1/3", "0", "1/3"]]
    dist.append(["1/3", "2/3", "1/3", 0])
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"labels": list("abcd"), "base": "a", "dist": dist}))
    space = fileio.load_space(path)
    assert space.dist == tuple(tuple(as_fraction(v) for v in row) for row in dist)
    assert all(type(v) is Fraction for row in space.dist for v in row)


# matrices for both readers; a file holds a Fraction entry as its string
READER_CORPUS = {
    "repeated-strings": [["0", "1/3", "2/3"], ["1/3", "0", "1/3"], ["2/3", "1/3", "0"]],
    "ints": [[0, 2, 3], [2, 0, 1], [3, 1, 0]],
    "fractions": [[0, Fraction(1, 2), 1], [Fraction(2, 4), 0, Fraction(1, 2)], [1, "1/2", 0]],
    "mixed": [["0", 1, "1.5"], [1, 0, Fraction(5, 2)], [Fraction(3, 2), "5/2", "0"]],
    "one-point": [["0"]],
    "asymmetric": [[0, 1, 2], [1, 0, 1], [3, 1, 0]],
    "triangle": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
    "bool": [["0", 1, "1"], [1, "0", True], ["1", "1", "0"]],
    "float": [["0", 1, "1"], [1, "0", 0.5], ["1", "0.5", "0"]],
    "list": [["0", "2", "1"], ["2", "0", ["1"]], ["1", "1", "0"]],
    "zero-denominator": [["0", "1/0", "1"], ["1/0", "0", "1"], ["1", "1", "0"]],
    "short-row": [["0", "1", "1"], ["1", "0"], ["1", "1", "0"]],
    "short-row-then-bad-entry": [["0", "1", "1"], ["1", "0"], ["x", "1", "0"]],
    "string-row": [["0", "1", "1"], "1 0 1", ["1", "1", "0"]],
    "string-rows": ["01", "10"],
}
# the loader reports these as a ParseError naming its file; a bad entry
# after a short row too, as every entry is read before the row lengths
PARSE_FAILURES = {
    "bool",
    "float",
    "list",
    "zero-denominator",
    "short-row",
    "short-row-then-bad-entry",
    "string-row",
    "string-rows",
}


@pytest.mark.parametrize("name", sorted(READER_CORPUS))
def test_the_loader_reads_a_matrix_as_validate_space_does(tmp_path, name):
    # one matrix reader: equal spaces, or the same error, prefixed by the
    # loader's file where it is a ParseError
    matrix = READER_CORPUS[name]
    labels = [chr(ord("a") + i) for i in range(len(matrix))]
    written = [
        [format_fraction(v) if isinstance(v, Fraction) else v for v in row]
        if isinstance(row, list)
        else row
        for row in matrix
    ]
    path = _write(tmp_path, "space.json", {"labels": labels, "base": "a", "dist": written})
    try:
        expected = validate_space(matrix, labels=labels)
    except (FreeLipError, ValueError, TypeError) as exc:
        with pytest.raises((FreeLipError, ValueError)) as got:
            fileio.load_space(path)
        assert isinstance(got.value, ParseError) == (name in PARSE_FAILURES)
        if name in PARSE_FAILURES:
            assert isinstance(exc, (ValueError, TypeError))
            assert str(got.value) == f"{path}: {exc}"
        else:
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert name not in PARSE_FAILURES
        assert fileio.load_space(path) == expected


@pytest.mark.parametrize("command", ["fpq", "segment", "classify-molecule"])
def test_a_pair_of_one_point_is_named_by_its_label(tmp_path, capsys, command):
    dist = [[abs(i - j) for j in range(3)] for i in range(3)]
    path = _write(tmp_path, "space.json", {"labels": list("abc"), "base": "a", "dist": dist})
    assert main([command, "--space", path, "--pair", "b, b"]) == 2
    assert capsys.readouterr().err == "error: endpoints coincide: 'b'\n"


def test_element_round_trip(tmp_path, line3_file):
    space = fileio.load_space(line3_file)
    mu = canonicalize(space, {1: Fraction(1, 2), 2: -3})
    path = tmp_path / "mu.json"
    text = fileio.machine_dumps(fileio.element_payload(mu))
    path.write_text(text)
    again = fileio.load_element(path, space)
    assert again == mu
    assert fileio.machine_dumps(fileio.element_payload(again)) == text


def test_envelope_names_are_labels_inside_the_coefficients(tmp_path, capsys):
    # on a space labelled `0`, `kind`, `schema_version` and `b`, every
    # coefficient of a written element reads back
    dist = [[0, 1, 1, 1], [1, 0, 2, 1], [1, 2, 0, 2], [1, 1, 2, 0]]
    space_path = _write(
        tmp_path,
        "space.json",
        {"labels": ["0", "kind", "schema_version", "b"], "base": "0", "dist": dist},
    )
    space = fileio.load_space(space_path)
    path = tmp_path / "mu.json"
    for coeffs in ({2: Fraction(1, 3), 1: -2, 3: 5}, {1: 1, 3: -1}):
        mu = canonicalize(space, coeffs)
        path.write_text(fileio.machine_dumps(fileio.element_payload(mu)))
        assert fileio.load_element(path, space) == mu
    # the last one, delta(kind) - delta(b), has norm d(kind, b) = 1
    capsys.readouterr()
    assert main(["norm", "--space", space_path, "--element", str(path)]) == 0
    assert "norm = 1\n" in capsys.readouterr().out


def test_element_accepts_bare_mapping(tmp_path, line3_file):
    space = fileio.load_space(line3_file)
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"1": "2/3"}))
    assert fileio.load_element(path, space).coeffs == {1: Fraction(2, 3)}
    # the envelope keys of a bare mapping are not labels
    path.write_text(json.dumps({"schema_version": 1, "kind": "element", "1": "2/3"}))
    assert fileio.load_element(path, space).coeffs == {1: Fraction(2, 3)}


@pytest.mark.parametrize("label", ["kind", "coefficients"])
def test_a_bare_element_keeps_a_point_named_like_an_envelope_key(tmp_path, capsys, label):
    # `kind` is skipped only where no point has that label, and a
    # `coefficients` that holds no mapping is a label too: the bare file
    # {label: 1} is delta(label), of norm d(label, b) = 1
    dist = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    labels = ["b", label, "x"]
    space = _write(tmp_path, "space.json", {"labels": labels, "base": "b", "dist": dist})
    mu = _write(tmp_path, "mu.json", {label: "1"})
    capsys.readouterr()
    assert main(["norm", "--space", space, "--element", mu]) == 0
    assert main(["support", "--space", space, "--element", mu]) == 0
    out = capsys.readouterr().out
    assert "norm = 1\n" in out and f"support: {{{label}}}\n" in out


def test_function_round_trips(tmp_path, line3_file):
    space = fileio.load_space(line3_file)
    cases = [
        lip_function(space, [0, 1, 2]),
        weight_function(space, [Fraction(1, 3), 0, 1]),
        partial_function(space, {0: 0, 2: 2}),
    ]
    for f in cases:
        path = tmp_path / "f.json"
        text = fileio.machine_dumps(fileio.function_payload(f))
        path.write_text(text)
        again = fileio.load_function(path, space)
        assert again == f
        assert fileio.machine_dumps(fileio.function_payload(again)) == text


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"kind": "cone", "values": {}}, "unknown function kind 'cone'"),
        ({"kind": "lip0", "values": {"0": "1"}}, "a Lip_0 function must vanish at the base point"),
    ],
)
def test_malformed_function_files(tmp_path, line3_file, payload, message):
    space = fileio.load_space(line3_file)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError) as caught:
        fileio.load_function(path, space)
    assert str(caught.value) == f"{path}: {message}"


def test_only_functions_have_a_function_payload(line3_file):
    space = fileio.load_space(line3_file)
    with pytest.raises(TypeError, match="not a function value: FreeElement"):
        fileio.function_payload(canonicalize(space, {1: 1}))


# ---------------------------------------------------------------------------
# CLI


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_norm(tmp_path, line3_file, capsys):
    mu = _write(tmp_path, "mu.json", {"1": "1", "2": "1"})
    assert main(["norm", "--space", str(line3_file), "--element", mu]) == 0
    out = capsys.readouterr().out
    assert "norm = 3" in out


def test_cli_norm_machine_is_deterministic(tmp_path, line3_file, capsys):
    mu = _write(tmp_path, "mu.json", {"1": "1", "2": "1"})
    argv = ["norm", "--space", str(line3_file), "--element", mu, "--format", "machine"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["value"] == "3"
    assert payload["schema_version"] == "1"


def test_cli_segment(line3_file, capsys):
    assert main(["segment", "--space", str(line3_file), "--pair", "0,2"]) == 0
    assert "{0, 1, 2}" in capsys.readouterr().out


def test_cli_classify(tmp_path, capsys):
    tri = _write(
        tmp_path,
        "tri.json",
        {
            "labels": ["0", "a", "b"],
            "base": "0",
            "dist": [["0", "1", "1"], ["1", "0", "3/2"], ["1", "3/2", "0"]],
        },
    )
    assert main(["classify-molecule", "--space", tri, "--pair", "a,b"]) == 0
    assert "Exposed" in capsys.readouterr().out


def test_classify_molecule_computes_the_segment_once(monkeypatch, capsys):
    # the verdict carries the segment that decided it, and the command prints it
    calls, segment = [], PointedMetricSpace.segment

    def spy(space, p, q, *args):
        calls.append((p, q))
        return segment(space, p, q, *args)

    monkeypatch.setattr(PointedMetricSpace, "segment", spy)
    space = Path(__file__).parent / "data" / "space4.json"
    assert main(["classify-molecule", "--space", str(space), "--pair", "a,c"]) == 0
    assert "segment: {a, c}" in capsys.readouterr().out
    assert calls == [(1, 3)]


def test_cli_support_and_extremes(tmp_path, line3_file, capsys):
    mu = _write(tmp_path, "mu.json", {"1": "1", "2": "-1"})
    assert main(["support", "--space", str(line3_file), "--element", mu]) == 0
    assert "{1, 2}" in capsys.readouterr().out
    assert main(["positive-extremes", "--space", str(line3_file)]) == 0
    out = capsys.readouterr().out
    assert "{1: 1}" in out and "{2: 1/2}" in out


def test_cli_extend_and_fpq_and_weight(tmp_path, line3_file, capsys):
    pf = _write(tmp_path, "pf.json", {"kind": "partial", "values": {"0": "0", "2": "2"}})
    assert main(["extend", "--space", str(line3_file), "--function", pf]) == 0
    assert "1 -> 1" in capsys.readouterr().out

    assert main(["fpq", "--space", str(line3_file), "--pair", "2,0"]) == 0
    assert "2 -> 2" in capsys.readouterr().out

    mu = _write(tmp_path, "mu.json", {"1": "1", "2": "1"})
    h = _write(tmp_path, "h.json", {"kind": "weight", "values": {"1": "1"}})
    assert main(["weight", "--space", str(line3_file), "--element", mu, "--weight", h]) == 0
    assert "{1: 1}" in capsys.readouterr().out


def test_cli_witness(tmp_path, capsys):
    line4 = _write(
        tmp_path,
        "line4.json",
        {
            "labels": ["0", "1", "2", "3"],
            "base": "0",
            "dist": [
                ["0", "1", "2", "3"],
                ["1", "0", "1", "2"],
                ["2", "1", "0", "1"],
                ["3", "2", "1", "0"],
            ],
        },
    )
    lam = _write(tmp_path, "lam.json", {"1": "1/6", "2": "1/6", "3": "1/6"})
    assert main(["witness", "--space", line4, "--lam", lam]) == 0
    assert "present" in capsys.readouterr().out

    single = _write(tmp_path, "single.json", {"1": "1"})
    assert main(["witness", "--space", line4, "--lam", single]) == 0
    assert "absent" in capsys.readouterr().out


def test_cli_input_errors_exit_2(tmp_path, line3_file, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["norm", "--space", str(line3_file), "--element", missing]) == 2
    bad_space = _write(
        tmp_path,
        "bad.json",
        {"labels": ["0", "1"], "base": "0", "dist": [["0", "5"], ["5", "0"]]},
    )
    # valid space but a degenerate pair request
    assert main(["segment", "--space", bad_space, "--pair", "0,0"]) == 2
    # triangle violation in the file
    worse = _write(
        tmp_path,
        "worse.json",
        {
            "labels": ["0", "a", "b"],
            "base": "0",
            "dist": [["0", "1", "1"], ["1", "0", "5"], ["1", "5", "0"]],
        },
    )
    assert main(["segment", "--space", worse, "--pair", "a,b"]) == 2
    capsys.readouterr()

    def rejected(argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    space = str(line3_file)
    mu = _write(tmp_path, "mu.json", {"1": "1"})
    # a function file of the wrong kind, or of none (read as lip0)
    lip0 = _write(tmp_path, "lip0.json", {"kind": "lip0", "values": {"1": "1"}})
    weight = _write(tmp_path, "weight.json", {"kind": "weight", "values": {"1": "1"}})
    partial = _write(tmp_path, "partial.json", {"kind": "partial", "values": {"1": "1"}})
    no_kind = _write(tmp_path, "nokind.json", {"values": {"1": "1"}})
    for f in (lip0, weight, no_kind):
        rejected(["extend", "--space", space, "--function", f], "kind 'partial'")
    for h in (lip0, partial, no_kind):
        rejected(["weight", "--space", space, "--element", mu, "--weight", h], "kind 'weight'")
    rejected(["segment", "--space", space, "--pair", "0"], "expected a pair 'P,Q', got '0'")
    huge = _write(
        tmp_path,
        "huge.json",
        {"labels": ["0", "1"], "base": "0", "dist": [["0", "1e10000000"], ["1e10000000", "0"]]},
    )
    rejected(["positive-extremes", "--space", huge], "decimal exponent beyond 4300")
    # labels must be a JSON list
    for labels in (5, "abc", {"0": 1, "1": 2, "2": 3}):
        bad_labels = _write(
            tmp_path, "labels.json", {"labels": labels, "base": "0", "dist": [["0"]]}
        )
        rejected(["positive-extremes", "--space", bad_labels], "labels must be a list")


@pytest.mark.parametrize("flag", ["--space", "--element", "--function"])
def test_an_input_that_is_not_utf8_is_named_by_its_file(tmp_path, line3_file, capsys, flag):
    # JSON is UTF-8 (RFC 8259), so a file that does not decode is malformed input
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    space, mu = str(line3_file), _write(tmp_path, "mu.json", {"1": "1"})
    argv = {
        "--space": ["norm", "--space", str(bad), "--element", mu],
        "--element": ["norm", "--space", space, "--element", str(bad)],
        "--function": ["extend", "--space", space, "--function", str(bad)],
    }[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "labels, message",
    [
        (["0", "1", "1"], "label '1' appears more than once"),
        (["0", "1"], "labels.json: expected 3 labels, got 2"),
    ],
)
def test_cli_bad_label_lists_exit_2(tmp_path, monkeypatch, labels, message, capsys):
    # a label count that is not the matrix's size is malformed input, named by its file
    monkeypatch.chdir(tmp_path)
    _write(
        tmp_path,
        "labels.json",
        {"labels": labels, "base": "0", "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]},
    )
    assert main(["positive-extremes", "--space", "labels.json"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_rejects_json_booleans_as_numbers(tmp_path, line3_file, capsys):
    true_coeff = _write(tmp_path, "mu.json", {"1": True})
    assert main(["norm", "--space", str(line3_file), "--element", true_coeff]) == 2
    assert "expected int, Fraction or string, got bool" in capsys.readouterr().err
    good = _write(tmp_path, "good.json", {"1": "1"})
    true_dist = _write(
        tmp_path,
        "space.json",
        {"labels": ["0", "1"], "base": "0", "dist": [["0", True], [True, "0"]]},
    )
    assert main(["norm", "--space", true_dist, "--element", good]) == 2
    assert "space.json" in capsys.readouterr().err


def test_cli_not_positive_is_input_error(tmp_path, line3_file, capsys):
    lam = _write(tmp_path, "lam.json", {"1": "-1"})
    assert main(["witness", "--space", str(line3_file), "--lam", lam]) == 2
    capsys.readouterr()


def test_cli_check_suite_quick(capsys):
    assert main(["check-suite", "--seed", "3", "--max-points", "6", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_check_suite_fails_the_checks_with_no_case(capsys):
    # at this scale the corpus is one 11-point space, past the 10-, 8- and
    # 6-point caps of four checks; each of them fails with no case, and its
    # line is followed by its one recorded failure
    assert main(["check-suite", "--seed", "5", "--scale", "0.02"]) == 1
    lines = capsys.readouterr().out.splitlines()
    empty = re.compile(r"FAIL (.*): 0 cases in \S+s \(1 recorded failure\(s\)\)")
    failed = [m.group(1) for m in map(empty.fullmatch, lines) if m]
    assert failed == [
        "exposedness matches the segment criterion",
        "positive-ball extreme points and splits",
        "almost-positive extreme points are molecules; witnesses verify",
        "molecule norming function: slope, pairing, segments",
    ]
    assert len(lines) == 15 and sum(line.startswith("PASS ") for line in lines) == 7


def test_cli_check_suite_prints_why_a_check_failed(capsys):
    # the human report shows each FAIL line's recorded messages under it,
    # indented, as many as the machine output lists; a PASS line has none
    assert main(["check-suite", "--seed", "5", "--scale", "0.02"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert main(["check-suite", "--seed", "5", "--scale", "0.02", "--format", "machine"]) == 1
    report = json.loads(capsys.readouterr().out)
    shown = []
    for line in lines:
        if line.startswith("  "):
            shown[-1].append(line[2:])
        else:
            shown.append([])
    assert shown == [check["failures"] for check in report["checks"]]
    assert sum(line.startswith("  no cases: ") for line in lines) == 4


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cap", ["1", "0", "-3", "two"])
def test_cli_check_suite_rejects_bad_size_cap(cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-suite", "--max-points", cap])
    assert exc.value.code == 2
    assert "argument --max-points" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [cli.MAX_POINTS + 1, 10_000_000])
def test_the_size_cap_is_bounded_above(cap, capsys):
    # parsed only: a cap past the bound would start a battery of huge spaces
    parser = cli.build_parser()
    for ok in (2, cli.MAX_POINTS):
        assert parser.parse_args(["check-suite", "--max-points", str(ok)]).max_points == ok
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["check-suite", "--max-points", str(cap)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "freelip check-suite: error: argument --max-points: "
        f"must be from 2 to {cli.MAX_POINTS}, got {cap}"
    )


@pytest.mark.parametrize("scale", ["inf", "1e400", "nan", "-1", "0", "1e30", "two"])
def test_cli_check_suite_rejects_bad_scale(scale, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-suite", "--scale", scale])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --scale" in err and "must be a finite number > 0" in err


def test_the_scale_range_is_exact_at_both_ends():
    # read exactly, with no float underflow below and a bound above
    assert cli._scale("1e-400") == Fraction(1, 10**400)
    assert cli._scale(str(cli.MAX_SCALE)) == cli.MAX_SCALE
    with pytest.raises(argparse.ArgumentTypeError):
        cli._scale(f"{cli.MAX_SCALE}.000001")


def test_a_failed_certification_exits_1(tmp_path, line3_file, capsys, monkeypatch):
    def failing(mu):
        raise InternalVerificationFailure("dual witness failed verification")

    monkeypatch.setattr(norms, "norm_certificate", failing)
    mu = _write(tmp_path, "mu.json", {"1": "1"})
    assert main(["norm", "--space", str(line3_file), "--element", mu]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "certification failed: dual witness failed verification\n"


def test_a_failing_battery_exits_1(capsys, monkeypatch):
    def broken(space, p, q):
        raise RuntimeError("classification failed")

    monkeypatch.setattr(checks, "classify_molecule", broken)
    argv = ["check-suite", "--seed", "5", "--max-points", "5", "--scale", "0.05"]
    assert main(argv + ["--format", "machine"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "exposedness matches the segment criterion"
    ]


def test_cli_check_suite_scales_sample_counts_exactly(capsys):
    # 0.29 is read as 29/100, so the McShane check draws
    # 145 + 145 + 58 = 348 cases; as a float, int(200 * 0.29) is 57
    argv = ["check-suite", "--scale", "0.29", "--seed", "5", "--max-points", "4"]
    assert main(argv + ["--format", "machine"]) == 0
    cases = {c["name"]: c["cases"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert cases["McShane extension, concavity, pairing maximization"] == 348


def test_cli_check_suite_machine_deterministic(capsys):
    argv = [
        "check-suite",
        "--seed",
        "3",
        "--max-points",
        "5",
        "--scale",
        "0.02",
        "--format",
        "machine",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["all_passed"] is True
