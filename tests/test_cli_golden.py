"""Byte-exact CLI output on fixed inputs, for every command in both formats.

The expected text lives in `tests/data/golden/<case>.<format>.txt`.  The
`check-suite` human report is left out because it prints timings; its
machine report is pinned by `test_cli_check_suite_machine_deterministic`.
A command's parser holds its own subparser only; every usage, help and
error text is checked against the parser of every command.
"""

from pathlib import Path

import pytest

from freelip import cli
from freelip.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

CASES = {
    "norm": ["norm", "--element", "element.json"],
    "support": ["support", "--element", "element.json"],
    "segment": ["segment", "--pair", "0,c"],
    "segment-epsilon": ["segment", "--pair", "a,b", "--epsilon", "1/4"],
    "fpq": ["fpq", "--pair", "a,c"],
    "extend": ["extend", "--function", "partial.json"],
    "weight": ["weight", "--element", "element.json", "--weight", "weight.json"],
    "classify-exposed": ["classify-molecule", "--pair", "a,b"],
    "classify-not-extreme": ["classify-molecule", "--pair", "c,0"],
    "positive-extremes": ["positive-extremes"],
    "witness": ["witness", "--lam", "lam.json"],
    "witness-mu": ["witness", "--lam", "lam.json", "--mu", "element.json"],
}


def argv_for(case: str, fmt: str) -> list[str]:
    """Full argument list of a case, with fixture names resolved under tests/data."""
    command, *rest = CASES[case]
    resolved = [str(DATA / a) if a.endswith(".json") else a for a in rest]
    return [command, "--space", str(DATA / "space4.json"), *resolved, "--format", fmt]


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical_to_golden(case, fmt, capsys):
    assert main(argv_for(case, fmt)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{case}.{fmt}.txt").read_text()


HELP = [
    "",
    "norm",
    "support",
    "segment",
    "fpq",
    "extend",
    "weight",
    "classify-molecule",
    "positive-extremes",
    "witness",
    "check-suite",
]


@pytest.mark.parametrize("command", HELP)
def test_cli_help_is_byte_identical_to_golden(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    name = f"help-{command}" if command else "help"
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def _outcome(argv, capsys):
    """(exit status, stdout, stderr) of `main(argv)`, argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argv_cases(command):
    """Help, argument errors and an unrecognized argument, for one command."""
    case = next(c for c in sorted(CASES) if CASES[c][0] == command)
    full = argv_for(case, "human")
    return [
        [command, "--help"],
        [command],
        [command, "--format", "xml"],
        [command, "--no-such-option"],
        full + ["--no-such-option"],
        full + ["extra"],
    ]


EVERYWHERE = [[], ["--help"], ["no-such-command"], ["check-suite", "--max-points", "0"]]


@pytest.mark.parametrize("command", [*cli.COMMANDS, None])
def test_one_subparser_prints_what_the_parser_of_every_command_prints(
    command, capsys, monkeypatch
):
    monkeypatch.setenv("COLUMNS", "80")
    every = cli.build_parser
    cases = EVERYWHERE if command is None else _argv_cases(command)
    for argv in cases:
        one = _outcome(argv, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda argv=(): every())
            assert _outcome(argv, capsys) == one, argv
        assert one[0] in (0, 2), argv
    if command is not None:
        # the parser of one command knows no other
        with pytest.raises(SystemExit):
            every([command]).parse_args(["check-suite"])
        assert "invalid choice: 'check-suite'" in capsys.readouterr().err
