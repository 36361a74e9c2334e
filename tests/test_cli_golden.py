"""Byte-exact CLI output on fixed inputs, for every command in both formats.

The expected text lives in `tests/data/golden/<case>.<format>.txt`.  The
`check-suite` human report is left out because it prints timings; its
machine report is pinned by `test_cli_check_suite_machine_deterministic`.
"""

from pathlib import Path

import pytest

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
