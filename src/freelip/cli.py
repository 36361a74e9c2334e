"""Batch command-line interface exposing every toolkit operation.

Exit status: 0 on success, 1 on a failed certification (a violated
invariant or failing check battery), 2 on input errors.  Machine-format
output is deterministic JSON; the check battery is seeded, so a fixed seed
reproduces reports byte for byte.

A command loads and builds only what it runs.  The handlers that run a
solver import it in their body (`norms` in `_norm`, `extremal` in
`_classify`, `_extremes` and `_witness`), and so do the handlers that run a
function kernel (`functions` in `_fpq`, `_extend` and `_weight`), so
`support` and `segment` load neither; `_dispatch` imports the battery for
`check-suite` alone, and `build_parser` builds only the subparser of the
command it is given.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Callable, Sequence

from . import fileio
from .elements import support, zero
from .errors import FreeLipError, InternalVerificationFailure, ParseError
from .rationals import as_fraction, format_fraction
from .records import record

MAX_SCALE = 100
MAX_POINTS = 48


def _max_points(raw: str) -> int:
    """A space-size cap in [2, MAX_POINTS]: a typo such as 10000000 exits 2.

    Unbounded, it would exhaust memory, as `random_space` builds n^2 lists.
    At scale 1 the battery takes 2-3 s at cap 12, 6-8 s at 24 and 43-46 s
    at 48 (2 vCPUs, CPython 3.11).
    """
    try:
        cap = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if not 2 <= cap <= MAX_POINTS:
        raise argparse.ArgumentTypeError(f"must be from 2 to {MAX_POINTS}, got {cap}")
    return cap


def _scale(raw: str) -> Fraction:
    """A sample-count multiplier in (0, MAX_SCALE], read exactly as every rational input is.

    The bound keeps a run to minutes: scale 1 takes 2-5 s in process
    and holds a corpus of 50 spaces, both growing with the scale, so a typo
    such as 1e30 exits 2 instead of starting a run that cannot finish.
    `as_fraction` rejects a huge decimal exponent before expanding it, so
    the check itself is instant.
    """
    try:
        scale = as_fraction(raw)
        if 0 < scale <= MAX_SCALE:
            return scale
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number > 0, at most {MAX_SCALE}: {raw!r}")


def _pair(space, raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected a pair 'P,Q', got {raw!r}")
    return space.pair(parts[0].strip(), parts[1].strip())


def _braces(pieces) -> str:
    return "{" + ", ".join(pieces) + "}"


def _labels(space, points) -> list[str]:
    return sorted(space.labels[p] for p in points)


def _items(space, items) -> str:
    """`{label: value, ...}` text of an element's nonzero coefficients."""
    return _braces(f"{space.labels[p]}: {format_fraction(a)}" for p, a in items)


def _values(f, sep: str = " -> ") -> list[str]:
    """`label -> value` for each point of a total function."""
    return [f"{f.space.labels[x]}{sep}{format_fraction(v)}" for x, v in enumerate(f.values)]


def _norm(args, space):
    from .norms import norm_certificate
    cert = norm_certificate(fileio.load_element(args.element, space))
    terms = " + ".join(
        f"{format_fraction(w)} * m({space.labels[m.p]},{space.labels[m.q]})"
        for m, w in cert.primal_witness
    )
    return fileio.certificate_payload(space, cert), [
        f"norm = {format_fraction(cert.value)}",
        "dual witness: " + ", ".join(_values(cert.dual_witness, "=")),
        f"primal decomposition: {terms or '0'}",
    ]


def _support(args, space):
    labels = _labels(space, support(fileio.load_element(args.element, space)))
    return fileio.envelope("support", support=labels), ["support: " + _braces(labels)]


def _segment(args, space):
    p, q = _pair(space, args.pair)
    eps = as_fraction(args.epsilon)
    seg = space.segment(p, q, eps)
    labels = _labels(space, seg.members)
    pair = [space.labels[p], space.labels[q]]
    payload = fileio.envelope(
        "segment", pair=pair, epsilon=format_fraction(eps), members=labels, trivial=seg.is_trivial()
    )
    return payload, ["segment: " + _braces(labels)]


def _fpq(args, space):
    from .functions import molecule_norming_function
    f = molecule_norming_function(space, *_pair(space, args.pair))
    return fileio.function_payload(f), _values(f)


def _extend(args, space):
    from .functions import mcshane_extend
    f = mcshane_extend(fileio.load_function(args.function, space, "partial"))
    return fileio.function_payload(f), _values(f)


def _weight(args, space):
    from .functions import weight_element
    mu = fileio.load_element(args.element, space)
    out = weight_element(mu, fileio.load_function(args.weight, space, "weight"))
    return fileio.element_payload(out), ["weighted element: " + _items(space, out.items)]


def _classify(args, space):
    from .extremal import classify_molecule
    p, q = _pair(space, args.pair)
    verdict = classify_molecule(space, p, q)
    segment = _labels(space, verdict.segment.members)
    lines = [f"verdict: {verdict.verdict}", "segment: " + _braces(segment)]
    if verdict.counterexample_decomposition is not None:
        lines.append("midpoint decomposition halves:")
        lines += ["  " + _items(space, h.items) for h in verdict.counterexample_decomposition]
    return fileio.verdict_payload(space, verdict), lines


def _extremes(args, space):
    from .extremal import positive_ball_extremes
    extremes = positive_ball_extremes(space)
    coefficients = [fileio.element_payload(e)["coefficients"] for e in extremes]
    payload = fileio.envelope("positive_extremes", extremes=coefficients)
    return payload, [_items(space, e.items) for e in extremes]


def _witness(args, space):
    from .extremal import almost_positive_witness
    lam = fileio.load_element(args.lam, space)
    mu = fileio.load_element(args.mu, space) if args.mu else zero(space)
    witness = almost_positive_witness(lam, mu)
    if witness is None:
        lines = ["witness: absent"]
    else:
        lines = [
            "witness: present",
            "perturbation: " + _items(space, witness.v.items),
            "chosen points: " + ", ".join(space.labels[p] for p in witness.chosen_points),
        ]
    return fileio.witness_payload(space, witness), lines


@record
class Command:
    """A command that reads a space file; `run` returns (payload, human lines)."""

    help: str
    arguments: dict[str, dict]  # flag -> add_argument keywords
    run: Callable


_ELEMENT = {"--element": {"required": True}}
_PAIR = {"--pair": {"required": True, "metavar": "P,Q"}}

COMMANDS = {
    "norm": Command(
        "norm certificate of an element (dual witness + decomposition)", _ELEMENT, _norm
    ),
    "support": Command("support of an element", _ELEMENT, _support),
    "segment": Command(
        "metric segment between two points",
        {**_PAIR, "--epsilon": {"default": "0", "help": "relaxation in [0, 1)"}},
        _segment,
    ),
    "fpq": Command("canonical norming function of a molecule", _PAIR, _fpq),
    "extend": Command(
        "largest 1-Lipschitz extension of a partial function",
        {"--function": {"required": True, "help": "partial function file"}},
        _extend,
    ),
    "weight": Command(
        "apply a weight to an element coefficientwise",
        {**_ELEMENT, "--weight": {"required": True, "help": "weight function file"}},
        _weight,
    ),
    "classify-molecule": Command("exposedness verdict for a molecule", _PAIR, _classify),
    "positive-extremes": Command("extreme points of the positive unit ball", {}, _extremes),
    "witness": Command(
        "non-extremality witness for a positive element plus perturbation",
        {
            "--lam": {"required": True, "help": "positive element file"},
            "--mu": {"help": "perturbation element file (default: zero)"},
        },
        _witness,
    ),
}
_FORMAT = {
    "choices": ("human", "machine"),
    "default": "human",
    "help": "output format (machine = deterministic JSON)",
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of every command, or of `argv[0]` alone when it names one of `COMMANDS`.

    A command's own arguments are parsed by its subparser alone, so the
    others are not built.  The one place the main parser still names the
    commands, the usage line of an error such as an unrecognized argument,
    lists them all from `metavar`, as the parser of every command does.
    """
    parser = argparse.ArgumentParser(
        prog="freelip",
        description="Exact computations in free spaces over finite pointed metric spaces.",
    )
    one = argv[0] if argv and argv[0] in COMMANDS else None
    every = "{" + ",".join([*COMMANDS, "check-suite"]) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every if one else None)
    for name, command in ({one: COMMANDS[one]} if one else COMMANDS).items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--space", required=True, help="space file (JSON)")
        cmd.add_argument("--format", **_FORMAT)
        for flag, options in command.arguments.items():
            cmd.add_argument(flag, **options)
    if one is not None:
        return parser

    cmd = sub.add_parser("check-suite", help="run the full certification battery")
    cmd.add_argument("--format", **_FORMAT)
    cmd.add_argument("--seed", type=int, default=20240521, help="64-bit sampling seed")
    cmd.add_argument(
        "--max-points",
        type=_max_points,
        default=12,
        help=f"size cap for generated spaces, 2 to {MAX_POINTS} (default: 12)",
    )
    cmd.add_argument(
        "--scale", type=_scale, default="1", help="multiply sample counts (for quick smoke runs)"
    )
    return parser


def _dispatch(args) -> int:
    if args.command == "check-suite":
        # the battery and its oracles load only for the command that runs them
        from .checks import run_check_suite

        results = run_check_suite(seed=args.seed, max_points=args.max_points, scale=args.scale)
        # a FAIL line is followed by its recorded messages, as the machine output lists them
        lines = [text for r in results for text in (r.line(), *("  " + m for m in r.failures))]
        payload = fileio.check_results_payload(results)
    else:
        payload, lines = COMMANDS[args.command].run(args, fileio.load_space(args.space))
    if args.format == "machine":
        sys.stdout.write(fileio.machine_dumps(payload))
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    # only the check battery can fail without raising
    return 0 if payload.get("all_passed", True) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return _dispatch(args)
    except InternalVerificationFailure as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except (FreeLipError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
