"""Batch command-line interface exposing every toolkit operation.

Exit status: 0 on success, 1 on a failed certification (a violated
invariant or failing check battery), 2 on input errors.  Machine-format
output is deterministic JSON; the check battery is seeded, so a fixed seed
reproduces reports byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fileio
from .checks import run_check_suite
from .elements import support, zero
from .errors import FreeLipError, InternalVerificationFailure, ParseError
from .extremal import (
    almost_positive_witness,
    classify_molecule,
    positive_ball_extremes,
)
from .functions import mcshane_extend, molecule_norming_function, weight_element
from .norms import norm_certificate
from .rationals import as_fraction, format_fraction

DEFAULT_MAX_POINTS_ENV = "FREELIP_MAX_POINTS"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freelip",
        description="Exact computations in free spaces over finite pointed metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_space=True):
        cmd = sub.add_parser(name, help=help_text)
        if needs_space:
            cmd.add_argument("--space", required=True, help="space file (JSON)")
        cmd.add_argument(
            "--format",
            choices=("human", "machine"),
            default="human",
            help="output format (machine = deterministic JSON)",
        )
        return cmd

    cmd = add("norm", "norm certificate of an element (dual witness + decomposition)")
    cmd.add_argument("--element", required=True)

    cmd = add("support", "support of an element")
    cmd.add_argument("--element", required=True)

    cmd = add("segment", "metric segment between two points")
    cmd.add_argument("--pair", required=True, metavar="P,Q")
    cmd.add_argument("--epsilon", default="0", help="relaxation in [0, 1)")

    cmd = add("fpq", "canonical norming function of a molecule")
    cmd.add_argument("--pair", required=True, metavar="P,Q")

    cmd = add("extend", "largest 1-Lipschitz extension of a partial function")
    cmd.add_argument("--function", required=True, help="partial function file")

    cmd = add("weight", "apply a weight to an element coefficientwise")
    cmd.add_argument("--element", required=True)
    cmd.add_argument("--weight", required=True, help="weight function file")

    cmd = add("classify-molecule", "exposedness verdict for a molecule")
    cmd.add_argument("--pair", required=True, metavar="P,Q")

    add("positive-extremes", "extreme points of the positive unit ball")

    cmd = add("witness", "non-extremality witness for a positive element plus perturbation")
    cmd.add_argument("--lam", required=True, help="positive element file")
    cmd.add_argument("--mu", help="perturbation element file (default: zero)")

    cmd = add("check-suite", "run the full certification battery", needs_space=False)
    cmd.add_argument("--seed", type=int, default=20240521, help="64-bit sampling seed")
    cmd.add_argument(
        "--max-points",
        type=_max_points,
        # a string default goes through `type` too, so the environment
        # value is checked like the option
        default=os.environ.get(DEFAULT_MAX_POINTS_ENV, "12"),
        help=f"size cap for generated spaces, at least 2"
        f" (default: ${DEFAULT_MAX_POINTS_ENV} or 12)",
    )
    cmd.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply sample counts (for quick smoke runs)",
    )
    return parser


def _max_points(raw: str) -> int:
    try:
        cap = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if cap < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {cap}")
    return cap


def _pair(space, raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected a pair 'P,Q', got {raw!r}")
    return space.index(parts[0].strip()), space.index(parts[1].strip())


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.format == "machine":
        sys.stdout.write(fileio.machine_dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _labels(space, points) -> list[str]:
    return sorted(space.labels[p] for p in points)


def _dispatch(args) -> int:
    if args.command == "check-suite":
        results = run_check_suite(seed=args.seed, max_points=args.max_points, scale=args.scale)
        payload = fileio.check_results_payload(results)
        _emit(args, payload, [r.line() for r in results])
        return 0 if payload["all_passed"] else 1

    space = fileio.load_space(args.space)

    if args.command == "norm":
        mu = fileio.load_element(args.element, space)
        cert = norm_certificate(mu)
        payload = fileio.certificate_payload(space, cert)
        lines = [f"norm = {format_fraction(cert.value)}"]
        lines.append(
            "dual witness: "
            + ", ".join(
                f"{space.labels[p]}={format_fraction(v)}"
                for p, v in enumerate(cert.dual_witness.values)
            )
        )
        terms = [
            f"{format_fraction(w)} * m({space.labels[m.p]},{space.labels[m.q]})"
            for m, w in cert.primal_witness
        ]
        lines.append("primal decomposition: " + (" + ".join(terms) if terms else "0"))
        _emit(args, payload, lines)
        return 0

    if args.command == "support":
        mu = fileio.load_element(args.element, space)
        labels = _labels(space, support(mu))
        payload = {
            "schema_version": fileio.SCHEMA_VERSION,
            "kind": "support",
            "support": labels,
        }
        _emit(args, payload, ["support: {" + ", ".join(labels) + "}"])
        return 0

    if args.command == "segment":
        p, q = _pair(space, args.pair)
        eps = as_fraction(args.epsilon)
        seg = space.segment(p, q, eps)
        labels = _labels(space, seg.members)
        payload = {
            "schema_version": fileio.SCHEMA_VERSION,
            "kind": "segment",
            "pair": [space.labels[p], space.labels[q]],
            "epsilon": format_fraction(eps),
            "members": labels,
            "trivial": seg.is_trivial(),
        }
        _emit(args, payload, ["segment: {" + ", ".join(labels) + "}"])
        return 0

    if args.command == "fpq":
        p, q = _pair(space, args.pair)
        f = molecule_norming_function(space, p, q)
        payload = fileio.function_payload(f)
        lines = [
            f"{space.labels[x]} -> {format_fraction(v)}" for x, v in enumerate(f.values)
        ]
        _emit(args, payload, lines)
        return 0

    if args.command == "extend":
        pf = fileio.load_function(args.function, space)
        extended = mcshane_extend(pf)
        payload = fileio.function_payload(extended)
        lines = [
            f"{space.labels[x]} -> {format_fraction(v)}"
            for x, v in enumerate(extended.values)
        ]
        _emit(args, payload, lines)
        return 0

    if args.command == "weight":
        mu = fileio.load_element(args.element, space)
        h = fileio.load_function(args.weight, space)
        out = weight_element(mu, h)
        payload = fileio.element_payload(out)
        pieces = [
            f"{space.labels[p]}: {format_fraction(a)}" for p, a in out.items
        ]
        _emit(args, payload, ["weighted element: {" + ", ".join(pieces) + "}"])
        return 0

    if args.command == "classify-molecule":
        p, q = _pair(space, args.pair)
        verdict = classify_molecule(space, p, q)
        payload = fileio.verdict_payload(space, verdict)
        lines = [f"verdict: {verdict.verdict}"]
        seg = _labels(space, space.segment(p, q).members)
        lines.append("segment: {" + ", ".join(seg) + "}")
        if verdict.counterexample_decomposition is not None:
            u, w = verdict.counterexample_decomposition
            lines.append("midpoint decomposition halves:")
            for half in (u, w):
                pieces = [
                    f"{space.labels[idx]}: {format_fraction(a)}" for idx, a in half.items
                ]
                lines.append("  {" + ", ".join(pieces) + "}")
        _emit(args, payload, lines)
        return 0

    if args.command == "positive-extremes":
        extremes = positive_ball_extremes(space)
        payload = {
            "schema_version": fileio.SCHEMA_VERSION,
            "kind": "positive_extremes",
            "extremes": [fileio.element_payload(e)["coefficients"] for e in extremes],
        }
        lines = []
        for e in extremes:
            pieces = [f"{space.labels[p]}: {format_fraction(a)}" for p, a in e.items]
            lines.append("{" + ", ".join(pieces) + "}")
        _emit(args, payload, lines)
        return 0

    if args.command == "witness":
        lam = fileio.load_element(args.lam, space)
        mu = fileio.load_element(args.mu, space) if args.mu else zero(space)
        witness = almost_positive_witness(lam, mu)
        payload = fileio.witness_payload(space, witness)
        if witness is None:
            lines = ["witness: absent"]
        else:
            pieces = [
                f"{space.labels[p]}: {format_fraction(a)}" for p, a in witness.v.items
            ]
            lines = [
                "witness: present",
                "perturbation: {" + ", ".join(pieces) + "}",
                "chosen points: "
                + ", ".join(space.labels[p] for p in witness.chosen_points),
            ]
        _emit(args, payload, lines)
        return 0

    raise FreeLipError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except InternalVerificationFailure as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except FreeLipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
