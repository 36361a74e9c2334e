"""File formats and deterministic serialization for toolkit artifacts.

One text-based structured format (JSON) for everything, with rationals as
strings so exactness survives serialization and diffs stay reviewable.
Machine output is emitted with sorted keys and fixed indentation, making
reports byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .elements import FreeElement, Molecule, canonicalize
from .errors import ParseError
from .metric import PointedMetricSpace, _integer_rows, _validated
from .rationals import as_fraction, format_fraction

if TYPE_CHECKING:  # annotations only: a loader compiles no solver
    from .extremal import ExposednessVerdict, PerturbationWitness
    from .norms import FaceReport, NormCertificate

SCHEMA_VERSION = "1"


def machine_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def envelope(kind: str, **fields) -> dict:
    """A machine payload: the schema version and `kind`, then the fields."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc), path) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}", path) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply", path) from exc
    except ValueError as exc:
        # an integer past the interpreter's limit on digits converted from text
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"JSON integer has more than {limit} digits", path) from exc
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object at the top level", path)
    return data


def _parse_rational(raw, path) -> Fraction:
    try:
        return as_fraction(raw)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), path) from exc


# ---------------------------------------------------------------------------
# spaces


def load_space(path) -> PointedMetricSpace:
    """Read and validate a space file: labels, base label, distance matrix.

    The matrix goes through `metric`'s one matrix reader, as a
    `validate_space` argument does, with entries parsed by
    :func:`_parse_rational`, so a ParseError names the first malformed
    entry; a row that is not a list, a matrix that is not square and a
    label count that is not its size are ParseErrors too.  The integer
    rows go to the space's checker; its metric-axiom errors keep their type.
    """
    data = _read_json(path)
    try:
        labels = data["labels"]
        base_label = str(data["base"])
        matrix = data["dist"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc}", path) from exc
    if not isinstance(labels, list):
        raise ParseError("labels must be a list", path)
    labels = [str(x) for x in labels]
    if base_label not in labels:
        raise ParseError(f"base label {base_label!r} not among the labels", path)
    if not isinstance(matrix, list):
        raise ParseError("dist must be a list of rows", path)
    try:
        unit, rows = _integer_rows(matrix, partial(_parse_rational, path=path))
        return _validated(labels, labels.index(base_label), unit, rows)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc), path) from exc


def space_payload(space: PointedMetricSpace) -> dict:
    """The space file of `space`, each distinct distance formatted once from `scaled`."""
    unit, rows = space.scaled
    text = {v: format_fraction(Fraction(v, unit)) for v in set().union(*rows)}
    return envelope(
        "space",
        labels=list(space.labels),
        base=space.labels[space.base],
        dist=[[text[v] for v in row] for row in rows],
    )


# ---------------------------------------------------------------------------
# elements


def load_element(path, space: PointedMetricSpace) -> FreeElement:
    """Read an element file: a mapping from point label to rational string.

    The mapping is the `coefficients` field of an element payload when that
    field holds a mapping, inside which every key is a label; otherwise it
    is the whole file, the bare form, which skips the envelope keys
    `schema_version` and `kind` only where no point has that label.
    """
    data = _read_json(path)
    mapping = data.get("coefficients")
    if not isinstance(mapping, Mapping):
        envelope_keys = {"schema_version", "kind"} - set(space.labels)
        mapping = {k: v for k, v in data.items() if k not in envelope_keys}
    return canonicalize(
        space, {str(label): _parse_rational(raw, path) for label, raw in mapping.items()}
    )


def element_payload(mu: FreeElement) -> dict:
    labels = mu.space.labels
    return envelope(
        "element", coefficients={labels[p]: format_fraction(a) for p, a in mu.items}
    )


# ---------------------------------------------------------------------------
# functions: `functions` is imported by the two calls that read or write one,
# so a command that handles no function does not compile it


def load_function(path, space: PointedMetricSpace, expected: str | None = None):
    """Read a function file; its `kind` (default lip0) selects lip0, weight or partial.

    When `expected` names a kind, a file of any other kind is rejected.
    """
    from .functions import lip_function, partial_function, weight_function

    builders = {"lip0": lip_function, "weight": weight_function, "partial": partial_function}
    data = _read_json(path)
    kind = data.get("kind", "lip0")
    values = data.get("values")
    if not isinstance(values, Mapping):
        raise ParseError("expected a `values` mapping", path)
    parsed = {str(label): _parse_rational(v, path) for label, v in values.items()}
    if expected is not None and kind != expected:
        raise ParseError(f"expected a function of kind {expected!r}, got {kind!r}", path)
    if not isinstance(kind, str) or kind not in builders:
        raise ParseError(f"unknown function kind {kind!r}", path)
    try:
        return builders[kind](space, parsed)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def function_payload(f) -> dict:
    from .functions import LipFunction, PartialFunction, WeightFunction

    kinds = {LipFunction: "lip0", WeightFunction: "weight", PartialFunction: "partial"}
    kind = kinds.get(type(f))
    if kind is None:
        raise TypeError(f"not a function value: {type(f).__name__}")
    return envelope(kind, values={f.space.labels[p]: format_fraction(v) for p, v in f.items})


# ---------------------------------------------------------------------------
# reports


def _molecule_payload(space: PointedMetricSpace, mol: Molecule) -> list[str]:
    return [space.labels[mol.p], space.labels[mol.q]]


def certificate_payload(space: PointedMetricSpace, cert: NormCertificate) -> dict:
    return envelope(
        "norm_certificate",
        value=format_fraction(cert.value),
        dual_witness=function_payload(cert.dual_witness)["values"],
        primal_witness=[
            _molecule_payload(space, mol) + [format_fraction(w)]
            for mol, w in cert.primal_witness
        ],
    )


def face_payload(space: PointedMetricSpace, face: FaceReport) -> dict:
    out = {
        "is_unique_normer": face.is_unique_normer,
        "face_dimension": face.face_dimension,
        "tight_molecules": [
            _molecule_payload(space, mol) for mol in face.tight_molecules
        ],
    }
    if face.sample_distinct_normer is not None:
        out["sample_distinct_normer"] = element_payload(face.sample_distinct_normer)[
            "coefficients"
        ]
    return out


def verdict_payload(space: PointedMetricSpace, verdict: ExposednessVerdict) -> dict:
    out = envelope(
        "molecule_classification",
        molecule=_molecule_payload(space, verdict.molecule),
        verdict=verdict.verdict,
        segment_trivial=verdict.segment.is_trivial(),
        face=face_payload(space, verdict.face),
    )
    if verdict.exposing_function is not None:
        out["exposing_function"] = function_payload(verdict.exposing_function)["values"]
    if verdict.counterexample_decomposition is not None:
        u, w = verdict.counterexample_decomposition
        out["counterexample_decomposition"] = [
            element_payload(u)["coefficients"],
            element_payload(w)["coefficients"],
        ]
    return out


def witness_payload(space: PointedMetricSpace, witness: PerturbationWitness | None) -> dict:
    if witness is None:
        return envelope("perturbation_witness", present=False)
    labels = space.labels
    return envelope(
        "perturbation_witness",
        present=True,
        chosen_points=[labels[p] for p in witness.chosen_points],
        cell=sorted(labels[p] for p in witness.K),
        coefficients=[format_fraction(c) for c in witness.c],
        optimal_partial_function=function_payload(witness.f_star)["values"],
        weight=function_payload(witness.h)["values"],
        perturbation=element_payload(witness.v)["coefficients"],
    )


def check_results_payload(results) -> dict:
    return envelope(
        "check_suite_report",
        all_passed=all(r.passed for r in results),
        checks=[
            {"name": r.name, "passed": r.passed, "cases": r.cases, "failures": r.failures}
            for r in results
        ],
    )
