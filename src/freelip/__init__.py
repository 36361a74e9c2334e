"""Exact toolkit for free spaces over finite pointed metric spaces.

Computes transportation-cost norms by one exact min-cost flow with
witnesses certified by weak duality, supports and positivity of finitely
supported elements, the classical explicit Lipschitz function
constructions, and constructive certification of the extremal structure of
the unit ball and the positive unit ball.  All arithmetic is exact rational; every certificate re-verifies
the identities it claims.

The package imports none of its modules itself.  `_EXPORTS` names the
module of each exported name, and the module ``__getattr__`` (PEP 562)
imports that module on the name's first access, so ``import freelip``
or a command that needs no norm compiles no solver.
"""

from importlib import import_module

# module -> the names it exports, in the order of `__all__`
_EXPORTS = {
    "elements": (
        "FreeElement",
        "Molecule",
        "canonicalize",
        "delta",
        "is_positive",
        "order_leq",
        "subspace_membership",
        "support",
        "zero",
    ),
    "extremal": (
        "EXPOSED",
        "NOT_EXTREME",
        "ExposednessVerdict",
        "PerturbationWitness",
        "almost_positive_witness",
        "attainment_partition",
        "classify_molecule",
        "extended_pairing",
        "maximize_extended_pairing",
        "normers_support_check",
        "positive_ball_extremes",
        "split_positive",
    ),
    "functions": (
        "LipFunction",
        "PartialFunction",
        "WeightFunction",
        "distance_to_base",
        "intersection_property_check",
        "lip_constant",
        "lip_function",
        "mcshane_extend",
        "molecule_norming_function",
        "multiply_by_weight",
        "partial_function",
        "restrict",
        "weight_element",
        "weight_function",
        "weighting_bound",
    ),
    "metric": (
        "PointedMetricSpace",
        "Segment",
        "line_space",
        "space_from_points",
        "validate_space",
    ),
    "norms": (
        "DualCertificate",
        "FaceReport",
        "NormCertificate",
        "NormersReport",
        "PrimalCertificate",
        "free_norm",
        "free_norm_dual",
        "free_norm_primal",
        "norm_certificate",
        "norming_face",
        "normers_of",
        "positive_norm",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value
