"""Exact toolkit for free spaces over finite pointed metric spaces.

Computes transportation-cost norms by one exact min-cost flow with
witnesses certified by weak duality, supports and positivity of finitely
supported elements, the classical explicit Lipschitz function
constructions, and constructive certification of the extremal structure of
the unit ball and the positive unit ball.  All arithmetic is exact rational; every certificate re-verifies
the identities it claims.
"""

from .elements import (
    FreeElement,
    Molecule,
    canonicalize,
    delta,
    is_positive,
    order_leq,
    subspace_membership,
    support,
    zero,
)
from .extremal import (
    EXPOSED,
    NOT_EXTREME,
    ExposednessVerdict,
    PerturbationWitness,
    almost_positive_witness,
    attainment_partition,
    classify_molecule,
    extended_pairing,
    maximize_extended_pairing,
    normers_support_check,
    positive_ball_extremes,
    split_positive,
)
from .functions import (
    LipFunction,
    PartialFunction,
    WeightFunction,
    distance_to_base,
    intersection_property_check,
    lip_constant,
    lip_function,
    mcshane_extend,
    molecule_norming_function,
    multiply_by_weight,
    partial_function,
    restrict,
    weight_element,
    weight_function,
    weighting_bound,
)
from .metric import (
    PointedMetricSpace,
    Segment,
    line_space,
    space_from_points,
    validate_space,
)
from .norms import (
    DualCertificate,
    FaceReport,
    NormCertificate,
    NormersReport,
    PrimalCertificate,
    free_norm,
    free_norm_dual,
    free_norm_primal,
    norm_certificate,
    norming_face,
    normers_of,
    positive_norm,
)

__version__ = "0.1.0"

# the names imported above, without the submodules the imports bound
__all__ = [
    n for n, v in list(globals().items()) if n[0] != "_" and type(v) is not type(elements)
]
