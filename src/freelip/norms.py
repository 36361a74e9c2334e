"""Exact free-norm computation by one transport LP and shortest paths.

The norm of an element is the minimum cost of transporting its
coefficient masses, solved once as an exact LP on the support of the
element plus the base point and returned as a molecule decomposition.
The norming functions are the 1-Lipschitz functions tight on the flow of
that plan (complementary slackness); that is a system of difference
constraints, so the largest one is a row of shortest-path distances and is
McShane-extended to the whole space.  Restricting to the support loses
nothing: pairings only see values on the support, a shortest route
between support points never improves by detouring through other points
(triangle inequality), and the extension preserves the Lipschitz constant.

Every certificate is checked by exact weak duality: the witness is
1-Lipschitz, the decomposition rebuilds the element, and the pairing
equals the decomposition weight, or InternalVerificationFailure is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lp
from .elements import FreeElement, Molecule, is_positive, support, zero
from .errors import (
    EmptyFace,
    InternalVerificationFailure,
    NotInUnitBall,
    NotPositive,
    ZeroElement,
)
from .functions import (
    LipFunction,
    distance_to_base,
    lip_constant,
    lip_function,
    mcshane_extend,
    partial_function,
)
from .metric import PointedMetricSpace

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DualCertificate:
    """Norm value together with a norming 1-Lipschitz function."""

    value: Fraction
    witness: LipFunction


@dataclass(frozen=True)
class PrimalCertificate:
    """Norm value together with a molecule decomposition attaining it."""

    value: Fraction
    decomposition: tuple[tuple[Molecule, Fraction], ...]


@dataclass(frozen=True)
class NormCertificate:
    """Both halves of a norm computation, certified against each other.

    `dual_witness` is one norming function; which optimal one is returned
    is not part of the contract.
    """

    value: Fraction
    dual_witness: LipFunction
    primal_witness: tuple[tuple[Molecule, Fraction], ...]


@dataclass(frozen=True)
class FaceReport:
    """The face of the unit ball normed by a given function.

    The unit ball is the convex hull of the molecules, so the face is the
    convex hull of the molecules at which the function attains slope one.
    """

    norming_function: LipFunction
    tight_molecules: tuple[Molecule, ...]
    is_unique_normer: bool
    face_dimension: int
    sample_distinct_normer: FreeElement | None


@dataclass(frozen=True)
class NormersReport:
    """Affine description of the set of norming functions of an element.

    `fixed_values` lists the function values forced on every normer;
    `shared_tight_pairs` lists the slope-one constraints active at every
    normer over the whole space; `witness` is one normer.
    """

    value: Fraction
    witness: LipFunction
    fixed_values: dict[int, Fraction]
    shared_tight_pairs: frozenset[tuple[int, int]]


def _tight_distances(
    space: PointedMetricSpace,
    nodes: Sequence[int],
    decomposition: Sequence[tuple[Molecule, Fraction]],
) -> dict[int, dict[int, Fraction]]:
    """Shortest-path bounds on the normers tight on a transport flow.

    The optimal dual set is {f : f(b) - f(a) <= d(a,b), and
    f(p) - f(q) = d(p,q) on every molecule (p, q) carrying flow}, a system
    of difference constraints: arc a -> b weighs d(a,b), and a flow
    molecule tightens p -> q to -d(p,q).  Floyd-Warshall on that graph
    gives D[a][b] = max of f(b) - f(a) over the set (CLRS 24.4).  A
    negative cycle means the flow was not optimal.
    """
    index = {p: i for i, p in enumerate(nodes)}
    D = [[space.d(a, b) for b in nodes] for a in nodes]
    for mol, _ in decomposition:
        D[index[mol.p]][index[mol.q]] = -space.d(mol.p, mol.q)
    for k, row_k in enumerate(D):
        for row in D:
            through = row[k]
            for j, via in enumerate(row_k):
                if through + via < row[j]:
                    row[j] = through + via
    if any(D[i][i] < 0 for i in range(len(nodes))):
        raise InternalVerificationFailure("transport flow is not optimal: negative cycle")
    return {a: dict(zip(nodes, D[i])) for i, a in enumerate(nodes)}


def free_norm_dual(mu: FreeElement) -> DualCertificate:
    """The dual half of :func:`norm_certificate`: value and norming function."""
    cert = norm_certificate(mu)
    return DualCertificate(cert.value, cert.dual_witness)


def free_norm_primal(mu: FreeElement) -> PrimalCertificate:
    """Norm via the primal LP: minimum-cost transport of the coefficients.

    One nonnegative flow variable per ordered pair of support-or-base
    nodes; the net divergence at every non-base node must equal its
    coefficient (the base point absorbs the residual).  The optimal flow is
    returned as a molecule decomposition whose weights sum to the norm.
    """
    space = mu.space
    if mu.is_zero():
        return PrimalCertificate(_ZERO, ())
    nodes = sorted(support(mu) | {space.base})
    base = space.base
    arcs = [(x, y) for x in nodes for y in nodes if x != y]
    arc_of = {a: i for i, a in enumerate(arcs)}
    cost = [space.d(x, y) for x, y in arcs]
    coeffs = mu.coeffs
    rows = []
    for p in nodes:
        if p == base:
            continue
        row = [_ZERO] * len(arcs)
        for y in nodes:
            if y == p:
                continue
            row[arc_of[(p, y)]] += 1
            row[arc_of[(y, p)]] -= 1
        rows.append((row, lp.EQ, coeffs.get(p, _ZERO)))
    sol = lp.minimize(cost, rows).require_optimal()

    decomposition = []
    rebuilt = zero(space)
    total = _ZERO
    for (x, y), flow in zip(arcs, sol.x):
        if flow != 0:
            mol = Molecule(x, y)
            weight = flow * space.d(x, y)
            decomposition.append((mol, weight))
            rebuilt = rebuilt + mol.as_element(space) * weight
            total += abs(weight)
    if rebuilt != mu or total != sol.value:
        raise InternalVerificationFailure("primal decomposition failed verification")
    return PrimalCertificate(sol.value, tuple(decomposition))


def norm_certificate(mu: FreeElement) -> NormCertificate:
    """Solve the transport LP once and certify it by exact weak duality.

    The molecule decomposition bounds the norm from above.  The largest
    potential tight on its flow, over the support plus the base point and
    McShane-extended to the whole space, bounds it from below; equal
    bounds prove both optimal.
    """
    space = mu.space
    if mu.is_zero():
        return NormCertificate(_ZERO, lip_function(space, [0] * space.n), ())
    primal = free_norm_primal(mu)
    base = space.base
    nodes = sorted(support(mu) | {base})
    D = _tight_distances(space, nodes, primal.decomposition)
    witness = mcshane_extend(partial_function(space, D[base]))
    if lip_constant(witness) > 1 or mu.pair(witness) != primal.value:
        raise InternalVerificationFailure("dual witness failed verification")
    return NormCertificate(primal.value, witness, primal.decomposition)


def free_norm(mu: FreeElement) -> Fraction:
    """Just the norm value."""
    return norm_certificate(mu).value


def positive_norm(mu: FreeElement) -> Fraction:
    """Norm of a positive element: pair against the distance-to-base function.

    Cross-checked against the certified transport solve on every call.
    """
    if not is_positive(mu):
        raise NotPositive("positive_norm requires a positive element")
    base = mu.space.base
    value = sum((a * mu.space.d(p, base) for p, a in mu.items), _ZERO)
    if value != free_norm_dual(mu).value:
        raise InternalVerificationFailure("positive-element norm formula disagrees with LP")
    return value


def _molecule_vector(space: PointedMetricSpace, mol: Molecule) -> tuple[Fraction, ...]:
    coeffs = mol.as_element(space).coeffs
    return tuple(coeffs.get(p, _ZERO) for p in space.nonbase_points())


def _rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, m):
            if rows[i][col] != 0:
                f = rows[i][col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == m:
            break
    return rank


def norming_face(f: LipFunction, nominal: Molecule | None = None) -> FaceReport:
    """Describe the unit-ball face {mu : <mu, f> = 1} for a 1-Lipschitz f.

    The tight molecules are scanned exhaustively; the face is their convex
    hull and its affine dimension is computed by exact rank.  `nominal`
    names the molecule a caller expects to be normed, so the sample
    distinct normer (present iff the face is not a single point) can be
    chosen different from it.
    """
    space = f.space
    if lip_constant(f) > 1:
        raise NotInUnitBall("norming_face requires Lipschitz constant at most 1")
    tight = [
        Molecule(x, y)
        for x, y in space.ordered_pairs()
        if f.values[x] - f.values[y] == space.d(x, y)
    ]
    if not tight:
        raise EmptyFace("no unit-ball element attains pairing 1 with this function")

    vectors = [_molecule_vector(space, mol) for mol in tight]
    first = vectors[0]
    diffs = [[a - b for a, b in zip(v, first)] for v in vectors[1:]]
    dimension = _rank(diffs)
    unique = len(tight) == 1

    sample = None
    if not unique:
        fallback = nominal if nominal is not None else tight[0]
        for mol in tight:
            if (mol.p, mol.q) != (fallback.p, fallback.q):
                sample = mol.as_element(space)
                break
    if unique != (dimension == 0):
        raise InternalVerificationFailure("face dimension disagrees with uniqueness")
    return FaceReport(
        norming_function=f,
        tight_molecules=tuple(tight),
        is_unique_normer=unique,
        face_dimension=dimension,
        sample_distinct_normer=sample,
    )


def normers_of(mu: FreeElement) -> NormersReport:
    """Affine description of every norming function of a nonzero element.

    Works over the whole space.  The normers are the 1-Lipschitz functions
    tight on the flow of one optimal transport plan (complementary
    slackness), so one Floyd-Warshall over all points bounds every value
    and slope on that set: f(p) is fixed when its upper bound D[base][p]
    meets its lower bound -D[p][base], and the slope constraint on (x, y)
    is shared when even the smallest f(x) - f(y), namely -D[x][y], is
    d(x, y).  For a positive element the values on the support are checked
    to be the distances to the base point.
    """
    if mu.is_zero():
        raise ZeroElement("every function norms the zero element")
    space = mu.space
    base = space.base
    cert = norm_certificate(mu)
    D = _tight_distances(space, range(space.n), cert.primal_witness)
    fixed = {
        p: D[base][p] for p in space.nonbase_points() if D[base][p] == -D[p][base]
    }
    shared = frozenset(
        (x, y) for x, y in space.ordered_pairs() if D[x][y] == -space.d(x, y)
    )

    if is_positive(mu):
        rho = distance_to_base(space)
        for p in support(mu):
            if fixed.get(p) != rho.values[p]:
                raise InternalVerificationFailure(
                    "a normer of a positive element may deviate from d(., base) on the support"
                )
    return NormersReport(
        value=cert.value,
        witness=cert.dual_witness,
        fixed_values=fixed,
        shared_tight_pairs=shared,
    )
