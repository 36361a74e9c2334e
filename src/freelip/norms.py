"""Exact free-norm computation by one min-cost flow and shortest paths.

The norm of an element is the minimum cost of transporting its
coefficient masses.  It is solved once, exactly, by successive shortest
paths on the bipartite graph from the nodes of positive coefficient to
those of negative coefficient (the base point balances the masses), and
the optimal plan is returned as a molecule decomposition.  The norming
functions are the 1-Lipschitz functions tight on that plan
(complementary slackness); that is a system of difference constraints, so
the largest one is a row of shortest-path distances and is McShane-extended
to the whole space.  Restricting to the support loses nothing: pairings
only see values on the support, a shortest route between support points
never improves by detouring through other points (triangle inequality),
and the extension preserves the Lipschitz constant.

Every certificate is checked by exact weak duality: the witness is
1-Lipschitz, the decomposition rebuilds the element, and the pairing
equals the decomposition weight, or InternalVerificationFailure is raised.
No LP is solved here; the dense simplex in `lp` is kept as an independent
oracle for the battery and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

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
from .rationals import row_echelon

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


def _transport_plan(mu: FreeElement) -> list[tuple[int, int, Fraction]]:
    """Optimal transport plan of a nonzero element as (source, sink, mass).

    Successive shortest paths (Ahuja-Magnanti-Orlin, *Network Flows*,
    ch. 9) on the bipartite graph from the nodes of positive coefficient to
    the nodes of negative coefficient; the base point carries minus the sum
    of the coefficients.  Moving mass through a third point never beats the
    direct arc (triangle inequality), so source -> sink arcs suffice.
    Dijkstra runs on the reduced costs c(u,v) + pi(u) - pi(v), which the
    potential update after each search keeps nonnegative on the residual
    graph.  Masses and costs are scaled to integers by the lcm of their
    denominators, so every step is exact.
    """
    space = mu.space
    supply = dict(mu.coeffs)
    supply[space.base] = -sum(supply.values(), _ZERO)
    sources = [p for p in sorted(supply) if supply[p] > 0]
    sinks = [p for p in sorted(supply) if supply[p] < 0]
    mass = lcm(*(a.denominator for a in supply.values()))
    rest = {p: abs(a.numerator) * (mass // a.denominator) for p, a in supply.items()}
    dists = {(s, t): space.d(s, t) for s in sources for t in sinks}
    unit = lcm(*(d.denominator for d in dists.values()))
    cost = {arc: d.numerator * (unit // d.denominator) for arc, d in dists.items()}
    flow = dict.fromkeys(cost, 0)
    pi = dict.fromkeys(sources, 0)
    pi.update({t: min(cost[s, t] for s in sources) for t in sinks})
    is_sink = set(sinks)

    while any(rest[s] for s in sources):
        dist = {s: 0 for s in sources if rest[s]}
        pred: dict[int, int] = {}
        settled: dict[int, int] = {}
        while True:
            u = min((v for v in dist if v not in settled), key=dist.__getitem__)
            du = settled[u] = dist[u]
            if u in is_sink:
                if rest[u]:
                    break
                # residual arcs u -> s undo flow already sent s -> u
                steps = [(s, pi[u] - pi[s] - cost[s, u]) for s in sources if flow[s, u]]
            else:
                steps = [(t, pi[u] - pi[t] + cost[u, t]) for t in sinks]
            for v, reduced in steps:
                if v not in settled and (v not in dist or du + reduced < dist[v]):
                    dist[v] = du + reduced
                    pred[v] = u
        for v in pi:
            pi[v] += settled.get(v, du)

        path = [u]
        while path[-1] in pred:
            path.append(pred[path[-1]])
        back = [(path[i], path[i + 1]) for i in range(1, len(path) - 1, 2)]
        amount = min([rest[path[-1]], rest[u]] + [flow[arc] for arc in back])
        rest[path[-1]] -= amount
        rest[u] -= amount
        for i in range(0, len(path) - 1, 2):
            flow[path[i + 1], path[i]] += amount
        for arc in back:
            flow[arc] -= amount
    return [(s, t, Fraction(f, mass)) for (s, t), f in flow.items() if f]


def free_norm_primal(mu: FreeElement) -> PrimalCertificate:
    """Norm as the minimum cost of transporting the coefficients.

    The optimal plan of :func:`_transport_plan` is returned as a molecule
    decomposition, checked to rebuild the element, whose weights sum to the
    norm.
    """
    space = mu.space
    if mu.is_zero():
        return PrimalCertificate(_ZERO, ())
    decomposition = tuple(
        (Molecule(s, t), mass * space.d(s, t)) for s, t, mass in _transport_plan(mu)
    )
    rebuilt = zero(space)
    for mol, weight in decomposition:
        rebuilt = rebuilt + mol.as_element(space) * weight
    if rebuilt != mu:
        raise InternalVerificationFailure("transport plan does not rebuild the element")
    return PrimalCertificate(sum(w for _, w in decomposition), decomposition)


def _certified(
    mu: FreeElement, nodes: Sequence[int]
) -> tuple[NormCertificate, dict[int, dict[int, Fraction]]]:
    """Certificate of a nonzero element and the tight distances over `nodes`.

    `nodes` holds the support and the base point.  The witness is the base
    row of the distances, McShane-extended to the whole space; when `nodes`
    is every point the row is that extension already, since a shortest
    path skips the points outside the support (triangle inequality).
    """
    space = mu.space
    primal = free_norm_primal(mu)
    D = _tight_distances(space, nodes, primal.decomposition)
    witness = mcshane_extend(partial_function(space, D[space.base]))
    if lip_constant(witness) > 1 or mu.pair(witness) != primal.value:
        raise InternalVerificationFailure("dual witness failed verification")
    return NormCertificate(primal.value, witness, primal.decomposition), D


def norm_certificate(mu: FreeElement) -> NormCertificate:
    """Solve the transport problem once and certify it by exact weak duality.

    The molecule decomposition bounds the norm from above.  The largest
    potential tight on its flow, over the support plus the base point and
    McShane-extended to the whole space, bounds it from below; equal
    bounds prove both optimal.
    """
    space = mu.space
    if mu.is_zero():
        return NormCertificate(_ZERO, lip_function(space, [0] * space.n), ())
    return _certified(mu, sorted(support(mu) | {space.base}))[0]


def free_norm(mu: FreeElement) -> Fraction:
    """Just the norm value."""
    return norm_certificate(mu).value


def positive_norm(mu: FreeElement) -> Fraction:
    """Norm of a positive element, the sum of a_p d(p, base), in closed form.

    Exact weak duality proves it without a transport solve.  The
    decomposition mu = sum of a_p d(p, base) m(p, base) has nonnegative
    weights adding up to that sum, which bounds the norm from above; the
    function d(., base) is 1-Lipschitz by the triangle inequality that
    `validate_space` enforced and pairs with mu to the same sum, which
    bounds it from below.  The battery compares the formula with the
    transport norm (`check_positive_facts`).
    """
    if not is_positive(mu):
        raise NotPositive("positive_norm requires a positive element")
    base = mu.space.base
    return sum((a * mu.space.d(p, base) for p, a in mu.items), _ZERO)


def _molecule_vector(space: PointedMetricSpace, mol: Molecule) -> tuple[Fraction, ...]:
    coeffs = mol.as_element(space).coeffs
    return tuple(coeffs.get(p, _ZERO) for p in space.nonbase_points())


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
    dimension = len(row_echelon(diffs)[1])
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
    d(x, y).  The same run certifies the norm: its base row is the
    witness (see `_certified`).  For a positive element the values on the
    support are checked to be the distances to the base point.
    """
    if mu.is_zero():
        raise ZeroElement("every function norms the zero element")
    space = mu.space
    base = space.base
    cert, D = _certified(mu, range(space.n))
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
