"""Exact free-norm computation by one min-cost flow.

The norm of an element is the minimum cost of transporting its coefficient
masses.  It is solved once, exactly, by successive shortest paths on the
bipartite graph from the nodes of positive coefficient to those of
negative coefficient (the base point balances the masses), and the optimal
plan is kept as integer (source, sink, flow) triples over one mass unit;
its molecule decomposition is a view.  The solver keeps the graph
in int lists indexed by position, sources then sinks in point order.  It
starts from Kuhn's row and column reduction, fills the arcs of reduced
cost zero, and augments by one dense Dijkstra per path.  The same solve
gives the norming function: the solver's node potentials at exit are an
optimal dual, since every source -> sink arc has nonnegative reduced cost
and the arcs carrying flow have reduced cost zero (complementary
slackness).  `norm_certificate` McShane-extends minus the sink potentials
to the whole space (`metric.min_plus`), shifted to vanish at the base
point, and `_certified` proves that finished witness a norming function
(`metric.steep_pair`), as it does the base row of the shortest paths of
`normers_of`.  No shortest-path pass runs after.

The norming functions are the 1-Lipschitz functions tight on the optimal
plan, a system of difference constraints; `normers_of`, which bounds every
value and slope over that set, runs one Floyd-Warshall on it that pivots
on the flow's endpoints only.
The solve and the Floyd-Warshall run on the integer distances of
`space.scaled` and on the integer form an element and a function hold,
numerators over one denominator and values over one scale, so no kernel
rescales Fractions.  A norming face runs on them too: one pass over the
pairs of points, on the function's integer values, rejects a function
steeper than 1 and collects the tight pairs (the pass a total function
keeps, and the canonical molecule function of `functions` is certified
with), and a union-find reads the face dimension off the tight pairs.
Fractions appear only in the values returned, and in a witness or a
decomposition only once something reads it.

Every certificate is checked by exact weak duality before it is returned,
or InternalVerificationFailure is raised; no check waits for a view:
- the plan rebuilds the element: `_check_rebuild` checks its net flow at
  every point against the element's numerators, right after the solve;
- the witness is 1-Lipschitz and pairs with the element to the plan's
  cost: `_certified` checks both on the integer witness it is given, in
  the distance unit, before any Fraction is made.
No LP is solved here; the dense simplex in `lp` is kept as an independent
oracle for the battery and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Sequence

from .elements import FreeElement, Molecule, _by_point, is_positive, support
from .errors import (
    EmptyFace,
    InternalVerificationFailure,
    NotInUnitBall,
    NotPositive,
    ZeroElement,
)
from .functions import LipFunction
from .metric import PointedMetricSpace, floyd_warshall, min_plus, steep_pair
from .records import record

# the arcs of a transport plan, (source, sink, integer flow) in units of 1 / mass
Flows = Sequence[tuple[int, int, int]]

@record
class DualCertificate:
    """Norm value together with a norming 1-Lipschitz function."""

    value: Fraction
    witness: LipFunction


@record
class PrimalCertificate:
    """Norm value together with a molecule decomposition attaining it."""

    value: Fraction
    decomposition: tuple[tuple[Molecule, Fraction], ...]


@record
class NormCertificate:
    """Both halves of a norm computation, certified against each other.

    `dual_witness` is one norming function; which optimal one is returned
    is not part of the contract.  `primal_witness`, one (m(s, t), weight)
    per flow arc, is held as given, or built on first read from the plan
    a certificate of :func:`norm_certificate` keeps (:meth:`_of`).
    """

    value: Fraction
    dual_witness: LipFunction
    primal_witness: tuple[tuple[Molecule, Fraction], ...]

    @classmethod
    def _of(cls, value, dual_witness, mass: int, flows: Flows):
        """The certificate of a checked plan of integer flows in units of 1 / mass."""
        self = cls.__new__(cls)
        for name, v in ("value", value), ("dual_witness", dual_witness), ("_plan", (mass, flows)):
            object.__setattr__(self, name, v)
        return self

    @cached_property
    def primal_witness(self) -> tuple[tuple[Molecule, Fraction], ...]:
        """Flow f on s -> t is the weight f * d(s, t) / mass on m(s, t)."""
        mass, flows = self._plan
        unit, rows = self.dual_witness.space.scaled
        return tuple((Molecule(s, t), Fraction(f * rows[s][t], mass * unit)) for s, t, f in flows)


@record
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


@record
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


def _all_distances(space: PointedMetricSpace, flows: Flows) -> list[list[int]]:
    """Shortest-path lengths between all points, as integers.

    The normers tight on a flow are {f : f(b) - f(a) <= d(a,b), and
    f(s) - f(t) = d(s,t) on every arc (s, t, flow) of the plan}, a system
    of difference constraints (CLRS 24.4): arc a -> b weighs d(a,b), and a
    flow arc tightens s -> t to -d(s,t).  Lengths are the integer
    distances of `space.scaled`, so the closure gives D[a][b] = `unit`
    times the largest f(b) - f(a) over the normers tight on the flow.
    Pivoting on the flow's endpoints P alone gives that closure, in
    O(n^2 |P|): every arc at a point v outside P weighs the distance, so
    by the triangle inequality a -> v -> b is never shorter than a -> b,
    and dropping v (or a whole detour a -> v -> a) leaves a path, or a
    closed walk, through P that is no longer.  So a negative cycle, which
    means the flow was not optimal, becomes a closed walk on P, and the
    pivots close the arcs among P as fully as all n would: it shows on a
    pivot's diagonal, and the check reads the diagonal at every point.
    """
    rows = space.scaled[1]
    W = [list(row) for row in rows]
    for s, t, _ in flows:
        W[s][t] = -rows[s][t]
    D = floyd_warshall(W, sorted({p for s, t, _ in flows for p in (s, t)}))
    if any(D[i][i] < 0 for i in range(space.n)):
        raise InternalVerificationFailure("transport flow is not optimal: negative cycle")
    return D


def free_norm_dual(mu: FreeElement) -> DualCertificate:
    """The dual half of :func:`norm_certificate`: value and norming function."""
    cert = norm_certificate(mu)
    return DualCertificate(cert.value, cert.dual_witness)


def _transport_plan(
    mu: FreeElement,
) -> tuple[int, list[tuple[int, int, int]], dict[int, int]]:
    """Optimal transport plan of an element as (mass unit, flows, sink duals).

    Each flow is (source, sink, integer mass), the mass in units of
    1 / (mass unit).  The sink duals map each sink t to -pi(t), minus its
    node potential at exit, in the integer distance unit of
    `space.scaled`.  The zero element has nothing to move: (1, [], {}).

    Successive shortest paths (Ahuja-Magnanti-Orlin, *Network Flows*,
    ch. 9) from the nodes of positive coefficient to those of negative
    coefficient, the base point carrying minus their sum; moving mass
    through a third point never beats the direct arc (triangle inequality),
    so source -> sink arcs suffice.  Masses are the integer numerators of
    mu over its one denominator, the mass unit, and costs are the integer
    distances of `space.scaled`, so every step is exact; scaling every cost
    by one positive integer leaves the plan as it is.  Node v < k is source
    v and node k + j sink j, both numbered in point order; costs and flows are
    k x l int matrices, potentials pi and masses left int lists.  The start
    potentials are Kuhn's row and column reduction: pi(t) = min over s of
    c(s,t), and pi(s) = max over t of pi(t) - c(s,t), the least keeping the
    reduced costs c(s,t) + pi(s) - pi(t) >= 0.  Before any search, flow then
    fills every arc of reduced cost zero as far as both ends allow, sinks in
    point order and, for each, sources in point order, which breaks ties;
    the reverse of a filled arc has reduced cost zero too.  Each remaining
    augmentation is one dense Dijkstra, O((k + l)^2), on the reduced costs
    c(u,v) + pi(u) - pi(v), kept nonnegative on the residual graph by the
    potential update after it: a linear scan of the reached, unsettled
    nodes settles the nearest (unreached: distance None), a source relaxes
    its cost row and a sink its flow column (the residual arcs back), until
    a sink with demand left is settled.  Ties go to the node reached first,
    the sources with mass left first, in point order, then by relaxation in
    position order; only a strictly smaller distance replaces a predecessor,
    and never at a settled node, so a search ends whatever the costs.
    At exit every source -> sink arc has reduced cost >= 0, and an arc
    carrying flow reduced cost 0, since its residual reverse arc has
    reduced cost >= 0 too: -pi is an optimal dual, which `_certified` turns
    into a norming function.
    """
    space = mu.space
    # the base point balances the masses, the numerators of mu over its den
    supply = sorted([*mu.nums, (space.base, -sum(m for _, m in mu.nums))])
    sources = [p for p, m in supply if m > 0]
    sinks = [p for p, m in supply if m < 0]
    k = len(sources)
    rest = [m for _, m in supply if m > 0] + [-m for _, m in supply if m < 0]
    lengths = space.scaled[1]
    cost = [[lengths[s][t] for t in sinks] for s in sources]
    flow = [[0] * len(sinks) for _ in sources]
    low = [min(column) for column in zip(*cost)]
    pi = [max(map(sub, low, row)) for row in cost] + low
    for j in range(len(sinks)):
        for s, row in enumerate(cost):
            if row[j] + pi[s] == low[j]:
                flow[s][j] = amount = min(rest[s], rest[k + j])
                rest[s] -= amount
                rest[k + j] -= amount

    while any(rest[:k]):
        dist = [0 if r else None for r in rest[:k]] + [None] * len(sinks)
        pred = [None] * len(pi)
        done = [False] * len(pi)
        frontier = [v for v in range(k) if rest[v]]
        while True:
            u = min(frontier, key=dist.__getitem__)
            frontier.remove(u)
            done[u] = True
            level = dist[u] + pi[u]
            if u < k:
                steps = zip(range(k, len(pi)), [level + c - p for c, p in zip(cost[u], pi[k:])])
            elif rest[u]:
                break
            else:
                # residual arcs u -> s undo flow already sent s -> u
                j = u - k
                steps = [(v, level - pi[v] - cost[v][j]) for v, row in enumerate(flow) if row[j]]
            for v, d in steps:
                if dist[v] is None:
                    frontier.append(v)
                elif done[v] or d >= dist[v]:
                    continue
                dist[v], pred[v] = d, u
        du = dist[u]
        for v, d in enumerate(dist):
            pi[v] += d if done[v] else du

        # the path's arcs as (source, sink position, +1 forward or -1 back)
        arcs, v = [], u
        while pred[v] is not None:
            arcs.append((pred[v], v - k, 1) if v >= k else (v, pred[v] - k, -1))
            v = pred[v]
        amount = min([rest[v], rest[u]] + [flow[s][j] for s, j, sign in arcs if sign < 0])
        rest[v] -= amount
        rest[u] -= amount
        for s, j, sign in arcs:
            flow[s][j] += sign * amount
    plan = [(s, t, f) for s, row in zip(sources, flow) for t, f in zip(sinks, row) if f]
    return mu.den, plan, {t: -p for t, p in zip(sinks, pi[k:])}


def _check_rebuild(mu: FreeElement, mass: int, flows: Flows) -> None:
    """Check on integers that a plan in units of 1 / mass rebuilds mu, or raise.

    The mass unit and every flow must be positive, and each flow must join
    two distinct points of the support and the base, the nodes the solver
    and its dual run on.  At every such node, the base included, den times
    flow out minus flow in must be `mass` times the numerator there (at the
    base, minus their sum), den and the numerators being mu's.  Since
    m(s, t) = (delta_s - delta_t) / d(s, t) and delta_base = 0, that is the
    identity sum of w * m(s, t) = mu for the nonnegative weights
    w = flow * d(s, t) / mass.
    """
    den = mu.den
    want = {p: n * mass for p, n in mu.nums}
    want[mu.space.base] = -sum(want.values())
    net = dict.fromkeys(want, 0)
    for s, t, f in flows:
        if f <= 0 or s == t or s not in net or t not in net:
            break
        net[s] += f
        net[t] -= f
    else:
        if mass > 0 and {p: v * den for p, v in net.items()} == want:
            return
    raise InternalVerificationFailure("transport plan does not rebuild the element")


def free_norm_primal(mu: FreeElement) -> PrimalCertificate:
    """The primal half of :func:`norm_certificate`: value and molecule decomposition."""
    cert = norm_certificate(mu)
    return PrimalCertificate(cert.value, cert.primal_witness)


def _certified(mu: FreeElement, mass: int, flows: Flows, E: Sequence[int]) -> NormCertificate:
    """Certificate of a nonzero element from its checked plan and a finished dual witness.

    `E` lists integer values in units of 1 / `unit`, like the distances s
    of `space.scaled`, with E[base] = 0: the McShane-extended sink duals of
    :func:`norm_certificate`, or the base row D[base] of the shortest paths
    of :func:`normers_of`, the largest normer tight on the flow.  It is
    checked as it is given, not repaired first.
    Both sides of weak duality are checked on E:
    - E is 1-Lipschitz, |E[x] - E[y]| <= s[x][y] (:func:`metric.steep_pair`);
    - E pairs with mu to the plan's cost: with den and n_p the denominator
      and numerators of mu, sum of n_p * E[p] over den * unit equals the
      sum of flow * s[s][t] over mass * unit, checked cross-multiplied.
    A 1-Lipschitz function pairing with mu to the cost of a plan that
    rebuilds it proves both optimal.  The Lipschitz check is a guard on
    the construction: on a validated metric both callers' witnesses are
    1-Lipschitz, a minimum of 1-Lipschitz rows and a shortest-path row.
    The witness is made from E over `unit`; its Fraction values, and the
    decomposition of the plan kept, are built only when something reads them.
    """
    space = mu.space
    unit, lengths = space.scaled
    cost = sum(f * lengths[s][t] for s, t, f in flows)
    if steep_pair(E, lengths) or sum(n * E[p] for p, n in mu.nums) * mass != cost * mu.den:
        raise InternalVerificationFailure("dual witness failed verification")
    value = Fraction(cost, mass * unit)
    return NormCertificate._of(value, LipFunction._of(space, unit, E), mass, flows)


def norm_certificate(mu: FreeElement) -> NormCertificate:
    """Solve the transport problem once and certify it by exact weak duality.

    The plan, checked to rebuild mu, bounds the norm from above.  The solver's
    dual on the sinks, McShane-extended to the whole space and shifted to
    vanish at the base point, bounds it from below; equal bounds prove both
    optimal (:func:`_certified`).  No shortest-path pass runs after the
    solve.  With f = -pi, f(p) <= f(t) + s[p][t] for every source p and
    sink t, equal where flow runs, so the minimum of the 1-Lipschitz rows
    f(t) + s[t][.] is at most f on the sinks and at least f on the sources,
    and its balanced pairing, which the shift keeps, is at least that of f,
    the plan cost.  A positive element has the base as its only sink: its
    witness is d(., base).
    """
    space = mu.space
    if mu.is_zero():
        return NormCertificate(Fraction(0), LipFunction._of(space, 1, [0] * space.n), ())
    mass, flows, duals = _transport_plan(mu)
    _check_rebuild(mu, mass, flows)
    lengths = space.scaled[1]
    # the duals are in the distance unit already
    E = min_plus(list(duals.values()), [lengths[t] for t in duals])
    shift = E[space.base]
    return _certified(mu, mass, flows, [e - shift for e in E])


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
    transport norm (`check_positive_facts`).  On integers, the sum is that
    of n_p * s[p][base] over den * unit.
    """
    if not is_positive(mu):
        raise NotPositive("positive_norm requires a positive element")
    unit, lengths = mu.space.scaled
    to_base = lengths[mu.space.base]
    return Fraction(sum(n * to_base[p] for p, n in mu.nums), mu.den * unit)


def norming_face(f: LipFunction, nominal: Molecule | None = None) -> FaceReport:
    """Describe the unit-ball face {mu : <mu, f> = 1} for a 1-Lipschitz f.

    The unit-ball test and the tight scan are one pass over the pairs of
    points on the integers f holds (:func:`functions._tight_pairs`), which
    f keeps as its `_tight`: with f = V / vscale and d = scaled / unit,
    |f(x) - f(y)| <= d(x, y) reads
    |V[x] - V[y]| * unit <= scaled[x][y] * vscale, and the molecule from
    the higher value to the lower is tight on equality.  A pair steeper
    than 1 anywhere raises NotInUnitBall, even where no pair is tight, and
    the tight molecules come out in the order of `ordered_pairs`.  The face
    is their convex hull, and its affine dimension is the rank of the
    homogenized rows [m(p, q), 1] minus one.  Every tight molecule lies on
    the hyperplane <., f> = 1, so the homogenizing column is the sum of the
    coordinate columns weighted by f and the rank is that of the rows
    m(p, q); scaling each by d(p, q) gives the rows e_p - e_q, with no
    coordinate at the base point (delta_base = 0).  Those are the incidence
    rows of the tight graph grounded at the base: the base column is minus
    the sum of the other columns of its component, so their rank is
    n - (connected components), the number of edges of a spanning forest,
    which is the number of merges a union-find makes over the tight pairs.
    `nominal` names the molecule a caller expects to be normed, so the
    sample distinct normer (present iff the face is not a single point) can
    be chosen different from it.

    The face is a point (a unique normer) exactly when its dimension is 0:
    the scan yields each unordered pair at most once (d > 0 fixes the
    direction), so one tight pair makes one merge, and a second pair has an
    endpoint outside the first, which makes a second merge.  The battery's
    exposedness clauses and the tests against the elimination reference
    `fraction_norming_face` check the count independently.
    """
    space = f.space
    _by_point(f)  # a partial function's integers follow its domain, not the points
    pairs = f._tight
    if pairs is None:
        raise NotInUnitBall("norming_face requires Lipschitz constant at most 1")
    tight = [Molecule(x, y) for x, y in pairs]
    if not tight:
        raise EmptyFace("no unit-ball element attains pairing 1 with this function")

    parent = list(range(space.n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for mol in tight:
        a, b = root(mol.p), root(mol.q)
        if a != b:
            parent[a] = b
            merges += 1
    dimension = merges - 1
    unique = len(tight) == 1

    sample = None
    if not unique:
        fallback = nominal if nominal is not None else tight[0]
        sample = next(mol for mol in tight if mol != fallback).as_element(space)
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
    slackness), read off the solver's integer flows, so the shortest paths
    between all points under those constraints (:func:`_all_distances`,
    `unit` times the bounds, one Floyd-Warshall that pivots on the flow's
    endpoints only) bound every value and slope on that set: f(p) is
    fixed when its upper bound D[base][p] meets its lower bound
    -D[p][base], and the slope constraint on (x, y) is shared when even
    the smallest f(x) - f(y), namely -D[x][y], is d(x, y).  The same run
    certifies the norm: its base row is the witness (see `_certified`).
    For a positive element the values on the support are checked to be
    the distances to the base point.
    """
    if mu.is_zero():
        raise ZeroElement("every function norms the zero element")
    space = mu.space
    base = space.base
    mass, flows, _ = _transport_plan(mu)
    _check_rebuild(mu, mass, flows)
    D = _all_distances(space, flows)
    top = D[base]
    cert = _certified(mu, mass, flows, top)
    unit, lengths = space.scaled
    fixed = {p: Fraction(top[p], unit) for p in space.nonbase_points() if top[p] == -D[p][base]}
    shared = frozenset((x, y) for x, y in space.ordered_pairs() if D[x][y] == -lengths[x][y])

    if is_positive(mu):
        for p in support(mu):
            if not top[p] == -D[p][base] == lengths[base][p]:
                raise InternalVerificationFailure(
                    "a normer of a positive element may deviate from d(., base) on the support"
                )
    return NormersReport(cert.value, cert.dual_witness, fixed, shared)
