"""Retired formulations, kept as independent test oracles.

The library computes norms from one min-cost flow and reads the norming
functions off that flow by shortest paths.  These are the formulations it
used before: the dense dual LP over the 1-Lipschitz ball, and one probe LP
per value and per slope over the optimal face of that dual LP.  They share
nothing with the library but the generic simplex.  The norm has an outside
reference as well, which shares nothing with the library: networkx's
network simplex on the integer-scaled transport problem.

The generic simplex has a reference here too: the same two-phase
Bland's-rule simplex on a Fraction tableau.  `lp` runs it on a
fraction-free integer tableau, and the two must take the same pivots and
return the same (status, value, x).

So do the integer kernels of `norms`, `functions` and `metric`: an
all-pairs Floyd-Warshall over Fractions for the shortest paths, the norm
certificate's witness McShane-extended, measured and paired over
Fractions, the face of a function scanned and ranked on Fraction molecule
vectors, the rebuild of an element from its decomposition by element
arithmetic, the canonical norming function of a molecule evaluated on
Fraction distances, and the relaxed segment bounded by d(p,q) / (1 -
epsilon) over Fractions.

Extremality has a reference that never consults the molecules: a transport
LP per coordinate.  The brute-force extremality oracle of `checks` has its
earlier form as a reference: molecule vectors read off `Molecule.as_element`,
and one convex-hull LP per ordered pair, where `checks` solves one per
unordered pair.

Elements have a reference too: coefficients summed over Fractions,
sorted, without zeros or the base point, where `elements` keeps one
integer numerator per point over one denominator.  So does
`canonicalize`: its earlier body, which adds every value to a running
sum that starts at 0.

Spaces have references too: the triangle inequality scanned over every
triple in Fraction arithmetic, the random-space closure over Fractions, and
the Fraction distance matrices the other builders once validated.

The battery's random draws have their Fraction construction as a
reference: the same draws made into Fractions and built through
`canonicalize`, `lip_function`, `weight_function` and `partial_function`,
where the generators build the integer form directly.  So does its dense
transport oracle: the same LP stated on the Fraction distances and
coefficients, where `checks` states it on the stored integers.

The almost-positive witness has its general form as a reference: plateau
bumps of a radius kept inside the attainment cell by a margin, as in the
paper, where the library puts point weights.  The bump itself lives here,
since the library has no use for it on a finite space.  Its attainment
cells have a reference that takes the McShane minimum over Fractions, where
the library reads it off the integer McShane kernel.  Its weights have the
Fraction kernel vector as a reference: the rows are lam's masses and those
masses times the extension's values, where the library puts lam's
numerators and those numerators times the extension's integers.
"""

import math
from fractions import Fraction

import pytest

from freelip import lp
from freelip.elements import FreeElement, Molecule, canonicalize, support, zero
from freelip.errors import EmptyFace, InternalVerificationFailure, NotInUnitBall
from freelip.extremal import (
    PerturbationWitness,
    _kernel_vector,
    attainment_partition,
    maximize_extended_pairing,
)
from freelip.functions import (
    WeightFunction,
    lip_constant,
    lip_function,
    partial_function,
    weight_element,
    weight_function,
)
from freelip.generators import _random_support, random_rational
from freelip.norms import FaceReport, NormCertificate
from freelip.rationals import as_fraction, row_echelon, scale_to_integers

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FractionSimplex:
    """`lp._Simplex` with every row normalised to Fractions at each pivot."""

    def __init__(self, c, rows, free):
        self.nvars = len(c)
        # split free variables into nonnegative pairs
        self.col_of: list[tuple[int, int | None]] = []
        ncols = 0
        for j in range(self.nvars):
            if j in free:
                self.col_of.append((ncols, ncols + 1))
                ncols += 2
            else:
                self.col_of.append((ncols, None))
                ncols += 1
        self.nstruct = ncols
        self.c_ext = self._extend(c)

        self.A: list[list[Fraction]] = []
        self.b: list[Fraction] = []
        self.basis: list[int] = []
        self.art_cols: set[int] = set()
        self._build(rows)

    def _extend(self, coeffs) -> list[Fraction]:
        row = [_ZERO] * self.nstruct
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            a = Fraction(a)
            pos, neg = self.col_of[j]
            row[pos] = a
            if neg is not None:
                row[neg] = -a
        return row

    def _build(self, rows):
        # first pass: slack-augmented equations, rhs made nonnegative
        pending = []  # (ext_row, rhs, slack_sign or 0)
        for coeffs, rel, rhs in rows:
            if len(coeffs) != self.nvars:
                raise ValueError("constraint length does not match objective")
            row = self._extend(coeffs)
            rhs = Fraction(rhs)
            if rel == lp.GEQ:
                row = [-a for a in row]
                rhs = -rhs
                rel = lp.LEQ
            if rel == lp.LEQ:
                slack = 1
            elif rel == lp.EQ:
                slack = 0
            else:
                raise ValueError(f"unknown relation {rel!r}")
            if rhs < 0:
                row = [-a for a in row]
                rhs = -rhs
                slack = -slack
            pending.append((row, rhs, slack))

        nslack = sum(1 for _, _, s in pending if s != 0)
        nart = sum(1 for _, _, s in pending if s != 1)
        total = self.nstruct + nslack + nart
        slack_at = self.nstruct
        art_at = self.nstruct + nslack

        for row, rhs, slack in pending:
            full = row + [_ZERO] * (nslack + nart)
            if slack != 0:
                full[slack_at] = Fraction(slack)
                basic = slack_at if slack == 1 else None
                slack_at += 1
            else:
                basic = None
            if basic is None:
                full[art_at] = _ONE
                self.art_cols.add(art_at)
                basic = art_at
                art_at += 1
            self.A.append(full)
            self.b.append(rhs)
            self.basis.append(basic)
        self.ncols = total

    # -- tableau mechanics ---------------------------------------------

    def _pivot(self, i: int, j: int, r: list[Fraction], value: Fraction) -> Fraction:
        A, b = self.A, self.b
        piv = A[i][j]
        if piv != 1:
            inv = _ONE / piv
            A[i] = [v * inv for v in A[i]]
            b[i] = b[i] * inv
        row, bi = A[i], b[i]
        for k in range(len(A)):
            if k != i:
                f = A[k][j]
                if f != 0:
                    A[k] = [x - f * y for x, y in zip(A[k], row)]
                    b[k] = b[k] - f * bi
        f = r[j]
        if f != 0:
            r[:] = [x - f * y for x, y in zip(r, row)]
            value = value + f * bi
        self.basis[i] = j
        return value

    def _reduced_costs(self, cost: list[Fraction]) -> tuple[list[Fraction], Fraction]:
        r = list(cost)
        value = _ZERO
        for i, col in enumerate(self.basis):
            cb = cost[col]
            if cb != 0:
                row = self.A[i]
                r = [x - cb * y for x, y in zip(r, row)]
                value = value + cb * self.b[i]
        return r, value

    def _run(self, r: list[Fraction], value: Fraction, blocked: set[int]):
        """Bland's rule: smallest improving column, smallest basic on ties."""
        A, b, basis = self.A, self.b, self.basis
        m = len(A)
        while True:
            enter = -1
            for j in range(self.ncols):
                if r[j] > 0 and j not in blocked:
                    enter = j
                    break
            if enter < 0:
                return lp.OPTIMAL, value
            leave = -1
            best = None
            for i in range(m):
                aij = A[i][enter]
                if aij > 0:
                    ratio = b[i] / aij
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return lp.UNBOUNDED, None
            value = self._pivot(leave, enter, r, value)

    # -- driver ---------------------------------------------------------

    def solve(self) -> lp.LPSolution:
        if self.art_cols:
            cost1 = [_ZERO] * self.ncols
            for j in self.art_cols:
                cost1[j] = Fraction(-1)
            r, value = self._reduced_costs(cost1)
            status, value = self._run(r, value, set())
            # phase 1 is always bounded (objective <= 0)
            if value != 0:
                return lp.LPSolution(lp.INFEASIBLE, None, None)
            self._evict_artificials()

        cost2 = self.c_ext + [_ZERO] * (self.ncols - self.nstruct)
        r, value = self._reduced_costs(cost2)
        status, value = self._run(r, value, self.art_cols)
        if status == lp.UNBOUNDED:
            return lp.LPSolution(lp.UNBOUNDED, None, None)
        return lp.LPSolution(lp.OPTIMAL, value, self._solution())

    def _evict_artificials(self):
        """Pivot basic artificials out (value 0) and drop redundant rows."""
        keep = []
        for i in range(len(self.A)):
            if self.basis[i] not in self.art_cols:
                keep.append(i)
                continue
            target = -1
            for j in range(self.ncols):
                if j not in self.art_cols and self.A[i][j] != 0:
                    target = j
                    break
            if target >= 0:
                dummy = [_ZERO] * self.ncols
                self._pivot(i, target, dummy, _ZERO)
                keep.append(i)
            # else: the row is 0 = 0 across structural columns; drop it
        if len(keep) != len(self.A):
            self.A = [self.A[i] for i in keep]
            self.b = [self.b[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]

    def _solution(self) -> tuple[Fraction, ...]:
        ext = [_ZERO] * self.ncols
        for i, col in enumerate(self.basis):
            ext[col] = self.b[i]
        out = []
        for j in range(self.nvars):
            pos, neg = self.col_of[j]
            out.append(ext[pos] - ext[neg] if neg is not None else ext[pos])
        return tuple(out)


def dual_rows(space, nodes):
    """Slope constraints f(x) - f(y) <= d(x,y) over ordered node pairs.

    Returns the variable index of each non-base node and the LP rows.
    """
    base = space.base
    var_of = {p: i for i, p in enumerate(q for q in nodes if q != base)}
    nvars = len(var_of)
    rows = []
    for x in nodes:
        for y in nodes:
            if x == y:
                continue
            coeffs = [_ZERO] * nvars
            if x != base:
                coeffs[var_of[x]] += 1
            if y != base:
                coeffs[var_of[y]] -= 1
            rows.append((coeffs, lp.LEQ, space.d(x, y)))
    return var_of, rows


def pairing_objective(mu, var_of):
    objective = [_ZERO] * len(var_of)
    for p, a in mu.items:
        objective[var_of[p]] = a
    return objective


def dual_lp_norm(mu, nodes) -> Fraction:
    """max <mu, f> over functions 1-Lipschitz on `nodes` (base and support included)."""
    var_of, rows = dual_rows(mu.space, nodes)
    objective = pairing_objective(mu, var_of)
    return lp.maximize(objective, rows, free=range(len(var_of))).require_optimal().value


def normers_by_probes(mu):
    """(value, fixed_values, shared_tight_pairs) by one LP per probe.

    Solves the dual LP over the whole space, then bounds every non-base
    value and every slope tight at that optimum over the optimal face.
    """
    space = mu.space
    var_of, rows = dual_rows(space, range(space.n))
    nvars = len(var_of)
    free = range(nvars)
    objective = pairing_objective(mu, var_of)
    sol = lp.maximize(objective, rows, free=free).require_optimal()
    face_rows = rows + [(objective, lp.EQ, sol.value)]
    values = {p: sol.x[i] for p, i in var_of.items()}
    values[space.base] = _ZERO

    fixed = {}
    for p, i in var_of.items():
        probe = [_ZERO] * nvars
        probe[i] = Fraction(1)
        hi = lp.maximize(probe, face_rows, free=free).require_optimal()
        lo = lp.minimize(probe, face_rows, free=free).require_optimal()
        if hi.value == lo.value:
            fixed[p] = hi.value

    shared = set()
    for x, y in space.ordered_pairs():
        if values[x] - values[y] != space.d(x, y):
            continue  # not tight at one optimum, so not tight on the face
        probe = [_ZERO] * nvars
        if x != space.base:
            probe[var_of[x]] += 1
        if y != space.base:
            probe[var_of[y]] -= 1
        lo = lp.minimize(probe, face_rows, free=free).require_optimal()
        if lo.value == space.d(x, y):
            shared.add((x, y))
    return sol.value, fixed, frozenset(shared)


def networkx_transport_norm(mu) -> Fraction:
    """Independent oracle: integer-scaled min-cost flow via networkx."""
    nx = pytest.importorskip("networkx")
    space = mu.space
    coeffs = mu.coeffs
    dist_scale = math.lcm(
        *(space.d(x, y).denominator for x, y in space.ordered_pairs()), 1
    )
    mass_scale = math.lcm(*(a.denominator for a in coeffs.values()), 1)
    G = nx.DiGraph()
    residual = 0
    for p in space.points():
        a = coeffs.get(p, Fraction(0))
        scaled = int(a * mass_scale)
        if p != space.base:
            # network demand is inflow minus outflow
            G.add_node(p, demand=-scaled)
            residual += scaled
    G.add_node(space.base, demand=residual)
    for x, y in space.ordered_pairs():
        G.add_edge(x, y, weight=int(space.d(x, y) * dist_scale))
    value, _ = nx.network_simplex(G)
    return Fraction(value, mass_scale * dist_scale)


def tight_distances(space, nodes, decomposition):
    """D[a][b] = max of f(b) - f(a) over the normers tight on a flow, as Fractions.

    Floyd-Warshall over `nodes` on the difference constraints: arc a -> b
    weighs d(a,b), and a flow molecule tightens p -> q to -d(p,q).  A
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


def fraction_certified(mu, primal, values):
    """`norms._certified` on Fractions: the witness and its weak-duality checks.

    The integer values, in units of 1 / `unit`, become Fractions, are
    McShane-extended by the Fraction minimum, shifted to vanish at the base
    point, measured by `lip_constant` and paired with mu by element
    arithmetic.
    """
    space = mu.space
    unit = space.scaled[0]
    values = {q: Fraction(v, unit) for q, v in values.items()}
    extension = [min(v + space.d(q, x) for q, v in values.items()) for x in space.points()]
    witness = lip_function(space, [e - extension[space.base] for e in extension])
    if lip_constant(witness) > 1 or mu.pair(witness) != primal.value:
        raise InternalVerificationFailure("dual witness failed verification")
    return NormCertificate(primal.value, witness, primal.decomposition)


def fraction_norming_face(f, nominal=None):
    """`norms.norming_face` with the tight pairs and the rank taken on Fractions.

    The affine dimension is the rank of the differences of the molecule
    vectors from the first one.
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

    vectors = []
    for mol in tight:
        coeffs = mol.as_element(space).coeffs
        vectors.append([coeffs.get(p, _ZERO) for p in space.nonbase_points()])
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


def fraction_rebuild(space, decomposition):
    """sum of weight * molecule over a decomposition, by FreeElement arithmetic."""
    rebuilt = zero(space)
    for mol, weight in decomposition:
        rebuilt = rebuilt + mol.as_element(space) * weight
    return rebuilt


def fraction_items(space, terms):
    """The items of the element sum of a * delta(p) over (p, a) in `terms`, over Fractions.

    A point may repeat; the items are sorted by point, with no zero and no
    base point, as `elements.FreeElement.items` are.
    """
    acc = {}
    for p, a in terms:
        acc[p] = acc.get(p, _ZERO) + Fraction(a)
    return tuple(sorted((p, a) for p, a in acc.items() if a != 0 and p != space.base))


def fraction_canonicalize(space, raw):
    """`elements.canonicalize` as it once summed: every value added to 0 or its point's sum."""
    acc = {}
    for key, value in raw.items():
        idx = space.resolve(key)
        acc[idx] = acc.get(idx, 0) + as_fraction(value)
    kept = sorted((p, a) for p, a in acc.items() if a != 0 and p != space.base)
    den, nums = scale_to_integers([a for _, a in kept])
    return FreeElement(space, den, tuple((p, n) for (p, _), n in zip(kept, nums)))


def fraction_segment(space, p, q, epsilon):
    """Members of `metric.PointedMetricSpace.segment` by the Fraction bound."""
    bound = space.d(p, q) / (1 - epsilon)
    return frozenset(x for x in space.points() if space.d(p, x) + space.d(x, q) <= bound)


def fraction_molecule_norming_values(space, p, q):
    """Values of `functions.molecule_norming_function` on Fraction distances."""
    half = space.d(p, q) / 2

    def raw(x):
        return half * (space.d(x, q) - space.d(x, p)) / (space.d(x, q) + space.d(x, p))

    shift = raw(space.base)
    return tuple(raw(x) - shift for x in space.points())


def is_extreme_by_lp(unit):
    """Whether a norm-one element is an extreme point of the unit ball, by LP.

    Never consults the molecules: `unit` is extreme iff d = 0 is the only
    d with ||unit + d|| <= 1 and ||unit - d|| <= 1, that is iff the maximum
    of d_i and of -d_i over that set is 0 for every coordinate i.  Each of
    the two norm bounds is a dense transport LP: a nonnegative flow on every
    ordered pair of points, of cost at most 1, whose net divergence at each
    non-base point is the coefficient of unit + d (or unit - d); d is free.
    That makes 2(n - 1) LPs.
    """
    space = unit.space
    points = space.nonbase_points()
    arcs = list(space.ordered_pairs())
    k, m = len(arcs), len(points)
    cost = [space.d(x, y) for x, y in arcs]
    coeffs = unit.coeffs
    rows = []
    for i, p in enumerate(points):
        divergence = [Fraction(int(x == p) - int(y == p)) for x, y in arcs]
        shift = [_ZERO] * m
        shift[i] = _ONE
        target = coeffs.get(p, _ZERO)
        # flow of unit + d: divergence(x+) - d = unit; of unit - d: divergence(x-) + d = unit
        rows.append((divergence + [_ZERO] * k + [-v for v in shift], lp.EQ, target))
        rows.append(([_ZERO] * k + divergence + shift, lp.EQ, target))
    rows.append((cost + [_ZERO] * (k + m), lp.LEQ, _ONE))
    rows.append(([_ZERO] * k + cost + [_ZERO] * m, lp.LEQ, _ONE))
    free = range(2 * k, 2 * k + m)
    for i in range(m):
        for sign in (_ONE, -_ONE):
            objective = [_ZERO] * (2 * k + m)
            objective[2 * k + i] = sign
            if lp.maximize(objective, rows, free=free).require_optimal().value != 0:
                return False
    return True


def midpoint_halves_by_cases(space, p, q):
    """The midpoint halves of a non-extreme molecule, by the two-branch construction.

    Through the interior segment point x first by label, found on the
    Fraction distances, with a = m(p, x), b = m(x, q) and
    t = d(p, x) / d(p, q): for t <= 1/2 the halves are 2t a + (1 - 2t) b
    and b, and otherwise a and (2t - 1) a + (2 - 2t) b.  Either way they
    average to t a + (1 - t) b = m(p, q).
    """
    d = space.d
    inside = [x for x in space.points() if x not in (p, q) and d(p, x) + d(x, q) == d(p, q)]
    x = min(inside, key=lambda i: space.labels[i])
    t = d(p, x) / d(p, q)
    a, b = Molecule(p, x).as_element(space), Molecule(x, q).as_element(space)
    if 2 * t <= 1:
        return a * (2 * t) + b * (1 - 2 * t), b
    return a, a * (2 * t - 1) + b * (2 - 2 * t)


def molecule_vectors_by_elements(space):
    """Coordinates of each molecule over the non-base points, read off its element."""
    points = space.nonbase_points()
    out = {}
    for p, q in space.ordered_pairs():
        coeffs = Molecule(p, q).as_element(space).coeffs
        out[(p, q)] = tuple(coeffs.get(x, _ZERO) for x in points)
    return out


def extreme_molecules_per_ordered_pair(vectors):
    """Pairs whose molecule is no convex combination of the others, one LP per ordered pair.

    Assumes nothing of the ball's central symmetry: the LP for (q, p) is
    solved as well as the one for (p, q), with every entry a Fraction.
    """
    extreme = set()
    for pair, target in vectors.items():
        others = [v for key, v in vectors.items() if key != pair]
        rows = []
        for i in range(len(target)):
            rows.append(([Fraction(v[i]) for v in others], lp.EQ, Fraction(target[i])))
        rows.append(([_ONE] * len(others), lp.EQ, _ONE))
        sol = lp.maximize([_ZERO] * len(others), rows)
        if sol.status == lp.INFEASIBLE:
            extreme.add(pair)
    return extreme


def fraction_triangle_violation(matrix):
    """The first (i, j, k) with d(i,k) > d(i,j) + d(j,k) over Fractions, or None."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][k] > matrix[i][j] + matrix[j][k]:
                    return (i, j, k)
    return None


def fraction_closure_matrix(rng, n):
    """The distances of `generators.random_space(rng, n)`, closed over Fractions."""
    w = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = random_rational(rng, max_num=12, max_den=3)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = w[i][k] + w[k][j]
                if i != j and through < w[i][j]:
                    w[i][j] = through
    return w


def fraction_line_matrix(coords):
    """|a - b| over Fractions: the matrix `metric.space_from_points(coords)` once validated."""
    coords = [Fraction(v) for v in coords]
    return [[abs(a - b) for b in coords] for a in coords]


def fraction_line_subset_matrix(rng, n):
    """The distances of `generators.random_line_subset(rng, n)`, drawn as Fractions."""
    coords = set()
    while len(coords) < n:
        coords.add(Fraction(rng.randint(0, 4 * n), rng.randint(1, 3)))
    return fraction_line_matrix(sorted(coords))


def fraction_random_positive_element(rng, space, max_support=None, min_support=1):
    """`generators.random_positive_element` as it was once built, through `canonicalize`."""
    supp = _random_support(rng, space, max_support, min_support)
    return canonicalize(space, {p: random_rational(rng) for p in supp})


def fraction_random_element(rng, space, max_support=None):
    """`generators.random_element` as it was once built, through `canonicalize`."""
    supp = _random_support(rng, space, max_support, 1)
    return canonicalize(space, {p: rng.choice((1, -1)) * random_rational(rng) for p in supp})


def fraction_random_lip0(rng, space, unit_ball=False):
    """`generators.random_lip0` as it was once built, from Fraction values."""
    values = [
        Fraction(0)
        if x == space.base
        else rng.choice((1, -1, 1)) * random_rational(rng)
        for x in range(space.n)
    ]
    f = lip_function(space, values)
    if unit_ball:
        L = lip_constant(f)
        if L > 1:
            f = lip_function(space, [v / L for v in f.values])
    return f


def fraction_random_weight(rng, space, nonneg=False):
    """`generators.random_weight` as it was once built, from Fraction values."""
    signs = (1,) if nonneg else (1, -1)
    values = [
        rng.choice(signs) * random_rational(rng) if rng.random() < 0.6 else Fraction(0)
        for _ in range(space.n)
    ]
    return weight_function(space, values)


def fraction_random_partial(rng, space, domain):
    """`checks._random_partial` as it was once built, from Fraction values."""
    values = {
        p: Fraction(0)
        if p == space.base
        else rng.choice((1, -1)) * Fraction(rng.randint(0, 9), rng.randint(1, 3))
        for p in domain
    }
    pf = partial_function(space, values)
    L = lip_constant(pf)
    if L > 1:
        pf = partial_function(space, {p: v / L for p, v in pf.values.items()})
    return pf


def fraction_transport_bruteforce(mu):
    """`checks.transport_norm_bruteforce` stated on the Fraction views of mu and its space."""
    space = mu.space
    nodes = sorted(support(mu) | {space.base})
    arcs = [(x, y) for x in nodes for y in nodes if x != y]
    rows = []
    for p in nodes:
        if p == space.base:
            continue
        row = [(x == p) - (y == p) for x, y in arcs]
        rows.append((row, lp.EQ, mu.coeffs.get(p, _ZERO)))
    sol = lp.minimize([space.d(x, y) for x, y in arcs], rows).require_optimal()
    decomposition = tuple(
        (Molecule(x, y), flow * space.d(x, y)) for (x, y), flow in zip(arcs, sol.x) if flow
    )
    return sol.value, decomposition


def fraction_kernel_weights(lam, extension, points):
    """The weights c, h and v of `extremal.almost_positive_witness` over Fractions.

    c spans the kernel of the rows a_i and a_i f(i) on the three `points`,
    for a the coefficients of lam and f the extension, scaled to sup 1; h
    puts c on the points and v weights lam by h.
    """
    a = lam.coeffs
    u = [a[p] for p in points]
    w = [a[p] * extension(p) for p in points]
    cross = (
        u[1] * w[2] - u[2] * w[1],
        u[2] * w[0] - u[0] * w[2],
        u[0] * w[1] - u[1] * w[0],
    )
    if not any(cross):
        cross = (u[1], -u[0], _ZERO)
    scale = max(abs(v) for v in cross)
    c = tuple(v / scale for v in cross)
    h = weight_function(lam.space, dict(zip(points, c)))
    return c, h, weight_element(lam, h)


def fraction_attainment_partition(f):
    """`extremal.attainment_partition` with the McShane minimum taken over Fractions."""
    space, vals = f.space, f.values
    cells = {}
    for x in range(space.n):
        best = min(vals[q] + space.d(q, x) for q in f.domain)
        K = frozenset(q for q in f.domain if vals[q] + space.d(q, x) == best)
        cells.setdefault(K, set()).add(x)
    return {K: frozenset(xs) for K, xs in cells.items()}


def bump(space, S, r):
    """Plateau bump: 1 on S, decaying with slope 1/r, zero at distance r.

    h(x) = max(1 - d(x,S)/r, 0), the paper's bump for an arbitrary metric
    space; on a finite space a small enough radius makes it a point mass.
    """
    core = sorted(set(S))
    if not core:
        raise ValueError("bump core must be nonempty")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("bump radius must be positive")
    out = tuple(
        max(1 - min(space.d(x, s) for s in core) / r, _ZERO) for x in range(space.n)
    )
    h = WeightFunction(space, out)
    if not all(0 <= v <= 1 for v in h.values) or any(h.values[x] != 1 for x in core):
        raise InternalVerificationFailure("bump left [0, 1] or is not 1 on its core")
    if lip_constant(h) * r > 1:
        raise InternalVerificationFailure("bump is steeper than 1/r")
    return h


def bump_witness(lam, mu):
    """`extremal.almost_positive_witness` built with bumps, without its norm checks.

    The same cell and points are chosen.  Each point p_i gets the plateau
    bump of radius r, where r is half the smallest of the attainment margin
    eps and the distances from each p_i to the rest of the space; the
    margin is the least gap, over the three points, between the McShane
    value attained through K and through any other domain point.  The
    masses and pairings are read off the bumps, and h is the c-combination
    of the bumps.
    """
    space = lam.space
    f_star, extension, _ = maximize_extended_pairing(lam, mu)
    cells = attainment_partition(f_star)
    lam_support = support(lam)
    candidates = []
    for K, cell in cells.items():
        hits = sorted(cell & lam_support, key=lambda i: space.labels[i])
        if len(hits) >= 3:
            candidates.append((len(K), sorted(space.labels[q] for q in K), K, hits))
    if not candidates:
        return None
    candidates.sort(key=lambda item: (item[0], item[1]))
    _, _, K, hits = candidates[0]
    points = tuple(hits[:3])

    fvals = f_star.values
    outside = sorted(set(f_star.domain) - set(K))
    if outside:
        eps = min(
            (fvals[qp] + space.d(pi, qp)) - (fvals[q] + space.d(pi, q))
            for q in K
            for qp in outside
            for pi in points
        ) / 4
    else:
        eps = min(
            space.d(x, y) for x in range(space.n) for y in range(x + 1, space.n)
        ) / 2
    if eps <= 0:
        raise InternalVerificationFailure("attainment margin must be positive")
    gaps = [min(space.d(pi, x) for x in range(space.n) if x != pi) for pi in points]
    r = min([eps] + gaps) / 2
    bumps = [bump(space, [pi], r) for pi in points]
    if any(hi.support != {pi} for pi, hi in zip(points, bumps)):
        raise InternalVerificationFailure("bump radius failed to isolate its point")

    u = tuple(lam.pair(hi) for hi in bumps)
    # <lam, hi * extension>, the pairing of lam with the weighted extension
    w = tuple(
        sum((a * hi.values[p] * extension(p) for p, a in lam.items), _ZERO) for hi in bumps
    )
    if any(v <= 0 for v in u):
        raise InternalVerificationFailure("bump masses must be strictly positive")
    c_raw = _kernel_vector(u, w)
    scale = max(abs(v) for v in c_raw)
    c = tuple(v / scale for v in c_raw)
    h = WeightFunction(
        space,
        tuple(
            sum((ci * hi.values[x] for ci, hi in zip(c, bumps)), _ZERO)
            for x in space.points()
        ),
    )
    return PerturbationWitness(
        lam=lam,
        mu=mu,
        f_star=f_star,
        K=frozenset(K),
        chosen_points=points,
        c=c,
        h=h,
        v=weight_element(lam, h),
    )


def replace(record, **changes):
    """A copy of a package record with some fields changed, as `dataclasses.replace` did."""
    fields = {name: getattr(record, name) for name in record.__match_args__}
    return type(record)(**{**fields, **changes})
