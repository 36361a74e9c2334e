"""Property battery certifying the toolkit's guarantees on generated corpora.

Each check runs an exact certification (tolerance zero) over a seeded
corpus.  It is written as a generator of (message, case) pairs, a case
being a thunk that returns True when it passes, and one runner makes it a
function that returns a CheckResult; a check that yields no case fails.
The battery doubles as the acceptance suite: the `check-suite` CLI command
and the acceptance tests both run these functions, at the same default scale.

Independent oracles live here too: the norm as a dense transport LP on
the stored integers, brute-force vertex enumeration of the positive ball
in coefficient coordinates, and brute-force extremality of molecules via
convex-hull membership LPs.  They use nothing but the generic simplex, exact
elimination and raw coefficient vectors, so they stay independent of the
min-cost-flow solver and the segment-based classification routes they are
checked against.
"""

from __future__ import annotations

import functools
import random
import time
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import combinations
from math import lcm

from . import lp
from .elements import (
    FreeElement,
    Molecule,
    is_positive,
    order_leq,
    support,
    zero,
)
from .functions import (
    PartialFunction,
    distance_to_base,
    intersection_property_check,
    lip_constant,
    mcshane_extend,
    molecule_norming_function,
    multiply_by_weight,
    partial_function,
    weight_element,
    weighting_bound,
)
from .extremal import (
    EXPOSED,
    almost_positive_witness,
    classify_molecule,
    extended_pairing,
    maximize_extended_pairing,
    normers_support_check,
    positive_ball_extremes,
    split_positive,
)
from .generators import (
    random_corpus,
    random_element,
    random_lip0,
    random_positive_element,
    random_space,
    random_subset,
    random_weight,
)
from .metric import PointedMetricSpace
from .norms import (
    free_norm,
    norm_certificate,
    positive_norm,
)
from .rationals import row_echelon
from .records import record

_ZERO = Fraction(0)
_MAX_RECORDED_FAILURES = 12
# segment tolerances at which molecule pairings are matched against segments
_SEGMENT_EPSILONS = (Fraction(0), Fraction(1, 10), Fraction(1, 4))
# what a check yields: a message naming the case, and the case's thunk
Cases = Iterator[tuple[str, Callable[[], bool]]]


@record
class CheckResult:
    name: str
    passed: bool
    cases: int
    failures: list[str]
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        note = "" if self.passed else f" ({len(self.failures)} recorded failure(s))"
        return f"{mark} {self.name}: {self.cases} cases in {self.seconds:.2f}s{note}"


def _battery_check(name: str):
    """Make a check of a generator of (message, case) pairs.

    Each case runs before the generator draws the next, since the cases
    close over its loop variables and seeded draws.  Every certifier call
    of a case runs inside its thunk, so any exception is a failed case, not
    the end of the battery.  A check with no case is not passed: it records
    one failure that says why, so the battery never passes vacuously.
    """

    def decorate(cases):
        @functools.wraps(cases)
        def check(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            count, failures = 0, []
            for message, case in cases(*args, **kwargs):
                try:
                    ok = case()
                except Exception as exc:
                    ok, message = False, f"{message}: {type(exc).__name__}: {exc}"
                count += 1
                if not ok and len(failures) < _MAX_RECORDED_FAILURES:
                    failures.append(message)
            if not count:
                failures.append("no cases: no space of the corpus fits this check")
            return CheckResult(name, not failures, count, failures, time.perf_counter() - t0)

        return check

    return decorate


# ---------------------------------------------------------------------------
# independent brute-force oracles


def transport_norm_bruteforce(mu: FreeElement) -> tuple[Fraction, tuple]:
    """Norm by the dense transport LP, solved with the generic simplex.

    One nonnegative flow variable per ordered pair of support-or-base
    nodes; the net divergence at every non-base node must equal its
    coefficient (the base point absorbs the residual).  Returns the norm and
    the optimal flow as a molecule decomposition whose weights sum to it.

    The LP is stated on integers: the costs are the distances times the
    unit, s = unit * d of `space.scaled`, and the right-hand sides the
    coefficients times the denominator, the numerators of `mu.nums`.  That
    multiplies every flow by `mu.den` and every reduced cost by the unit,
    so Bland's rule takes the pivots of the Fraction LP, and the value and
    each weight flow * s are divided once by unit * den.
    """
    space = mu.space
    unit, lengths = space.scaled
    nodes = sorted(support(mu) | {space.base})
    arcs = [(x, y) for x in nodes for y in nodes if x != y]
    # mu.nums holds the non-base nodes in the order of `nodes`
    rows = [([(x == p) - (y == p) for x, y in arcs], lp.EQ, n) for p, n in mu.nums]
    sol = lp.minimize([lengths[x][y] for x, y in arcs], rows).require_optimal()
    scale = unit * mu.den
    decomposition = tuple(
        (Molecule(x, y), flow * lengths[x][y] / scale)
        for (x, y), flow in zip(arcs, sol.x)
        if flow
    )
    return sol.value / scale, decomposition


def positive_ball_vertices_bruteforce(space: PointedMetricSpace) -> set:
    """Vertices of {a >= 0 : sum a_p d(p, base) <= 1} by active-set enumeration.

    The constraint system has one nonnegativity row per non-base point plus
    the budget row; every vertex is the unique solution of some full-rank
    active subset that satisfies the remaining constraints.
    """
    points = space.nonbase_points()
    dim = len(points)
    if dim == 0:
        return {()}
    normals = []
    rhs = []
    for i in range(dim):
        row = [_ZERO] * dim
        row[i] = Fraction(1)
        normals.append(row)  # a_p >= 0, active means a_p = 0
        rhs.append(_ZERO)
    budget = [space.d(p, space.base) for p in points]
    normals.append(budget)
    rhs.append(Fraction(1))

    vertices = set()
    for active in combinations(range(dim + 1), dim):
        echelon, pivots = row_echelon([normals[i] + [rhs[i]] for i in active])
        if pivots != list(range(dim)):
            continue  # singular active set
        x = [_ZERO] * dim
        for i in reversed(range(dim)):
            row = echelon[i]
            rest = row[dim] - sum(row[j] * x[j] for j in range(i + 1, dim))
            x[i] = rest / Fraction(row[i])
        if all(v >= 0 for v in x) and sum(c * v for c, v in zip(budget, x)) <= 1:
            vertices.add(tuple(x))
    return vertices


def molecule_vectors(space: PointedMetricSpace) -> dict[tuple[int, int], tuple]:
    """Coordinates over the non-base points by ordered pair: 1/d(p, q) at p, -1/d(p, q) at q."""
    points = space.nonbase_points()
    out = {}
    for p, q in space.ordered_pairs():
        w = 1 / space.d(p, q)
        out[(p, q)] = tuple(w if x == p else -w if x == q else 0 for x in points)
    return out


def extreme_molecules_bruteforce(vectors: dict[tuple[int, int], tuple]) -> set[tuple[int, int]]:
    """Ordered pairs whose molecule is a vertex of the unit ball polytope.

    `vectors` is :func:`molecule_vectors` of the space.  The unit ball is the convex
    hull of the molecule vectors, so a molecule is extreme iff it is not a convex
    combination of the others; that is one exact LP feasibility problem.  Each ordered
    pair has its reverse among the others, so no problem is empty.  The ball is
    centrally symmetric: m(q, p) = -m(p, q), and negation maps the other molecules of
    (p, q) onto those of (q, p), so one LP per unordered pair decides both orders.
    Vectors that are not antisymmetric raise ValueError.
    """
    extreme = set()
    for (p, q), target in vectors.items():
        if vectors.get((q, p)) != tuple(-a for a in target):
            raise ValueError(f"the vectors of ({p}, {q}) and ({q}, {p}) are not opposite")
        if p > q:
            continue
        others = [v for key, v in vectors.items() if key != (p, q)]
        rows = [([v[i] for v in others], lp.EQ, a) for i, a in enumerate(target)]
        rows.append(([1] * len(others), lp.EQ, 1))
        if lp.maximize([0] * len(others), rows).status == lp.INFEASIBLE:
            extreme |= {(p, q), (q, p)}
    return extreme


def is_extreme_in_ball_bruteforce(
    element: FreeElement, extreme: set[tuple[int, int]], vectors: dict[tuple[int, int], tuple]
) -> bool:
    """Whether a norm-one element is an extreme point of the unit ball.

    `vectors` is :func:`molecule_vectors` of the element's space and
    `extreme` is :func:`extreme_molecules_bruteforce` of those vectors,
    both computed once per space by the caller.
    """
    coeffs = element.coeffs
    target = tuple(coeffs.get(x, _ZERO) for x in element.space.nonbase_points())
    for pair, vec in vectors.items():
        if vec == target:
            return pair in extreme
    return False  # extreme points of a polytope lie among its generators


# ---------------------------------------------------------------------------
# the battery


@_battery_check("molecule norms (dual = primal = 1)")
def check_molecule_norms(corpus) -> Cases:
    for space in corpus:
        for p, q in space.ordered_pairs():
            mol = Molecule(p, q).as_element(space)

            def attempt():
                # the certificate proves dual = primal by weak duality; the
                # dense transport LP is an independent check of the value
                value = norm_certificate(mol).value
                return value == 1 == transport_norm_bruteforce(mol)[0]

            yield f"|{space.labels[p]},{space.labels[q]}|", attempt


@_battery_check("exposedness matches the segment criterion")
def check_exposedness(corpus) -> Cases:
    for space in corpus:
        for p, q in space.ordered_pairs():

            def attempt():
                verdict = classify_molecule(space, p, q)
                trivial = space.segment(p, q).is_trivial()
                ok = (verdict.verdict == EXPOSED) == trivial
                if verdict.verdict == EXPOSED:
                    ok = ok and verdict.face.is_unique_normer
                    ok = ok and verdict.face.tight_molecules == (Molecule(p, q),)
                    ok = ok and verdict.counterexample_decomposition is None
                else:
                    if verdict.counterexample_decomposition is None:
                        return False
                    u, w = verdict.counterexample_decomposition
                    ok = ok and u != w
                    ok = ok and (u + w) * Fraction(1, 2) == Molecule(p, q).as_element(space)
                    ok = ok and verdict.face.face_dimension >= 1
                return ok

            yield f"pair ({space.labels[p]},{space.labels[q]})", attempt


@_battery_check("norming faces live inside the metric segment")
def check_normer_support(corpus) -> Cases:
    for space in corpus:
        for p, q in space.ordered_pairs():
            yield (
                f"pair ({space.labels[p]},{space.labels[q]})",
                lambda: normers_support_check(space, p, q),
            )


@_battery_check("positive-ball extreme points and splits")
def check_positive_ball(corpus, rng: random.Random, splits_per_space: int = 5) -> Cases:
    for space in corpus:
        points = space.nonbase_points()

        def vertices():
            claimed = {
                tuple(e.coeffs.get(x, _ZERO) for x in points)
                for e in positive_ball_extremes(space)
            }
            return claimed == positive_ball_vertices_bruteforce(space)

        yield f"vertices on {space.labels}", vertices
        if len(points) < 2:
            continue  # random_positive_element(min_support=2) needs two points
        for _ in range(splits_per_space):
            mu = random_positive_element(rng, space, min_support=2)

            def attempt():
                unit = mu / positive_norm(mu)
                m1, m2, t = split_positive(unit)
                return (
                    0 < t < 1
                    and m1 * t + m2 * (1 - t) == unit
                    and positive_norm(m1) == 1 == positive_norm(m2)
                )

            yield f"split on {space.labels}", attempt


@_battery_check("positive elements: norm formula, additivity, vanishing")
def check_positive_facts(corpus, rng: random.Random, samples: int, families: int) -> Cases:
    rho_cache = {id(s): distance_to_base(s) for s in corpus}
    usable = [s for s in corpus if s.n >= 2]
    if not usable:
        return
    for _ in range(samples):
        space = rng.choice(usable)
        rho = rho_cache[id(space)]
        mu = random_positive_element(rng, space)

        def attempt():
            cert = norm_certificate(mu)
            # vanishing: the witness is 1-Lipschitz and vanishes at the base,
            # so rho - witness is nonnegative; it pairs with the positive mu
            # to ||mu|| - ||mu|| = 0, so it vanishes on the support
            gap = [a - b for a, b in zip(rho.values, cert.dual_witness.values)]
            return (
                cert.value == mu.pair(rho)
                and all(v >= 0 for v in gap)
                and all(gap[p] == 0 for p in support(mu))
            )

        yield f"norm formula on {space.labels}", attempt
    for _ in range(families):
        space = rng.choice(usable)
        members = [
            random_positive_element(rng, space) for _ in range(rng.randint(1, 5))
        ]

        def additivity():
            # the transport norm of the sum against the closed forms of the parts
            total = zero(space)
            for m in members:
                total = total + m
            return free_norm(total) == sum((positive_norm(m) for m in members), _ZERO)

        yield f"additivity on {space.labels}", additivity
        # mu < lam strictly; supp(mu) <= supp(lam) follows from mu <= lam,
        # as lam's coefficients are at least mu's positive ones
        mu = random_positive_element(rng, space)
        lam = mu + random_positive_element(rng, space)
        yield f"order on {space.labels}", lambda: order_leq(mu, lam) and not order_leq(lam, mu)


@_battery_check("weighting operator bound, duality and positivity")
def check_weighting(corpus, rng: random.Random, samples: int) -> Cases:
    usable = [s for s in corpus if s.n >= 2]
    if not usable:
        return
    for i in range(samples):
        space = rng.choice(usable)
        nonneg = i % 2 == 0
        mu = (
            random_positive_element(rng, space)
            if nonneg
            else random_element(rng, space)
        )
        h = random_weight(rng, space, nonneg=nonneg)
        f = random_lip0(rng, space)

        def attempt():
            weighted = weight_element(mu, h)
            ok = weighted.pair(f) == mu.pair(multiply_by_weight(f, h))
            ok = ok and free_norm(weighted) <= weighting_bound(h) * free_norm(mu)
            ok = ok and support(weighted) <= (support(mu) & h.support)
            return ok and (not nonneg or is_positive(weighted))

        yield f"triple on {space.labels}", attempt


@_battery_check("coordinate-subspace intersection property")
def check_intersection(rng: random.Random, samples: int, max_points: int = 8) -> Cases:
    for _ in range(samples):
        space = random_space(rng, rng.randint(1, max_points))
        family = [random_subset(rng, space) for _ in range(rng.randint(1, 4))]
        yield (
            f"family of {len(family)} subsets on {space.labels}",
            lambda: intersection_property_check(space, family),
        )


def _random_partial(rng: random.Random, space: PointedMetricSpace, domain):
    """Random partial function on `domain`, scaled into the 1-Lipschitz ball.

    `domain` holds the base point.  Values are drawn in the iteration order of `domain`, so the caller
    fixes the order of the draws.  Each is drawn as a sign and the integers
    a and b of a / b, and the function is built on the numerators over the
    lcm of the denominators.  A constant L = num / den above 1 divides it,
    to ints * den over scale * num.
    """
    drawn = {
        p: (0, 1)
        if p == space.base
        else (rng.choice((1, -1)) * rng.randint(0, 9), rng.randint(1, 3))
        for p in domain
    }
    points = tuple(sorted(drawn))
    scale = lcm(*(b for _, b in drawn.values()))
    ints = [a * (scale // b) for a, b in map(drawn.get, points)]
    pf = PartialFunction(space, points, scale, ints)
    L = lip_constant(pf)
    if L > 1:
        ints = [v * L.denominator for v in pf.ints]
        pf = PartialFunction(space, points, pf.scale * L.numerator, ints)
    return pf


@_battery_check("McShane extension, concavity, pairing maximization")
def check_mcshane(
    corpus,
    rng: random.Random,
    extension_samples: int,
    concavity_samples: int,
    pairing_samples: int,
) -> Cases:
    usable = [s for s in corpus if s.n >= 2]
    if not usable:
        return
    for _ in range(extension_samples):
        space = rng.choice(usable)
        pf = _random_partial(rng, space, sorted(random_subset(rng, space) | {space.base}))
        rng.randint(0, 4)  # an unused draw that keeps the seeded samples after it as they are

        def extension():
            # a 1-Lipschitz extension g has g(x) <= f(q) + d(q, x) for every
            # domain point q, so one meeting that bound at every x is the largest
            top = mcshane_extend(pf)
            vals = pf.values
            ok = lip_constant(top) <= 1
            ok = ok and all(top.values[p] == vals[p] for p in pf.domain)
            return ok and all(
                any(t == vals[q] + space.d(q, x) for q in pf.domain)
                for x, t in enumerate(top.values)
            )

        yield f"extension on {space.labels}", extension
    for _ in range(concavity_samples):
        space = rng.choice(usable)
        lam = random_positive_element(rng, space)
        mu = random_element(rng, space)
        S = support(mu)
        f = _random_partial(rng, space, set(S) | {space.base})
        g = _random_partial(rng, space, set(S) | {space.base})
        c = Fraction(rng.randint(1, 3), 4)

        def concavity():
            mixed = partial_function(
                space, {p: c * f.values[p] + (1 - c) * g.values[p] for p in f.domain}
            )
            lhs = extended_pairing(lam, mu, mixed)
            rhs = c * extended_pairing(lam, mu, f) + (1 - c) * extended_pairing(lam, mu, g)
            return lhs >= rhs

        yield f"concavity on {space.labels}", concavity
    for _ in range(pairing_samples):
        space = rng.choice(usable)
        lam = random_positive_element(rng, space)
        mu = random_element(rng, space)

        def attempt():
            _, _, value = maximize_extended_pairing(lam, mu)
            return value == transport_norm_bruteforce(lam + mu)[0]

        yield f"maximized pairing on {space.labels}", attempt


@_battery_check("almost-positive extreme points are molecules; witnesses verify")
def check_almost_positive(corpus, rng: random.Random, pairs_per_space: int) -> Cases:
    for space in corpus:
        if space.n < 2:
            continue
        vectors = molecule_vectors(space)
        brute = extreme_molecules_bruteforce(vectors)
        # consistency with the segment criterion on the whole space
        for p, q in space.ordered_pairs():
            yield (
                f"brute vs segment on ({space.labels[p]},{space.labels[q]})",
                lambda: ((p, q) in brute) == space.segment(p, q).is_trivial(),
            )
        samples = []
        for _ in range(pairs_per_space):
            samples.append(
                (random_positive_element(rng, space), random_element(rng, space))
            )
            samples.append((random_positive_element(rng, space), zero(space)))
        for p, q in list(space.ordered_pairs())[:4]:
            samples.append((zero(space), Molecule(p, q).as_element(space)))
        for lam, mu in samples:
            total = lam + mu

            def attempt():
                witness = almost_positive_witness(lam, mu)
                if total.is_zero():
                    # a witness v != 0 would need ||v|| = ||lam + mu|| = 0
                    return witness is None
                norm = norm_certificate(total).value
                if witness is None or is_extreme_in_ball_bruteforce(total / norm, brute, vectors):
                    # an extreme point has no witness, as a verified witness
                    # certifies non-extremality; it is a molecule, since the hull
                    # oracle calls only molecule vectors extreme
                    return witness is None
                # lam + mu is not extreme: it is the mean of lam + mu +- v, which
                # keep its dense-LP norm, with v != 0 and lam +- v >= 0
                v, dense = witness.v, transport_norm_bruteforce(total)[0]
                return (
                    not v.is_zero()
                    and all(a >= 0 for side in (lam + v, lam - v) for _, a in side.items)
                    and all(transport_norm_bruteforce(total + s * v)[0] == dense for s in (1, -1))
                )

            yield f"pair on {space.labels}", attempt


@_battery_check("molecule norming function: slope, pairing, segments")
def check_molecule_function(corpus) -> Cases:
    """The canonical norming function is 1-Lipschitz, norms its molecule, and
    every molecule it pairs with to at least 1 - eps lies in the eps-segment.

    Pairings are compared on integers, independently of the library's own
    slope scan: with f = V / vscale, d = scaled / unit and eps = num / den,
    the pairing (f(u) - f(v)) / d(u, v) of the molecule (u, v) is at least
    1 - eps exactly when (V[u] - V[v]) * unit * den >= (den - num) * cap,
    where cap = scaled[u][v] * vscale; eps = 0 gives the slope test.
    """
    for space in corpus:
        unit, lengths = space.scaled
        for p, q in space.ordered_pairs():

            def attempt():
                f = molecule_norming_function(space, p, q)
                vscale, V = f.scale, f.ints
                # (u, v) -> (unit * vscale * d(u,v) * pairing, unit * vscale * d(u,v))
                lifted = {
                    (u, v): ((V[u] - V[v]) * unit, lengths[u][v] * vscale)
                    for u, v in space.ordered_pairs()
                }
                # slope at most one everywhere, and exactly one on (p, q)
                ok = all(gain <= cap for gain, cap in lifted.values())
                gain, cap = lifted[p, q]
                ok = ok and gain == cap
                for eps in _SEGMENT_EPSILONS:
                    seg = space.segment(p, q, eps)
                    num, den = eps.numerator, eps.denominator
                    for (u, v), (gain, cap) in lifted.items():
                        if gain * den >= (den - num) * cap:
                            ok = ok and u in seg.members and v in seg.members
                return ok

            yield f"pair ({space.labels[p]},{space.labels[q]})", attempt


@_battery_check("support agrees between basis and functional routes")
def check_support_routes(corpus, rng: random.Random, samples: int) -> Cases:
    """The support as a key set against its definition, by annihilators.

    The support of mu is the intersection of the closed K with mu in F(K),
    so a point x != base lies outside it exactly when mu is in F(M - {x}),
    that is when mu kills g_x, the McShane extension of 0 from M - {x}:
    every Lipschitz function vanishing on M - {x} is a multiple of g_x,
    which is d(x, M - {x}) > 0 at x.  The annihilators are built once per
    space from public functions.  The sum mu + nu is checked as well,
    because a sum can cancel a coefficient that `canonicalize` must drop.
    """
    usable = [s for s in corpus if s.n >= 2]
    if not usable:
        return
    annihilators = {}
    for _ in range(samples):
        space = rng.choice(usable)
        mu = random_element(rng, space)
        nu = random_element(rng, space)

        def attempt():
            if id(space) not in annihilators:
                annihilators[id(space)] = {
                    x: mcshane_extend(
                        partial_function(space, {y: 0 for y in space.points() if y != x})
                    )
                    for x in space.nonbase_points()
                }
            routes = annihilators[id(space)].items()
            return all(
                support(m) == {x for x, g in routes if m.pair(g) != 0} for m in (mu, mu + nu)
            )

        yield f"element on {space.labels}", attempt


# ---------------------------------------------------------------------------
# driver


def run_check_suite(
    seed: int = 20240521,
    max_points: int = 12,
    scale: Fraction | float = 1,
) -> list[CheckResult]:
    """Run the full battery at the default (acceptance) scale.

    `max_points` caps the corpus point counts; the per-check caps (10 for
    exposedness scans, 8 for positive-ball enumeration, 6 for brute-force
    ball vertices) are intersected with it.  `scale` multiplies the sample
    counts, for quick smoke runs.
    """

    def scaled(n: int) -> int:
        return max(1, int(n * scale))

    corpus = random_corpus(seed, count=scaled(50), min_n=2, max_n=max_points)
    small = lambda cap: [s for s in corpus if s.n <= cap]
    rng = random.Random(seed + 1)

    return [
        check_molecule_norms(corpus),
        check_exposedness(small(10)),
        check_normer_support(corpus),
        check_positive_ball(small(8), rng, splits_per_space=scaled(5)),
        check_positive_facts(corpus, rng, samples=scaled(1000), families=scaled(200)),
        check_weighting(corpus, rng, samples=scaled(1000)),
        check_intersection(rng, samples=scaled(500), max_points=min(8, max_points)),
        check_mcshane(
            corpus,
            rng,
            extension_samples=scaled(500),
            concavity_samples=scaled(500),
            pairing_samples=scaled(200),
        ),
        check_almost_positive(small(6), rng, pairs_per_space=scaled(6)),
        check_molecule_function(small(10)),
        check_support_routes(corpus, rng, samples=scaled(300)),
    ]
