"""Property battery certifying the toolkit's guarantees on generated corpora.

Each check runs an exact certification (tolerance zero) over a seeded
corpus and returns a CheckResult.  The battery doubles as the acceptance
suite: the `check-suite` CLI command and the acceptance tests both run
these functions, at the same default scale.

Independent oracles live here too: the norm as a dense transport LP,
brute-force vertex enumeration of the positive ball in coefficient
coordinates, and brute-force extremality of molecules via convex-hull
membership LPs.  They use nothing but the generic simplex, exact
elimination and raw coefficient vectors, so they stay independent of the
min-cost-flow solver and the segment-based classification routes they are
checked against.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import lp
from .elements import (
    FreeElement,
    Molecule,
    intersection_property_check,
    is_positive,
    order_leq,
    support,
    support_by_functionals,
    zero,
)
from .functions import (
    distance_to_base,
    lip_constant,
    lip_function,
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
    PrimalCertificate,
    free_norm_dual,
    norm_certificate,
    positive_norm,
)
from .rationals import row_echelon

_ZERO = Fraction(0)
_MAX_RECORDED_FAILURES = 12


@dataclass
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


class _Recorder:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures: list[str] = []
        self.t0 = time.perf_counter()

    def run(self, message: str, thunk):
        """Count a case that passes when the thunk, run at once, returns True.

        Every certifier call of a case runs inside its thunk, so any
        exception is a failed case, not the end of the battery: a certifier
        that raises, whatever the error, has failed its case.
        """
        try:
            ok = thunk()
        except Exception as exc:
            ok, message = False, f"{message}: {type(exc).__name__}: {exc}"
        self.cases += 1
        if not ok and len(self.failures) < _MAX_RECORDED_FAILURES:
            self.failures.append(message)

    def result(self) -> CheckResult:
        return CheckResult(
            name=self.name,
            passed=not self.failures,
            cases=self.cases,
            failures=self.failures,
            seconds=time.perf_counter() - self.t0,
        )


def default_corpus(seed: int, count: int = 50, min_n: int = 2, max_n: int = 12):
    return random_corpus(seed, count, min_n, max_n)


# ---------------------------------------------------------------------------
# independent brute-force oracles


def transport_norm_bruteforce(mu: FreeElement) -> PrimalCertificate:
    """Norm by the dense transport LP, solved with the generic simplex.

    One nonnegative flow variable per ordered pair of support-or-base
    nodes; the net divergence at every non-base node must equal its
    coefficient (the base point absorbs the residual).  The optimal flow is
    returned as a molecule decomposition whose weights sum to the norm.
    """
    space = mu.space
    nodes = sorted(support(mu) | {space.base})
    arcs = [(x, y) for x in nodes for y in nodes if x != y]
    rows = []
    for p in nodes:
        if p == space.base:
            continue
        row = [Fraction(int(x == p) - int(y == p)) for x, y in arcs]
        rows.append((row, lp.EQ, mu.coeffs.get(p, _ZERO)))
    sol = lp.minimize([space.d(x, y) for x, y in arcs], rows).require_optimal()
    decomposition = tuple(
        (Molecule(x, y), flow * space.d(x, y)) for (x, y), flow in zip(arcs, sol.x) if flow
    )
    return PrimalCertificate(sol.value, decomposition)


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
    """Coordinates of each molecule over the non-base points, by ordered pair."""
    points = space.nonbase_points()
    out = {}
    for p, q in space.ordered_pairs():
        coeffs = Molecule(p, q).as_element(space).coeffs
        out[(p, q)] = tuple(coeffs.get(x, _ZERO) for x in points)
    return out


def extreme_molecules_bruteforce(vectors: dict[tuple[int, int], tuple]) -> set[tuple[int, int]]:
    """Ordered pairs whose molecule is a vertex of the unit ball polytope.

    `vectors` is :func:`molecule_vectors` of the space.  The unit ball is
    the convex hull of the molecule vectors, so a molecule is extreme iff
    it is not a convex combination of the others; that is one exact LP
    feasibility problem per molecule.
    """
    extreme = set()
    for pair, target in vectors.items():
        others = [v for key, v in vectors.items() if key != pair]
        if not others:
            extreme.add(pair)
            continue
        rows = []
        for i in range(len(target)):
            rows.append(([v[i] for v in others], lp.EQ, target[i]))
        rows.append(([Fraction(1)] * len(others), lp.EQ, Fraction(1)))
        sol = lp.maximize([_ZERO] * len(others), rows)
        if sol.status == lp.INFEASIBLE:
            extreme.add(pair)
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


def check_molecule_norms(corpus) -> CheckResult:
    rec = _Recorder("molecule norms (dual = primal = 1)")
    for space in corpus:
        for p, q in space.ordered_pairs():
            mol = Molecule(p, q).as_element(space)

            def attempt():
                # the certificate proves dual = primal by weak duality; the
                # dense transport LP is an independent check of the value
                value = norm_certificate(mol).value
                return value == 1 == transport_norm_bruteforce(mol).value

            rec.run(f"|{space.labels[p]},{space.labels[q]}|", attempt)
    return rec.result()


def check_exposedness(corpus) -> CheckResult:
    rec = _Recorder("exposedness matches the segment criterion")
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
                    ok = ok and verdict.counterexample_decomposition is not None
                    u, w = verdict.counterexample_decomposition
                    ok = ok and u != w
                    ok = ok and (u + w) * Fraction(1, 2) == Molecule(p, q).as_element(space)
                    ok = ok and verdict.face.face_dimension >= 1
                return ok

            rec.run(f"pair ({space.labels[p]},{space.labels[q]})", attempt)
    return rec.result()


def check_normer_support(corpus) -> CheckResult:
    rec = _Recorder("norming faces live inside the metric segment")
    for space in corpus:
        for p, q in space.ordered_pairs():
            rec.run(
                f"pair ({space.labels[p]},{space.labels[q]})",
                lambda: normers_support_check(space, p, q),
            )
    return rec.result()


def check_positive_ball(corpus, rng: random.Random, splits_per_space: int = 5) -> CheckResult:
    rec = _Recorder("positive-ball extreme points and splits")
    for space in corpus:
        points = space.nonbase_points()

        def vertices():
            claimed = {
                tuple(e.coeffs.get(x, _ZERO) for x in points)
                for e in positive_ball_extremes(space)
            }
            return claimed == positive_ball_vertices_bruteforce(space)

        rec.run(f"vertices on {space.labels}", vertices)
        if len(points) < 2:
            continue
        for _ in range(splits_per_space):
            mu = random_positive_element(rng, space, min_support=2)
            if len(support(mu)) < 2:
                continue

            def attempt():
                unit = mu / positive_norm(mu)
                m1, m2, t = split_positive(unit)
                return (
                    0 < t < 1
                    and m1 * t + m2 * (1 - t) == unit
                    and positive_norm(m1) == 1 == positive_norm(m2)
                )

            rec.run(f"split on {space.labels}", attempt)
    return rec.result()


def check_positive_facts(corpus, rng: random.Random, samples: int, families: int) -> CheckResult:
    rec = _Recorder("positive elements: norm formula, additivity, vanishing")
    rho_cache = {id(s): distance_to_base(s) for s in corpus}
    usable = [s for s in corpus if s.n >= 2]
    for _ in range(samples):
        space = rng.choice(usable)
        rho = rho_cache[id(space)]
        mu = random_positive_element(rng, space)

        def attempt():
            cert = free_norm_dual(mu)
            ok = cert.value == mu.pair(rho)
            # norming function equals d(., base) on the support
            ok = ok and all(cert.witness.values[p] == rho.values[p] for p in support(mu))
            # vanishing: rho - witness is a nonnegative function with zero
            # pairing against mu, so it must vanish on the support
            gap = [a - b for a, b in zip(rho.values, cert.witness.values)]
            ok = ok and all(v >= 0 for v in gap)
            pairing = sum((a * gap[p] for p, a in mu.items), _ZERO)
            ok = ok and pairing == 0
            return ok and all(gap[p] == 0 for p in support(mu))

        rec.run(f"norm formula on {space.labels}", attempt)
    for _ in range(families):
        space = rng.choice(usable)
        members = [
            random_positive_element(rng, space) for _ in range(rng.randint(1, 5))
        ]

        def additivity():
            total = zero(space)
            for m in members:
                total = total + m
            return positive_norm(total) == sum((positive_norm(m) for m in members), _ZERO)

        rec.run(f"additivity on {space.labels}", additivity)
        # order comparison propagates to supports
        mu = random_positive_element(rng, space)
        lam = mu + random_positive_element(rng, space)
        rec.run(
            f"order/support on {space.labels}",
            lambda: order_leq(mu, lam) and support(mu) <= support(lam),
        )
    return rec.result()


def check_weighting(corpus, rng: random.Random, samples: int) -> CheckResult:
    rec = _Recorder("weighting operator bound, duality and positivity")
    usable = [s for s in corpus if s.n >= 2]
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
            ok = ok and free_norm_dual(weighted).value <= weighting_bound(h) * free_norm_dual(mu).value
            ok = ok and support(weighted) <= (support(mu) & h.support)
            return ok and (not nonneg or is_positive(weighted))

        rec.run(f"triple on {space.labels}", attempt)
    return rec.result()


def check_intersection(rng: random.Random, samples: int, max_points: int = 8) -> CheckResult:
    rec = _Recorder("coordinate-subspace intersection property")
    for _ in range(samples):
        space = random_space(rng, rng.randint(1, max_points))
        family = [random_subset(rng, space) for _ in range(rng.randint(1, 4))]
        rec.run(
            f"family of {len(family)} subsets on {space.labels}",
            lambda: intersection_property_check(space, family),
        )
    return rec.result()


def _random_partial(rng: random.Random, space: PointedMetricSpace, domain):
    """Random partial function on `domain`, scaled into the 1-Lipschitz ball.

    Values are drawn in the iteration order of `domain`, so the caller
    fixes the order of the draws.
    """
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


def check_mcshane(
    corpus,
    rng: random.Random,
    extension_samples: int,
    concavity_samples: int,
    pairing_samples: int,
) -> CheckResult:
    rec = _Recorder("McShane extension, concavity, pairing maximization")
    usable = [s for s in corpus if s.n >= 2]
    for _ in range(extension_samples):
        space = rng.choice(usable)
        pf = _random_partial(rng, space, sorted(random_subset(rng, space) | {space.base}))
        c = Fraction(rng.randint(0, 4), 4)

        def extension():
            top = mcshane_extend(pf)
            vals = pf.values
            floor = [
                max(vals[q] - space.d(q, x) for q in pf.domain) for x in range(space.n)
            ]
            ok = lip_constant(top) <= 1
            ok = ok and all(top.values[p] == vals[p] for p in pf.domain)
            ok = ok and all(a <= b for a, b in zip(floor, top.values))
            mix = [c * t + (1 - c) * fl for t, fl in zip(top.values, floor)]
            g = lip_function(space, mix)
            ok = ok and lip_constant(g) <= 1
            ok = ok and all(g.values[p] == vals[p] for p in pf.domain)
            return ok and all(a <= b for a, b in zip(g.values, top.values))

        rec.run(f"extension on {space.labels}", extension)
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

        rec.run(f"concavity on {space.labels}", concavity)
    for _ in range(pairing_samples):
        space = rng.choice(usable)
        lam = random_positive_element(rng, space)
        mu = random_element(rng, space)

        def attempt():
            _, value = maximize_extended_pairing(lam, mu)
            return value == transport_norm_bruteforce(lam + mu).value

        rec.run(f"maximized pairing on {space.labels}", attempt)
    return rec.result()


def check_almost_positive(corpus, rng: random.Random, pairs_per_space: int) -> CheckResult:
    rec = _Recorder("almost-positive extreme points are molecules; witnesses verify")
    for space in corpus:
        if space.n < 2:
            continue
        vectors = molecule_vectors(space)
        brute = extreme_molecules_bruteforce(vectors)
        # consistency with the segment criterion on the whole space
        for p, q in space.ordered_pairs():
            rec.run(
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
                    return witness is None or not witness.v.is_zero()
                norm = norm_certificate(total).value
                unit = total / norm
                if not is_extreme_in_ball_bruteforce(unit, brute, vectors):
                    return True
                # an extreme point has no witness (a verified witness
                # certifies non-extremality) and is a molecule
                target = tuple(
                    unit.coeffs.get(x, _ZERO) for x in space.nonbase_points()
                )
                return witness is None and any(vec == target for vec in vectors.values())

            rec.run(f"pair on {space.labels}", attempt)
    return rec.result()


def check_molecule_function(corpus, epsilons=(Fraction(0), Fraction(1, 10), Fraction(1, 4))) -> CheckResult:
    rec = _Recorder("molecule norming function: slope, pairing, segments")
    for space in corpus:
        for p, q in space.ordered_pairs():

            def attempt():
                f = molecule_norming_function(space, p, q)
                ok = lip_constant(f) == 1
                ok = ok and Molecule(p, q).as_element(space).pair(f) == 1
                pairings = {
                    (u, v): Molecule(u, v).as_element(space).pair(f)
                    for u, v in space.ordered_pairs()
                }
                for eps in epsilons:
                    seg = space.segment(p, q, eps)
                    for (u, v), pairing in pairings.items():
                        if pairing >= 1 - eps:
                            ok = ok and u in seg.members and v in seg.members
                return ok

            rec.run(f"pair ({space.labels[p]},{space.labels[q]})", attempt)
    return rec.result()


def check_support_routes(corpus, rng: random.Random, samples: int) -> CheckResult:
    rec = _Recorder("support agrees between basis and functional routes")
    usable = [s for s in corpus if s.n >= 2]
    for _ in range(samples):
        space = rng.choice(usable)
        mu = random_element(rng, space)
        nu = random_element(rng, space)
        rec.run(
            f"element on {space.labels}",
            lambda: (
                support(mu) == support_by_functionals(mu)
                and support(mu + nu) <= (support(mu) | support(nu))
            ),
        )
    return rec.result()


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

    corpus = default_corpus(seed, count=scaled(50), min_n=2, max_n=max_points)
    small = lambda cap: [s for s in corpus if s.n <= cap]
    rng = random.Random(seed + 1)

    results = [
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
    return results
