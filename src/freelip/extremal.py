"""Certification of extremal structure in the free-space unit balls.

Three families of results are certified constructively:

* a molecule is an exposed point of the unit ball exactly when its metric
  segment is trivial, with the exposing function exhibited; otherwise an
  exact midpoint decomposition through an interior segment point is built;
* the extreme points of the positive unit ball are the normalized
  evaluation functionals, with a constructive split of everything else;
* a positive element plus a finite perturbation that is an extreme point
  must itself be a molecule; non-extremality is witnessed by an explicit
  weighted perturbation verified through the norm engine.
"""

from __future__ import annotations

from fractions import Fraction

from .elements import (
    FreeElement,
    Molecule,
    delta,
    is_positive,
    support,
    zero,
)
from .errors import (
    InternalVerificationFailure,
    NotNormalized,
    NotPositive,
    SingletonSupport,
)
from .functions import (
    LipFunction,
    PartialFunction,
    WeightFunction,
    mcshane_extend,
    molecule_norming_function,
    restrict,
    weight_element,
)
from .metric import PointedMetricSpace, Segment
from .norms import FaceReport, norm_certificate, norming_face, positive_norm
from .records import record

EXPOSED = "Exposed"
NOT_EXTREME = "NotExtreme"


@record
class ExposednessVerdict:
    """Outcome of classifying a molecule against the segment criterion.

    On a finite space the trichotomy extreme / exposed / neither collapses:
    the molecule is exposed iff its segment is trivial, and otherwise it is
    not even extreme, witnessed by `counterexample_decomposition`, two
    distinct unit-ball elements averaging to the molecule.
    """

    molecule: Molecule
    segment: Segment
    exposing_function: LipFunction | None
    face: FaceReport
    verdict: str
    counterexample_decomposition: tuple[FreeElement, FreeElement] | None


@record
class PerturbationWitness:
    """Constructive certificate that lam + mu is not an extreme point.

    `h` is the weight c_i at the i-th of `chosen_points` and 0 elsewhere,
    so it is supported on the three chosen points.  `v` is the weighted
    copy of lam, nonzero, of zero mass (its coefficients sum to 0, which
    is <lam, h> = 0), with lam +- v both positive, orthogonal to the
    extension of the optimal partial function, and norm-preserving:
    ||lam +- v + mu|| = ||lam + mu|| exactly.
    """

    lam: FreeElement
    mu: FreeElement
    f_star: PartialFunction
    K: frozenset[int]
    chosen_points: tuple[int, int, int]
    c: tuple[Fraction, Fraction, Fraction]
    h: WeightFunction
    v: FreeElement


def classify_molecule(space: PointedMetricSpace, p: int, q: int) -> ExposednessVerdict:
    """Classify the molecule (p, q) as exposed or not extreme.

    The endpoints are resolved by `space.pair`, and the segment decides.
    The exposed branch checks that the canonical norming function has a
    singleton norming face equal to the molecule itself.  Otherwise, with
    x the interior segment point first by label, a = m(p, x), b = m(x, q)
    and t = d(p, x) / d(p, q), the molecule is t a + (1 - t) b, and the
    halves m(p, q) +- min(t, 1 - t) (a - b) average back to it by
    construction; that they differ and both have norm one is checked.
    """
    p, q = space.pair(p, q)
    mol = Molecule(p, q)
    # the face reads the tight pairs of the scan that certified the function,
    # so no second pass
    face = norming_face(molecule_norming_function(space, p, q), mol)
    seg = space.segment(p, q)
    halves = None
    if seg.is_trivial():
        if not face.is_unique_normer or face.tight_molecules != (mol,):
            raise InternalVerificationFailure(
                "trivial segment but the norming face is not the molecule alone"
            )
    else:
        x = min(seg.members - {p, q}, key=lambda i: space.labels[i])
        t = Fraction(space.scaled[1][p][x], space.scaled[1][p][q])
        a, b = Molecule(p, x).as_element(space), Molecule(x, q).as_element(space)
        step = (a - b) * min(t, 1 - t)
        if step.is_zero():
            raise InternalVerificationFailure("midpoint halves coincide")
        target = mol.as_element(space)
        halves = (target + step, target - step)
        for half in halves:
            if norm_certificate(half).value != 1:
                raise InternalVerificationFailure("midpoint half does not have norm one")
    return ExposednessVerdict(
        molecule=mol,
        segment=seg,
        exposing_function=face.norming_function if halves is None else None,
        face=face,
        verdict=EXPOSED if halves is None else NOT_EXTREME,
        counterexample_decomposition=halves,
    )


def normers_support_check(space: PointedMetricSpace, p: int, q: int) -> bool:
    """Every unit-ball element norming the molecule function sits in the segment.

    The norming face is the convex hull of the tight molecules, so it is
    enough that every tight molecule has both endpoints inside the metric
    segment of (p, q).  The tight pairs are those of the scan that certified
    the function, which it keeps; no face is built.
    """
    members = space.segment(p, q).members
    pairs = molecule_norming_function(space, p, q)._tight
    return all(x in members and y in members for x, y in pairs)


def positive_ball_extremes(space: PointedMetricSpace) -> list[FreeElement]:
    """Extreme points of the positive unit ball: 0 and delta(x)/d(x, base).

    In coefficient coordinates the positive ball is the scaled simplex
    {a >= 0 : sum a_p d(p, base) <= 1}; its vertices are 0 and the single
    coefficients 1 / d(x, base), as every d(x, base) > 0 on a validated
    space.  As delta(base) = 0, each is the molecule m(x, base), built
    from its integers.  The battery checks the list independently, by
    brute-force vertex enumeration (`checks.positive_ball_vertices_bruteforce`).
    """
    base = space.base
    return [zero(space)] + [Molecule(x, base).as_element(space) for x in space.nonbase_points()]


def split_positive(mu: FreeElement) -> tuple[FreeElement, FreeElement, Fraction]:
    """Write a norm-one positive element as a nontrivial positive convex combination.

    With a the first support point by label, splits off the point mass
    mu1 = a_a delta(a), so that mu1 + mu2 = mu with both halves positive and
    nonzero (mu2 keeps the other support points).  Returns
    (mu1/t, mu2/(1-t), t) where t = ||mu1|| = a_a d(a, base); positive norms
    are additive, so t + ||mu2|| = 1 exactly.

    The split's identities hold by construction: a_a > 0 and a second
    support point make both halves positive and nonzero, positive norms are
    the closed-form sum, and the rest is exact arithmetic on mu1 + mu2 = mu.
    The battery's split clauses (`check_positive_ball`) check them.
    """
    if not is_positive(mu):
        raise NotPositive("split_positive requires a positive element")
    supp = sorted(support(mu), key=lambda i: mu.space.labels[i])
    if len(supp) < 2:
        raise SingletonSupport("split_positive requires at least two support points")
    if positive_norm(mu) != 1:
        raise NotNormalized("split_positive requires a norm-one element")
    a = supp[0]
    mu1 = delta(mu.space, a) * mu.coeffs[a]
    mu2 = mu - mu1
    t = positive_norm(mu1)
    return (mu1 / t, mu2 / (1 - t), t)


# ---------------------------------------------------------------------------
# McShane-extension machinery for almost-positive elements


def extended_pairing(
    lam: FreeElement, mu: FreeElement, f: PartialFunction
) -> Fraction:
    """Pair mu + lam against the McShane extension of a partial function."""
    return (mu + lam).pair(mcshane_extend(f))


def maximize_extended_pairing(
    lam: FreeElement, mu: FreeElement
) -> tuple[PartialFunction, LipFunction, Fraction]:
    """Maximize f -> <mu + lam, extension of f> over the 1-Lipschitz ball on S.

    S is the support of mu plus the base point.  The maximum is the norm of
    mu + lam, attained by the restriction f* of any norming function g:
    the McShane extension of f* agrees with g on S and dominates it
    elsewhere, and lam is positive, so the extended pairing is at least
    <mu + lam, g>.  Returns (f*, its McShane extension, the norm); the
    extended pairing is checked against the norm.
    """
    if not is_positive(lam):
        raise NotPositive("the unperturbed part must be positive")
    total = lam + mu
    cert = norm_certificate(total)
    f_star = restrict(cert.dual_witness, support(mu))
    extension = mcshane_extend(f_star)
    if total.pair(extension) != cert.value:
        raise InternalVerificationFailure(
            "maximized extended pairing does not equal the norm"
        )
    return f_star, extension, cert.value


def attainment_partition(f: PartialFunction) -> dict[frozenset[int], frozenset[int]]:
    """Partition the points of f's space by where the McShane infimum is attained.

    Each x is assigned the set K(x) of domain points achieving
    min_q f(q) + d(q, x); the cells keyed by K(x) are disjoint and cover
    the space.  NotOneLipschitzOnDomain is raised unless f is 1-Lipschitz.
    The minimum is read off the integers of `PartialFunction._minima`,
    which f keeps once taken, so a witness partitioning by the f* it has
    McShane-extended reuses them.
    """
    _, values, rows, E = f._minima
    cells: dict[frozenset[int], set[int]] = {}
    for x, e in enumerate(E):
        K = frozenset(q for q, v, row in zip(f.domain, values, rows) if v + row[x] == e)
        cells.setdefault(K, set()).add(x)
    return {K: frozenset(xs) for K, xs in cells.items()}


def _kernel_vector(u: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, int, int]:
    """Nonzero integer solution of u.c = 0, w.c = 0 in Z^3, for integer rows."""
    cross = (
        u[1] * w[2] - u[2] * w[1],
        u[2] * w[0] - u[0] * w[2],
        u[0] * w[1] - u[1] * w[0],
    )
    if any(v != 0 for v in cross):
        return cross
    # rows are parallel; u has strictly positive entries here
    return (u[1], -u[0], 0)


def almost_positive_witness(
    lam: FreeElement, mu: FreeElement
) -> PerturbationWitness | None:
    """Build a non-extremality witness for lam + mu, if the structure permits.

    Pipeline: maximize the extended pairing to get an optimal partial
    function on S = supp(mu) + base; partition the space by attainment of
    its McShane extension; select the smallest cell meeting supp(lam) in at
    least three points (absent selection means no witness, which is the
    needed outcome when lam + mu is extreme); put point weights c_1, c_2,
    c_3 on the first three such points, solving the 2x3 homogeneous system
    that makes the weighted element both mass- and pairing-orthogonal, and
    verify every claimed identity through the norm engine.

    The paper perturbs by bumps of small radius inside the attainment cell;
    on a finite space every point is isolated, so a bump small enough to
    stay inside the cell is the point mass itself.
    """
    space = lam.space
    f_star, extension, norm = maximize_extended_pairing(lam, mu)
    labels, lam_support = space.labels, support(lam)
    hits = {K: cell & lam_support for K, cell in attainment_partition(f_star).items()}
    K = min(
        (K for K, hit in hits.items() if len(hit) >= 3),
        key=lambda K: (len(K), sorted(labels[q] for q in K)),
        default=None,
    )
    if K is None:
        return None
    points = tuple(sorted(hits[K], key=lambda i: labels[i])[:3])

    # rows a_i and a_i f(i) times the positive lam.den and lam.den * extension.scale
    # (same kernel); lam is positive, so each mass a_i, and each u_i, is positive
    nums, ext = dict(lam.nums), extension.ints
    u = tuple(nums[p] for p in points)
    w = tuple(n * ext[p] for n, p in zip(u, points))
    c_raw = _kernel_vector(u, w)
    scale = max(map(abs, c_raw))
    c = tuple(Fraction(v, scale) for v in c_raw)

    at = dict(zip(points, c_raw))
    h = WeightFunction._of(space, scale, [at.get(x, 0) for x in range(space.n)])
    v = weight_element(lam, h)

    _verify_witness(lam, mu, norm, extension, v)
    return PerturbationWitness(
        lam=lam,
        mu=mu,
        f_star=f_star,
        K=K,
        chosen_points=points,
        c=c,
        h=h,
        v=v,
    )


def _verify_witness(
    lam: FreeElement, mu: FreeElement, norm: Fraction, extension: LipFunction, v: FreeElement
) -> None:
    """Check every identity of a witness; `norm` is the certified ||lam + mu||."""
    if v.is_zero():
        raise InternalVerificationFailure("witness perturbation is zero")
    if not (is_positive(lam + v) and is_positive(lam - v)):
        raise InternalVerificationFailure("witness breaks positivity of lam +- v")
    # v weights lam by h: its mass is <lam, h>, its pairing <lam, h * extension>
    if sum(n for _, n in v.nums) != 0:
        raise InternalVerificationFailure("weight carries nonzero mass against lam")
    if v.pair(extension) != 0:
        raise InternalVerificationFailure("weighted extension pairing is nonzero")
    plus = norm_certificate(lam + mu + v).value
    minus = norm_certificate(lam + mu - v).value
    if not (norm == plus == minus):
        raise InternalVerificationFailure(
            f"perturbation changed the norm: {norm} vs {plus}/{minus}"
        )
