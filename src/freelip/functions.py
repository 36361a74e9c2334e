"""Lipschitz functions on finite pointed spaces and explicit constructions.

Covers the function-side toolbox: Lipschitz constants, the distance-to-base
function, radial cutoffs and support truncation, the canonical norming
function of a molecule, McShane extension of partial functions, plateau
bumps, multiplication by a weight and its predual action on elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .elements import (
    FreeElement,
    Molecule,
    _same_space,
    canonicalize,
    is_positive,
    support,
)
from .errors import (
    DegeneratePair,
    EmptySet,
    InternalVerificationFailure,
    NonpositiveRadius,
    NotOneLipschitzOnDomain,
    SpaceMismatch,
    SupportNotContained,
)
from .metric import PointedMetricSpace
from .rationals import as_fraction, scale_to_integers


@dataclass(frozen=True)
class LipFunction:
    """Total rational-valued function vanishing at the base point."""

    space: PointedMetricSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.values[self.space.base] != 0:
            raise ValueError("a Lip_0 function must vanish at the base point")

    def __call__(self, p: int) -> Fraction:
        return self.values[p]


@dataclass(frozen=True)
class WeightFunction:
    """Total rational-valued function with no base-point constraint."""

    space: PointedMetricSpace
    values: tuple[Fraction, ...]

    def __call__(self, p: int) -> Fraction:
        return self.values[p]

    @property
    def support(self) -> frozenset[int]:
        return frozenset(p for p, v in enumerate(self.values) if v != 0)


@dataclass(frozen=True)
class PartialFunction:
    """Function defined on a subset of points containing the base."""

    space: PointedMetricSpace
    domain: tuple[int, ...]
    items: tuple[tuple[int, Fraction], ...]

    @property
    def values(self) -> dict[int, Fraction]:
        return dict(self.items)

    def __call__(self, p: int) -> Fraction:
        for idx, v in self.items:
            if idx == p:
                return v
        raise KeyError(p)


def lip_function(space: PointedMetricSpace, values) -> LipFunction:
    """Build a LipFunction from a sequence or a point/label mapping.

    Mapping form: missing points default to 0; the base value must be 0.
    """
    return LipFunction(space, _total_values(space, values))


def weight_function(space: PointedMetricSpace, values) -> WeightFunction:
    return WeightFunction(space, _total_values(space, values))


def _total_values(space: PointedMetricSpace, values) -> tuple[Fraction, ...]:
    if isinstance(values, Mapping):
        out = [Fraction(0)] * space.n
        for key, v in values.items():
            out[space.resolve(key)] = as_fraction(v)
        return tuple(out)
    out = [as_fraction(v) for v in values]
    if len(out) != space.n:
        raise ValueError(f"expected {space.n} values, got {len(out)}")
    return tuple(out)


def partial_function(space: PointedMetricSpace, values: Mapping) -> PartialFunction:
    """Build a PartialFunction; the base point joins the domain with value 0."""
    acc = {space.resolve(key): as_fraction(v) for key, v in values.items()}
    base = space.base
    if acc.get(base, Fraction(0)) != 0:
        raise ValueError("a partial Lip_0 function must vanish at the base point")
    acc[base] = Fraction(0)
    domain = tuple(sorted(acc))
    return PartialFunction(space, domain, tuple(sorted(acc.items())))


def restrict(f: LipFunction, S: Iterable[int]) -> PartialFunction:
    """Restriction f|_S as a partial function (the base always joins S)."""
    keep = set(S) | {f.space.base}
    return partial_function(f.space, {p: f.values[p] for p in keep})


def lip_constant(f) -> Fraction:
    """Exact Lipschitz constant: max of |f(x)-f(y)| / d(x,y) over pairs.

    A partial function is measured over its domain, anything else over
    the whole space.  Values and distances are scaled to integers, slopes
    are compared by cross-multiplying, and the one division is the last.
    """
    space = f.space
    values = f.values
    points = f.domain if isinstance(f, PartialFunction) else range(space.n)
    vscale, ints = scale_to_integers([values[x] for x in points])
    unit, dist = space.scaled
    best_num, best_den = 0, 1
    for i, x in enumerate(points):
        vx, row = ints[i], dist[x]
        for j in range(i + 1, len(points)):
            num = abs(vx - ints[j])
            den = row[points[j]]
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return Fraction(best_num * unit, best_den * vscale)


def sup_norm(h) -> Fraction:
    return max((abs(v) for v in h.values), default=Fraction(0))


def distance_to_base(space: PointedMetricSpace) -> LipFunction:
    """The function x -> d(x, base); norms every positive element."""
    base = space.base
    return LipFunction(space, tuple(space.d(x, base) for x in range(space.n)))


def point_bump(space: PointedMetricSpace, p: int) -> LipFunction:
    """Nonnegative bump: 1 at p, 0 elsewhere (p must not be the base)."""
    if p == space.base:
        raise ValueError("a point bump at the base point cannot vanish there")
    return LipFunction(
        space, tuple(Fraction(1 if x == p else 0) for x in range(space.n))
    )


def radial_cutoff(space: PointedMetricSpace, r) -> WeightFunction:
    """Tent cutoff of the distance-to-base function at radius r.

    Equals d(x, base) inside the ball of radius r, decays linearly to 0
    between r and 2r, and vanishes beyond 2r.  Nonnegative, bounded by r,
    and 1-Lipschitz.
    """
    r = as_fraction(r)
    if r <= 0:
        raise NonpositiveRadius("cutoff radius must be positive")
    base = space.base
    out = []
    for x in range(space.n):
        dx = space.d(x, base)
        if dx <= r:
            out.append(dx)
        elif dx <= 2 * r:
            out.append(2 * r - dx)
        else:
            out.append(Fraction(0))
    cut = WeightFunction(space, tuple(out))
    if not all(0 <= v <= r for v in cut.values) or lip_constant(cut) > 1:
        raise InternalVerificationFailure("radial cutoff left [0, r] or exceeded slope 1")
    return cut


def truncate_support(f: LipFunction, r) -> LipFunction:
    """Clamp f between +-L * cutoff so it vanishes outside the 2r-ball.

    Agrees with f on the r-ball around the base, never increases the
    Lipschitz constant, and preserves zero values.
    """
    r = as_fraction(r)
    if r <= 0:
        raise NonpositiveRadius("truncation radius must be positive")
    space = f.space
    L = lip_constant(f)
    cut = radial_cutoff(space, r)
    out = tuple(
        max(min(f.values[x], L * cut.values[x]), -L * cut.values[x])
        for x in range(space.n)
    )
    g = LipFunction(space, out)
    if lip_constant(g) > L:
        raise InternalVerificationFailure("truncation increased the Lipschitz constant")
    if any(g.values[x] != f.values[x] for x in space.ball(space.base, r)):
        raise InternalVerificationFailure("truncation changed f inside the r-ball")
    if any(g.values[x] != 0 for x in range(space.n) if f.values[x] == 0):
        raise InternalVerificationFailure("truncation moved a zero of f")
    return g


def molecule_norming_function(space: PointedMetricSpace, p: int, q: int) -> LipFunction:
    """The canonical 1-Lipschitz function attaining 1 on the molecule (p, q).

    Value at x is (d(p,q)/2) * (d(x,q) - d(x,p)) / (d(x,q) + d(x,p)), shifted
    by the constant that makes it vanish at the base point.
    """
    if p == q:
        raise DegeneratePair(f"molecule endpoints coincide: {p}")
    half = space.d(p, q) / 2

    def raw(x: int) -> Fraction:
        num = space.d(x, q) - space.d(x, p)
        den = space.d(x, q) + space.d(x, p)
        return half * num / den

    shift = raw(space.base)
    f = LipFunction(space, tuple(raw(x) - shift for x in range(space.n)))
    if lip_constant(f) > 1 or Molecule(p, q).as_element(space).pair(f) != 1:
        raise InternalVerificationFailure("molecule function failed to norm its molecule")
    return f


def mcshane_extend(pf: PartialFunction) -> LipFunction:
    """Largest 1-Lipschitz extension: x -> min over the domain of f(q) + d(q,x)."""
    if lip_constant(pf) > 1:
        raise NotOneLipschitzOnDomain(
            "the partial function exceeds Lipschitz constant 1 on its domain"
        )
    return mcshane_formula(pf.space, pf.values)


def mcshane_formula(space: PointedMetricSpace, values: Mapping[int, Fraction]) -> LipFunction:
    """x -> min over q of values[q] + d(q,x), with no Lipschitz check.

    `values` maps a set of points containing the base to values vanishing
    there.  The result extends them only if they are 1-Lipschitz, so a
    caller certifies it, as :func:`mcshane_extend` does beforehand.
    """
    out = tuple(
        min(v + space.d(q, x) for q, v in values.items()) for x in range(space.n)
    )
    return LipFunction(space, out)


def bump(space: PointedMetricSpace, S: Iterable[int], r) -> WeightFunction:
    """Plateau bump: 1 on S, decaying with slope 1/r, zero at distance r.

    h(x) = max(1 - d(x,S)/r, 0).
    """
    core = sorted(set(S))
    if not core:
        raise EmptySet("bump core must be nonempty")
    r = as_fraction(r)
    if r <= 0:
        raise NonpositiveRadius("bump radius must be positive")
    out = tuple(
        max(1 - space.distance_to_set(x, core) / r, Fraction(0))
        for x in range(space.n)
    )
    h = WeightFunction(space, out)
    if not all(0 <= v <= 1 for v in h.values) or any(h.values[x] != 1 for x in core):
        raise InternalVerificationFailure("bump left [0, 1] or is not 1 on its core")
    if lip_constant(h) * r > 1:
        raise InternalVerificationFailure("bump is steeper than 1/r")
    return h


def weighting_bound(h: WeightFunction) -> Fraction:
    """Operator-norm bound of weighting by h: sup|h| + rad(supp h) * ||h||_L."""
    return sup_norm(h) + h.space.radius(h.support) * lip_constant(h)


def multiply_by_weight(
    f: LipFunction, h: WeightFunction, window: Iterable[int] | None = None
) -> LipFunction:
    """Pointwise product f * h on a window containing supp(h), zero outside.

    The window defaults to the whole space; it must contain the base point
    and the support of h.  The product never exceeds the weighting bound
    times the Lipschitz constant of f, and it preserves zero values of f.
    """
    space = f.space
    if not _same_space(space, h.space):
        raise SpaceMismatch("weight and function must live on the same space")
    if window is None:
        K = set(range(space.n))
    else:
        K = set(window) | {space.base}
        if not h.support <= K:
            raise SupportNotContained(
                "the multiplication window must contain the weight's support"
            )
    out = tuple(
        f.values[x] * h.values[x] if x in K else Fraction(0)
        for x in range(space.n)
    )
    g = LipFunction(space, out)
    if lip_constant(g) > weighting_bound(h) * lip_constant(f):
        raise InternalVerificationFailure("product exceeds the weighting bound")
    if any(g.values[x] != 0 for x in range(space.n) if f.values[x] == 0):
        raise InternalVerificationFailure("product moved a zero of f")
    return g


def weight_element(mu: FreeElement, h: WeightFunction) -> FreeElement:
    """Predual action of weighting: multiply each coefficient by h(p).

    This is the unique element pairing with f the way mu pairs with f * h
    (forced by evaluating on point bumps).  Support shrinks into
    supp(mu) & supp(h); positivity is preserved for nonnegative h.
    """
    if not _same_space(mu.space, h.space):
        raise SpaceMismatch("element and weight must live on the same space")
    out = canonicalize(mu.space, {p: a * h.values[p] for p, a in mu.items})
    if not support(out) <= (support(mu) & h.support):
        raise InternalVerificationFailure("weighting grew the support")
    if is_positive(mu) and all(v >= 0 for v in h.values) and not is_positive(out):
        raise InternalVerificationFailure("nonnegative weighting broke positivity")
    return out


def pointwise_product(h: WeightFunction, f) -> WeightFunction:
    """Pointwise product of a weight with any total function, as a weight."""
    if not _same_space(h.space, f.space):
        raise SpaceMismatch("product requires functions over the same space")
    return WeightFunction(
        h.space, tuple(a * b for a, b in zip(h.values, f.values))
    )


def weight_sum(*terms: WeightFunction) -> WeightFunction:
    """Pointwise sum of weight functions over a common space."""
    space = terms[0].space
    if not all(_same_space(space, t.space) for t in terms):
        raise SpaceMismatch("all summands must live on the same space")
    out = [Fraction(0)] * space.n
    for t in terms:
        for x, v in enumerate(t.values):
            out[x] += v
    return WeightFunction(space, tuple(out))


def scale_weight(h: WeightFunction, c) -> WeightFunction:
    c = as_fraction(c)
    return WeightFunction(h.space, tuple(c * v for v in h.values))
