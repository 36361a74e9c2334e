"""Finitely supported elements of the free space over a finite metric space.

An element is a rational linear combination of evaluation functionals
delta(p); the base point never carries a coefficient because delta(base) is
the zero functional.  On a finite space the evaluation functionals at the
non-base points form a basis, so representations are unique.  The support,
the intersection of all closed K with mu in F(K), is then the key set of the
canonical coefficient mapping; the battery checks that against its
definition, by annihilators (`checks.check_support_routes`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import EmptyFamily, SpaceMismatch
from .metric import PointedMetricSpace
from .rationals import as_fraction
from .records import record


@record
class FreeElement:
    """Sparse element sum_p a_p delta(p) with exact rational coefficients.

    `items` is sorted by point index, stores no zero coefficient, and never
    contains the base point.  Use :func:`canonicalize` (or the arithmetic
    operators) instead of constructing instances directly.
    """

    space: PointedMetricSpace
    items: tuple[tuple[int, Fraction], ...]

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self.items)

    def is_zero(self) -> bool:
        return not self.items

    def pair(self, f) -> Fraction:
        """Duality pairing <mu, f> = sum_p a_p f(p).

        Works against any function-like object exposing `values` indexed by
        point; for weight functions this is the same formula because
        delta(base) = 0 keeps the base value out of the sum.
        """
        if not _same_space(self.space, f.space):
            raise SpaceMismatch("pairing requires a function over the same space")
        values = f.values
        return sum((a * values[p] for p, a in self.items), Fraction(0))

    def _binop(self, other: "FreeElement", sign: int) -> "FreeElement":
        if not isinstance(other, FreeElement):
            return NotImplemented
        if not _same_space(self.space, other.space):
            raise SpaceMismatch("elements over different spaces never interoperate")
        acc = dict(self.items)
        for p, a in other.items:
            acc[p] = acc.get(p, Fraction(0)) + sign * a
        return canonicalize(self.space, acc)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return FreeElement(self.space, tuple((p, -a) for p, a in self.items))

    def __mul__(self, scalar):
        c = as_fraction(scalar)
        if c == 0:
            return FreeElement(self.space, ())
        return FreeElement(self.space, tuple((p, c * a) for p, a in self.items))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = as_fraction(scalar)
        return self * (Fraction(1) / c)


@record
class Molecule:
    """An ordered pair of distinct points naming (delta(p)-delta(q))/d(p,q)."""

    p: int
    q: int

    def as_element(self, space: PointedMetricSpace) -> FreeElement:
        """The element (delta(p) - delta(q)) / d(p, q).

        Both endpoints are resolved as :func:`canonicalize` resolves keys,
        so the same inputs are rejected (equal endpoints divide by zero);
        the two items are then built directly, in point order, without the
        base point.
        """
        p, q = space.resolve(self.p), space.resolve(self.q)
        unit, lengths = space.scaled
        scale = Fraction(unit, lengths[p][q])
        items = ((p, scale), (q, -scale)) if p < q else ((q, -scale), (p, scale))
        return FreeElement(space, tuple(item for item in items if item[0] != space.base))


def _same_space(a: PointedMetricSpace, b: PointedMetricSpace) -> bool:
    """Identity first (hot path), structural equality as the fallback."""
    return a is b or a == b


def canonicalize(space: PointedMetricSpace, raw: Mapping) -> FreeElement:
    """Build a FreeElement from a point -> rational mapping.

    Keys may be point indices or labels.  Zero coefficients are dropped and
    so is any coefficient on the base point (delta(base) = 0).
    """
    acc: dict[int, Fraction] = {}
    for key, value in raw.items():
        idx = space.resolve(key)
        acc[idx] = acc.get(idx, Fraction(0)) + as_fraction(value)
    items = tuple(
        sorted((p, a) for p, a in acc.items() if a != 0 and p != space.base)
    )
    return FreeElement(space=space, items=items)


def zero(space: PointedMetricSpace) -> FreeElement:
    return FreeElement(space, ())


def delta(space: PointedMetricSpace, p: int) -> FreeElement:
    """The evaluation functional at a point."""
    return canonicalize(space, {p: 1})


def support(mu: FreeElement) -> frozenset[int]:
    """Support of mu: the key set of its canonical coefficient mapping.

    A point x != base is outside the support exactly when mu lies in
    F(M - {x}), that is when mu kills every Lipschitz function vanishing
    off x; on the basis delta(p) those functions read back a_x alone.
    """
    return frozenset(p for p, _ in mu.items)


def is_positive(mu: FreeElement) -> bool:
    """Whether mu pairs nonnegatively with every nonnegative function.

    On a finite space this is equivalent to coefficientwise nonnegativity:
    a negative coefficient at p is exposed by the nonnegative bump at p.
    """
    return all(a > 0 for _, a in mu.items)


def order_leq(mu: FreeElement, lam: FreeElement) -> bool:
    """The partial order: mu <= lam iff lam - mu is positive."""
    if not _same_space(mu.space, lam.space):
        raise SpaceMismatch("order comparison requires a common space")
    return is_positive(lam - mu)


def subspace_membership(mu: FreeElement, K: Iterable[int]) -> bool:
    """Whether mu lies in the coordinate subspace spanned by delta(K).

    Equivalent formulations (checked as property tests): support(mu) is
    contained in K up to the base point, and mu cannot distinguish
    functions that agree on K.
    """
    allowed = set(K) | {mu.space.base}
    return support(mu) <= allowed


def intersection_property_check(
    space: PointedMetricSpace, Ks: Iterable[Iterable[int]]
) -> bool:
    """The intersection property for coordinate subspaces, decided by annihilators.

    An element lies in F(K) exactly when it kills every Lipschitz function
    vanishing on K and the base.  The McShane extension g_K of 0 from
    K + {base} is the largest one, and bounds every other by its Lipschitz
    constant times g_K, so delta(x) lies in F(K) iff g_K(x) = 0.  The
    intersection of the F(K_i) is thus spanned by the delta(x) where every
    g_i vanishes, and the property holds when those non-base points are
    the intersection of the K_i.  An extension that does not vanish exactly
    on its domain makes the comparison fail.
    """
    from .functions import _mcshane_minima

    family = [frozenset(map(space.resolve, K)) for K in Ks]
    if not family:
        raise EmptyFamily("the subset family must be nonempty")
    # the minima of 0 on K + {base}, on integers, are unit * g_K
    annihilators = [_mcshane_minima(space, [(q, 0) for q in K | {space.base}])[2] for K in family]
    common_zeros = {x for x in space.nonbase_points() if all(g[x] == 0 for g in annihilators)}
    return common_zeros == frozenset.intersection(*family) - {space.base}
