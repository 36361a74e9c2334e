"""Finitely supported elements of the free space over a finite metric space.

An element is a rational linear combination of evaluation functionals
delta(p); the base point never carries a coefficient because delta(base) is
the zero functional.  On a finite space the evaluation functionals at the
non-base points form a basis, so representations are unique.  The support,
the intersection of all closed K with mu in F(K), is then the key set of the
canonical coefficient mapping; the battery checks that against its
definition, by annihilators (`checks.check_support_routes`).  The
intersection property of the subspaces F(K), decided by McShane
annihilators, lives in `functions` (`intersection_property_check`), next
to the McShane minima it reads: this module imports nothing from there.

An element is stored in one integer form, the exact rational form with
one denominator for all coefficients (Knuth, *TAOCP* vol. 2, 4.5.1): one
positive denominator and integer numerators with no common factor, sorted
by point, without zeros and without the base point, so each element has
exactly one.  Sums, negation, scaling, molecules and the predual weighting
of `functions` compute on the numerators and end in one gcd (`_reduced`);
the Fraction coefficients `items` and `coeffs` are views, for input,
output and the battery's oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import SpaceMismatch
from .metric import PointedMetricSpace
from .rationals import as_fraction, scale_to_integers
from .records import record


@record
class FreeElement:
    """Sparse element sum_p a_p delta(p) with exact rational coefficients.

    a_p = n_p / den over the pairs (p, n_p) of `nums`, in the integer form
    of the module docstring, so the zero element is (1, ()); `items` and
    `coeffs` are Fraction views, built on first read.  Use
    :func:`canonicalize` (or the arithmetic operators) instead of
    constructing instances directly.
    """

    space: PointedMetricSpace
    den: int
    nums: tuple[tuple[int, int], ...]

    @cached_property
    def items(self) -> tuple[tuple[int, Fraction], ...]:
        den = self.den
        return tuple((p, Fraction(n, den)) for p, n in self.nums)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self.items)

    def is_zero(self) -> bool:
        return not self.nums

    def pair(self, f) -> Fraction:
        """Duality pairing <mu, f> = sum_p a_p f(p).

        Works against any total function, Lipschitz or weight, on its
        integers f = ints / scale: one division, by den * scale.  For weight
        functions this is the same formula because delta(base) = 0 keeps
        the base value out of the sum.  A partial function is a TypeError.
        """
        if not _same_space(self.space, f.space):
            raise SpaceMismatch("pairing requires a function over the same space")
        ints = _by_point(f)
        return Fraction(sum(n * ints[p] for p, n in self.nums), self.den * f.scale)

    def _binop(self, other: "FreeElement", sign: int) -> "FreeElement":
        if not isinstance(other, FreeElement):
            return NotImplemented
        if not _same_space(self.space, other.space):
            raise SpaceMismatch("elements over different spaces never interoperate")
        g = gcd(self.den, other.den)
        lift, other_lift = other.den // g, sign * (self.den // g)
        acc = {p: n * lift for p, n in self.nums}
        for p, n in other.nums:
            acc[p] = acc.get(p, 0) + n * other_lift
        return _reduced(self.space, self.den * lift, sorted(acc.items()))

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return FreeElement(self.space, self.den, tuple((p, -n) for p, n in self.nums))

    def _times(self, num: int, den: int) -> "FreeElement":
        """The element times num / den, for a nonzero den."""
        return _reduced(self.space, self.den * den, [(p, n * num) for p, n in self.nums])

    def __mul__(self, scalar):
        c = as_fraction(scalar)
        return self._times(c.numerator, c.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = as_fraction(scalar)
        if c == 0:
            raise ZeroDivisionError("element divided by zero")
        return self._times(c.denominator, c.numerator)


@record
class Molecule:
    """An ordered pair of distinct points naming (delta(p)-delta(q))/d(p,q)."""

    p: int
    q: int

    def as_element(self, space: PointedMetricSpace) -> FreeElement:
        """The element (delta(p) - delta(q)) / d(p, q).

        Both endpoints are resolved by `space.pair`, as a segment's are, so
        the same keys are rejected, equal endpoints among them; the two
        numerators, the distance unit over the integer distance, are then
        built directly, in point order, without the base point.
        """
        p, q = space.pair(self.p, self.q)
        unit, lengths = space.scaled
        nums = ((p, unit), (q, -unit)) if p < q else ((q, -unit), (p, unit))
        return _reduced(space, lengths[p][q], [item for item in nums if item[0] != space.base])


def _by_point(f) -> tuple[int, ...]:
    """The integers of f, one per point, or TypeError: a partial function's follow its domain."""
    if len(f.ints) != f.space.n:
        raise TypeError(f"expected a function on all {f.space.n} points, got {len(f.ints)} values")
    return f.ints


def _same_space(a: PointedMetricSpace, b: PointedMetricSpace) -> bool:
    """Identity first (hot path), structural equality as the fallback."""
    return a is b or a == b


def _reduced(space: PointedMetricSpace, den: int, nums: Sequence[tuple[int, int]]) -> FreeElement:
    """The element of the numerators `nums` over `den`, in its one integer form.

    `nums` are (point, numerator) pairs sorted by point, without the base
    point, over a nonzero `den`.  Zero numerators are dropped, and the rest
    and `den` are divided by their gcd, taken once, with the sign that
    makes the denominator positive.
    """
    kept = [(p, n) for p, n in nums if n]
    g = gcd(den, *(n for _, n in kept))
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        kept = [(p, n // g) for p, n in kept]
    return FreeElement(space, den, tuple(kept))


def canonicalize(space: PointedMetricSpace, raw: Mapping) -> FreeElement:
    """Build a FreeElement from a point -> rational mapping.

    Keys may be point indices or labels.  Zero coefficients are dropped and
    so is any coefficient on the base point (delta(base) = 0).
    """
    acc: dict[int, Fraction] = {}
    for key, value in raw.items():
        idx, value = space.resolve(key), as_fraction(value)
        acc[idx] = acc[idx] + value if idx in acc else value
    kept = sorted((p, a) for p, a in acc.items() if a and p != space.base)
    # the lcm of reduced denominators shares no factor with every numerator
    den, nums = scale_to_integers([a for _, a in kept])
    return FreeElement(space, den, tuple((p, n) for (p, _), n in zip(kept, nums)))


def zero(space: PointedMetricSpace) -> FreeElement:
    return FreeElement(space, 1, ())


def delta(space: PointedMetricSpace, p: int) -> FreeElement:
    """The evaluation functional at a point."""
    return canonicalize(space, {p: 1})


def support(mu: FreeElement) -> frozenset[int]:
    """Support of mu: the key set of its canonical coefficient mapping.

    A point x != base is outside the support exactly when mu lies in
    F(M - {x}), that is when mu kills every Lipschitz function vanishing
    off x; on the basis delta(p) those functions read back a_x alone.
    """
    return frozenset(p for p, _ in mu.nums)


def is_positive(mu: FreeElement) -> bool:
    """Whether mu pairs nonnegatively with every nonnegative function.

    On a finite space this is equivalent to coefficientwise nonnegativity:
    a negative coefficient at p is exposed by the nonnegative bump at p.
    """
    return all(n > 0 for _, n in mu.nums)


def order_leq(mu: FreeElement, lam: FreeElement) -> bool:
    """The partial order: mu <= lam iff lam - mu is positive."""
    if not _same_space(mu.space, lam.space):
        raise SpaceMismatch("order comparison requires a common space")
    return is_positive(lam - mu)


def subspace_membership(mu: FreeElement, K: Iterable[int]) -> bool:
    """Whether mu lies in the coordinate subspace spanned by delta(K).

    Equivalent formulations (checked as property tests): support(mu) is
    contained in K up to the base point, and mu cannot distinguish
    functions that agree on K, whose points are indices or labels.
    """
    allowed = {*map(mu.space.resolve, K), mu.space.base}
    return support(mu) <= allowed
