"""Finite pointed metric spaces and purely metric computations.

Distances are exact rationals throughout: segment membership is an exact
equality test and the extremal dichotomies downstream are discontinuous in
the data, so no floating point is allowed anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    AsymmetricDistance,
    BadBaseIndex,
    DegeneratePair,
    DuplicateLabel,
    EmptySet,
    EpsilonOutOfRange,
    TriangleViolation,
    UnknownLabel,
    ZeroDistanceDistinctPoints,
)
from .rationals import as_fraction, scale_to_integers


@dataclass(frozen=True)
class PointedMetricSpace:
    """A finite metric space with a distinguished base point.

    Instances are immutable and always satisfy the metric axioms; construct
    them through :func:`validate_space`, which checks symmetry, separation
    and the triangle inequality and reports the first violation found.
    """

    labels: tuple[str, ...]
    base: int
    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def points(self) -> range:
        return range(self.n)

    def nonbase_points(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i != self.base)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The distances as integers: (unit, rows) with rows[i][j] = d(i,j) * unit.

        `unit` is the lcm of the denominators of all distances.  Computed
        once per space; it is not a field, so equality and hashing ignore it.
        """
        n = self.n
        unit, flat = scale_to_integers([v for row in self.dist for v in row])
        return unit, tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))

    def index(self, label) -> int:
        """Resolve a point label to its index."""
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise UnknownLabel(label) from None

    def resolve(self, key) -> int:
        """Resolve a point index (an int, not a bool) or a label to an index."""
        if isinstance(key, int) and not isinstance(key, bool):
            if not (0 <= key < self.n):
                raise UnknownLabel(key)
            return key
        return self.index(key)

    def ordered_pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs of distinct point indices."""
        return [(i, j) for i in range(self.n) for j in range(self.n) if i != j]

    def ball(self, center: int, r: Fraction) -> frozenset[int]:
        """Closed ball of radius r around a point."""
        r = as_fraction(r)
        return frozenset(x for x in range(self.n) if self.dist[center][x] <= r)

    def distance_to_set(self, p: int, A: Iterable[int]) -> Fraction:
        """Minimum distance from p to a nonempty set of points."""
        members = list(A)
        if not members:
            raise EmptySet("distance to the empty set is undefined")
        return min(self.dist[p][x] for x in members)

    def radius(self, A: Iterable[int]) -> Fraction:
        """Maximum distance from the base point over A; 0 for empty A."""
        members = list(A)
        if not members:
            return Fraction(0)
        return max(self.dist[self.base][x] for x in members)

    def segment(self, p: int, q: int, epsilon=Fraction(0)) -> "Segment":
        """Metric segment between p and q, optionally relaxed by epsilon.

        A point x belongs to the relaxed segment when
        d(p,x) + d(x,q) <= d(p,q) / (1 - epsilon); epsilon = 0 gives the
        exact segment.  Values epsilon >= 1 are rejected rather than
        interpreted (the membership bound would be meaningless).
        """
        if p == q:
            raise DegeneratePair(f"segment endpoints coincide: {p}")
        eps = as_fraction(epsilon)
        if eps < 0 or eps >= 1:
            raise EpsilonOutOfRange(f"epsilon must satisfy 0 <= eps < 1, got {eps}")
        bound = self.dist[p][q] / (1 - eps)
        members = frozenset(
            x for x in range(self.n) if self.dist[p][x] + self.dist[x][q] <= bound
        )
        return Segment(p=p, q=q, epsilon=eps, members=members)


@dataclass(frozen=True)
class Segment:
    """Points lying (almost) between two endpoints.

    The endpoints are always members.  A segment is called trivial when it
    contains nothing but its endpoints.
    """

    p: int
    q: int
    epsilon: Fraction
    members: frozenset[int]

    def is_trivial(self) -> bool:
        return self.members == frozenset((self.p, self.q))


def validate_space(
    dist: Sequence[Sequence], base: int = 0, labels: Sequence | None = None
) -> PointedMetricSpace:
    """Validate a candidate distance matrix and build a space.

    Checks, in order: shape and rational entries, base index, label
    distinctness, symmetry, separation (zero distance iff equal points) and
    the triangle inequality.  The first violated axiom is reported with the
    witnessing pair or triple.
    """
    n = len(dist)
    rows = []
    for i, row in enumerate(dist):
        entries = [as_fraction(v) for v in row]
        if len(entries) != n:
            raise ValueError(f"matrix is not square: row {i} has {len(entries)} entries, expected {n}")
        rows.append(tuple(entries))
    matrix = tuple(rows)

    if not (0 <= base < n) or n == 0:
        raise BadBaseIndex(base, n)

    if labels is None:
        labels = [str(i) for i in range(n)]
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise DuplicateLabel(f"expected {n} labels, got {len(labels)}")
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(lab)
        seen.add(lab)

    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise AsymmetricDistance(i, j)
    for i in range(n):
        if matrix[i][i] != 0:
            raise ZeroDistanceDistinctPoints(i, i)
        for j in range(i + 1, n):
            if matrix[i][j] == 0:
                raise ZeroDistanceDistinctPoints(i, j)
    # negative entries violate the triangle inequality at (i, j, i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][k] > matrix[i][j] + matrix[j][k]:
                    raise TriangleViolation(i, j, k)

    return PointedMetricSpace(labels=labels, base=base, dist=matrix)


def line_space(n: int, step=Fraction(1)) -> PointedMetricSpace:
    """Equally spaced points on the real line with base at the left end."""
    step = as_fraction(step)
    dist = [[abs(i - j) * step for j in range(n)] for i in range(n)]
    return validate_space(dist, base=0)


def space_from_points(values: Sequence, base: int = 0) -> PointedMetricSpace:
    """Subspace of the rational line given by explicit coordinates."""
    coords = [as_fraction(v) for v in values]
    dist = [[abs(a - b) for b in coords] for a in coords]
    return validate_space(dist, base=base)
