"""Lipschitz functions on finite pointed spaces and explicit constructions.

Covers the function-side toolbox: Lipschitz constants, the distance-to-base
function, the canonical norming function of a molecule, McShane extension
of partial functions, multiplication by a weight and its predual action on
elements.  A function vanishing off one point, the point bump of the
paper's finite case, is `lip_function(space, {p: 1})`.  The intersection
property of coordinate subspaces is decided here too, by the McShane
annihilators of :func:`intersection_property_check`.

Every function, Lipschitz, weight or partial, holds one integer form,
f(domain[i]) = ints[i] / scale over one positive scale with no common
factor, so each function has exactly one; a total function's domain is
every point.  The Lipschitz constant, the pairing, the weight products,
the McShane extension and the norming face read those integers, and the
kernels here, in `norms` and in `extremal` build their functions from the
integers they computed; the Fraction `values` and `items` are views.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import lt
from typing import Iterable, Mapping, Sequence

from .elements import FreeElement, _by_point, _reduced, _same_space
from .errors import (
    EmptyFamily,
    InternalVerificationFailure,
    NotOneLipschitzOnDomain,
    SpaceMismatch,
)
from .metric import PointedMetricSpace, min_plus
from .rationals import as_fraction, scale_to_integers
from .records import record


@record
class _Function:
    """A rational-valued function on `domain`, f(domain[i]) = ints[i] / scale.

    A record of its four fields: it equals only a function of its own
    class with the same space and values, hashes as such, reprs the fields
    `__match_args__` names, and refuses assignment.
    """

    space: PointedMetricSpace
    domain: Sequence[int]
    scale: int
    ints: tuple[int, ...]

    def __post_init__(self) -> None:
        """The function ints / scale on `domain`, reduced by one gcd, or ValueError.

        The form is checked where every function is built: a positive
        scale and one value per domain point, then the class's `_check`.
        A total function's domain is range(n), so its length check is O(1).
        """
        scale, ints = self.scale, self.ints
        if scale <= 0:
            raise ValueError(f"the scale must be positive, got {scale}")
        if len(ints) != len(self.domain):
            raise ValueError(f"expected {len(self.domain)} values, got {len(ints)}")
        g = gcd(scale, *ints)
        if g != 1:
            object.__setattr__(self, "scale", scale // g)
            ints = [v // g for v in ints]
        object.__setattr__(self, "ints", tuple(ints))
        self._check()

    @cached_property
    def items(self) -> tuple[tuple[int, Fraction], ...]:
        scale = self.scale
        return tuple((p, Fraction(v, scale)) for p, v in zip(self.domain, self.ints))

    def _check(self) -> None:
        pass


class _TotalFunction(_Function):
    """A function on every point, `domain` = range(n), built from `(space, values)`.

    `values`, the tuple of Fractions, is kept as given, or built on first
    read for a function made from integers (:meth:`_of`).  `_tight`, the
    tight pairs of one slope scan (:func:`_tight_pairs`; None for a
    function steeper than 1), is kept from the scan that certified the
    function, or taken on first read.
    """

    __match_args__ = ("space", "values")

    def __init__(self, space: PointedMetricSpace, values: Sequence[Fraction]):
        values = tuple(values)
        super().__init__(space, range(space.n), *scale_to_integers(values))
        self.__dict__["values"] = values

    @classmethod
    def _of(cls, space: PointedMetricSpace, scale: int, ints: Sequence[int]):
        """The function ints / scale on every point, for a positive scale, reduced by one gcd."""
        self = cls.__new__(cls)
        _Function.__init__(self, space, range(space.n), scale, ints)
        return self

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        scale = self.scale
        return tuple(Fraction(v, scale) for v in self.ints)

    @cached_property
    def _tight(self) -> list[tuple[int, int]] | None:
        return _tight_pairs(self.space, self.scale, self.ints)


class LipFunction(_TotalFunction):
    """Total rational-valued function vanishing at the base point."""

    def _check(self) -> None:
        if self.ints[self.space.base] != 0:
            raise ValueError("a Lip_0 function must vanish at the base point")

    def __call__(self, p: int) -> Fraction:
        return self.values[p]


class WeightFunction(_TotalFunction):
    """Total rational-valued function with no base-point constraint."""

    @property
    def support(self) -> frozenset[int]:
        return frozenset(p for p, v in enumerate(self.ints) if v != 0)


class PartialFunction(_Function):
    """Function on a sorted `domain` that holds the base point once.

    Build it with :func:`partial_function` or :func:`restrict`, or from
    integers, on a strictly increasing tuple of points holding the base
    with value 0: each function then has one form.
    """

    def _check(self) -> None:
        domain, points = self.domain, range(self.space.n)
        increasing = isinstance(domain, tuple) and all(map(lt, domain, domain[1:]))
        if not (increasing and all(p in points for p in domain)):
            raise ValueError(f"the domain must be a tuple of increasing points, got {domain!r}")
        base = self.space.base
        if base not in domain or self.ints[domain.index(base)] != 0:
            raise ValueError("a partial Lip_0 function must vanish at the base point")

    @property
    def values(self) -> dict[int, Fraction]:
        return dict(self.items)

    @cached_property
    def _minima(self) -> tuple[int, list[int], list[list[int]], list[int]]:
        """The McShane extension x -> min over q of f(q) + d(q, x), on integers, taken once.

        The values and the distances of `space.scaled` lift to one scale,
        `common`, the lcm of `scale` and the distance unit.  Returns
        `common`, the lifted values, the lifted distance rows of the domain
        points, and their :func:`metric.min_plus` E, which is 1-Lipschitz,
        with E[q] <= f(q) + d(q, q) = f(q) on the domain.
        NotOneLipschitzOnDomain is raised iff E[q] != f(q) at some domain
        point q, which is iff f is steeper than 1 there: f(a) - f(b) >
        d(a, b) gives E[a] <= f(b) + d(b, a) < f(a), and otherwise every
        term f(b) + d(b, q) is at least f(q).
        """
        unit, lengths = self.space.scaled
        common = lcm(self.scale, unit)
        lift_v, lift_d = common // self.scale, common // unit
        values = [v * lift_v for v in self.ints]
        rows = [[s * lift_d for s in lengths[q]] for q in self.domain]
        E = min_plus(values, rows)
        if any(E[q] != v for q, v in zip(self.domain, values)):
            raise NotOneLipschitzOnDomain(
                "the partial function exceeds Lipschitz constant 1 on its domain"
            )
        return common, values, rows, E


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
    return tuple(as_fraction(v) for v in values)


def partial_function(space: PointedMetricSpace, values: Mapping) -> PartialFunction:
    """Build a PartialFunction; the base point joins the domain with value 0."""
    acc = {space.resolve(key): as_fraction(v) for key, v in values.items()}
    acc.setdefault(space.base, Fraction(0))
    domain = tuple(sorted(acc))
    return PartialFunction(space, domain, *scale_to_integers([acc[p] for p in domain]))


def restrict(f: LipFunction, S: Iterable[int]) -> PartialFunction:
    """Restriction f|_S as a partial function (the base always joins S), on f's integers."""
    space, ints = f.space, _by_point(f)
    domain = tuple(sorted({*map(space.resolve, S), space.base}))
    return PartialFunction(space, domain, f.scale, [ints[p] for p in domain])


def lip_constant(f) -> Fraction:
    """Exact Lipschitz constant: max of |f(x)-f(y)| / d(x,y) over pairs.

    Any function is measured over its domain, which for a total function
    is the whole space.  Values and distances are read as the stored
    integers over their scales, slopes are compared by cross-multiplying,
    and the one division is the last.
    """
    points, vscale, ints = f.domain, f.scale, f.ints
    unit, dist = f.space.scaled
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
    return Fraction(max(map(abs, h.ints)), h.scale)


def distance_to_base(space: PointedMetricSpace) -> LipFunction:
    """The function x -> d(x, base); norms every positive element."""
    unit, lengths = space.scaled
    return LipFunction._of(space, unit, lengths[space.base])


def _tight_pairs(
    space: PointedMetricSpace, vscale: int, values: Sequence[int]
) -> list[tuple[int, int]] | None:
    """Where f = values / vscale has slope one, or None if it is steeper somewhere.

    One pass over the unordered pairs on the integer rows of
    `space.scaled`: with d = scaled / unit, |f(x) - f(y)| <= d(x, y) reads
    |values[x] - values[y]| * unit <= scaled[x][y] * vscale.  On equality
    the pair is tight in the direction in which f rises, which is unique
    because d(x, y) > 0.  The tight pairs (x, y), those with
    f(x) - f(y) = d(x, y), come back sorted, the order of `ordered_pairs`.
    """
    unit, lengths = space.scaled
    lifted = [v * unit for v in values]
    tight = []
    for x, row in enumerate(lengths):
        lx = lifted[x]
        for y in range(x + 1, len(row)):
            ly = lifted[y]
            excess = abs(lx - ly) - row[y] * vscale
            if excess >= 0:
                if excess:
                    return None
                tight.append((x, y) if lx > ly else (y, x))
    tight.sort()
    return tight


def molecule_norming_function(space: PointedMetricSpace, p: int, q: int) -> LipFunction:
    """The canonical 1-Lipschitz function attaining 1 on the molecule (p, q).

    Value at x is (d(p,q)/2) * (d(x,q) - d(x,p)) / (d(x,q) + d(x,p)), shifted
    by the constant that makes it vanish at the base point.  On the integer
    distances s of `space.scaled` (d = s / unit) and with S_x the positive
    sum s[x][q] + s[x][p], that is s[p][q] * (s[x][q] - s[x][p]) * (L / S_x)
    over 2 * unit * L, for L the lcm of the S_x: one integer numerator V[x]
    per point over one integer scale, so the shift is an integer subtraction.
    Both certification checks run on those integers: slope at most one
    everywhere (:func:`_tight_pairs`), and the pairing with the molecule,
    (f(p) - f(q)) / d(p,q), equal to one, that is V[p] - V[q] equal to
    d(p,q) times the scale, 2 * L * s[p][q].  The function keeps the scan's
    tight pairs as its `_tight`, so its norming face takes no second scan;
    tightness does not depend on the integer scale, so they are the pairs
    of the reduced function too.  Fractions appear only in the returned
    function's view.  The endpoints are resolved by `space.pair`.
    """
    p, q = space.pair(p, q)
    unit, lengths = space.scaled
    dpq = lengths[p][q]
    sums = [row[q] + row[p] for row in lengths]
    common = lcm(*sums)
    raw = [dpq * (row[q] - row[p]) * (common // s) for row, s in zip(lengths, sums)]
    shift = raw[space.base]
    V = [v - shift for v in raw]
    vscale = 2 * unit * common
    tight = _tight_pairs(space, vscale, V)
    if tight is None or V[p] - V[q] != 2 * common * dpq:
        raise InternalVerificationFailure("molecule function failed to norm its molecule")
    f = LipFunction._of(space, vscale, V)
    f.__dict__["_tight"] = tight
    return f


def mcshane_extend(pf: PartialFunction) -> LipFunction:
    """Largest 1-Lipschitz extension: the minima of `PartialFunction._minima` over their scale."""
    common, _, _, E = pf._minima
    return LipFunction._of(pf.space, common, E)


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
    family = [frozenset(map(space.resolve, K)) | {space.base} for K in Ks]
    if not family:
        raise EmptyFamily("the subset family must be nonempty")
    # the minimum of 0 on each K, which holds the base, is g_K in the distance unit
    lengths = space.scaled[1]
    annihilators = [min_plus([0] * len(K), [lengths[q] for q in K]) for K in family]
    common_zeros = {x for x in space.nonbase_points() if all(g[x] == 0 for g in annihilators)}
    return common_zeros == frozenset.intersection(*family) - {space.base}


def weighting_bound(h: WeightFunction) -> Fraction:
    """Operator-norm bound of weighting by h: sup|h| + rad(supp h) * ||h||_L."""
    return sup_norm(h) + h.space.radius(h.support) * lip_constant(h)


def multiply_by_weight(f: LipFunction, h: WeightFunction) -> LipFunction:
    """Pointwise product f * h.

    The product never exceeds the weighting bound times the Lipschitz
    constant of f, which is checked.  It preserves zero values of f, since
    0 * h(x) = 0; `test_multiply_by_weight_bound` checks that too.
    """
    space = f.space
    if not _same_space(space, h.space):
        raise SpaceMismatch("weight and function must live on the same space")
    product = [a * b for a, b in zip(_by_point(f), _by_point(h))]
    g = LipFunction._of(space, f.scale * h.scale, product)
    if lip_constant(g) > weighting_bound(h) * lip_constant(f):
        raise InternalVerificationFailure("product exceeds the weighting bound")
    return g


def weight_element(mu: FreeElement, h: WeightFunction) -> FreeElement:
    """Predual action of weighting: multiply each coefficient by h(p).

    This is the unique element pairing with f the way mu pairs with f * h
    (forced by evaluating on the functions vanishing off one point).
    On integers, it is the numerators of mu times those of h, over the
    product of the scales.  Support shrinks into supp(mu) & supp(h), as the
    integer form drops the zero products, and a nonnegative h keeps
    positivity, as a_p > 0 and h(p) >= 0; the battery's `check_weighting`
    checks both.
    """
    if not _same_space(mu.space, h.space):
        raise SpaceMismatch("element and weight must live on the same space")
    ints = _by_point(h)
    return _reduced(mu.space, mu.den * h.scale, [(p, n * ints[p]) for p, n in mu.nums])
