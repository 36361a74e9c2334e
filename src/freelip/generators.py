"""Seeded random generation of spaces, elements and functions.

Everything is driven by an explicit random.Random instance and produces
exact rational data, so a fixed seed reproduces the whole corpus bit for
bit.  Random spaces are built as shortest-path closures of random positive
edge weights; the closure process creates plenty of tight triangles, which
is what makes nontrivial metric segments (and hence non-extreme molecules)
common in the corpus.

The random spaces, elements, functions and weights draw each value as
the integers a and b of a / b (and a sign, for a coefficient), and build
their integer form directly: the numerators over the lcm of the
denominators, reduced by `metric._validated`, `elements._reduced` or the
function's own gcd.  No Fraction is made, and the draws are those of
:func:`random_rational`, in the same order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .elements import FreeElement, _reduced
from .functions import LipFunction, WeightFunction, lip_constant
from .metric import PointedMetricSpace, _validated, floyd_warshall, line_space
from .rationals import as_fraction


def random_rational(rng: random.Random, max_num: int = 9, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_space(rng: random.Random, n: int) -> PointedMetricSpace:
    """Random n-point space: metric closure of random positive weights.

    Each weight a / b is drawn as the integers a and b, by the draws of
    :func:`random_rational`, and the closure (:func:`metric.floyd_warshall`)
    runs on the weights taken over the lcm of the drawn denominators, so its
    rows are the closure over Fractions times that unit; they go to the
    space's checker as is, which divides out any common factor.  From
    `metric.PACKED_CLOSURE_FROM` points on, the closure runs on packed rows
    and gives the rows the scalar loop gives, in a third of its time at
    n = 48 and a sixth at n = 192.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    unit, drawn = _over_lcm([(rng.randint(1, 12), rng.randint(1, 3)) for _ in pairs])
    w = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pairs, drawn):
        w[i][j] = w[j][i] = v
    # the closure keeps symmetry, positivity and the zero diagonal
    return _validated(None, 0, unit, floyd_warshall(w))


def random_line_subset(rng: random.Random, n: int) -> PointedMetricSpace:
    """n distinct rationals on the line; segments are usually nontrivial.

    A coordinate a/b with b in 1..3 is drawn as the integer 6a/b, in sixths,
    so the draw compares no Fractions, and the distances |a - b| of the
    sixths go to the space's checker over the unit 6.
    """
    sixths: set[int] = set()
    while len(sixths) < n:
        sixths.add(rng.randint(0, 4 * n) * 6 // rng.randint(1, 3))
    coords = sorted(sixths)
    return _validated(None, 0, 6, [[abs(a - b) for b in coords] for a in coords])


def uniform_space(n: int, c=Fraction(1)) -> PointedMetricSpace:
    """All distances equal; every segment is trivial."""
    c = as_fraction(c)
    rows = [[0 if i == j else c.numerator for j in range(n)] for i in range(n)]
    return _validated(None, 0, c.denominator, rows)


def random_corpus(
    seed: int, count: int, min_n: int, max_n: int
) -> list[PointedMetricSpace]:
    """Deterministic mixed corpus of validated spaces."""
    rng = random.Random(seed)
    spaces = []
    for i in range(count):
        n = rng.randint(min_n, max_n)
        kind = i % 4
        if kind == 0 and n >= 2:
            spaces.append(random_line_subset(rng, n))
        elif kind == 1:
            spaces.append(uniform_space(n, random_rational(rng)))
        elif kind == 2 and n >= 2:
            spaces.append(line_space(n, step=random_rational(rng)))
        else:
            spaces.append(random_space(rng, n))
    return spaces


def random_subset(rng: random.Random, space: PointedMetricSpace) -> frozenset[int]:
    points = list(space.points())
    k = rng.randint(0, len(points))
    return frozenset(rng.sample(points, k))


def _random_support(
    rng: random.Random, space: PointedMetricSpace, max_support: int | None, min_support: int
) -> list[int]:
    """Non-base points, min_support to max_support as they fit; none, and no draw, if n = 1."""
    candidates = list(space.nonbase_points())
    if not candidates:
        return []
    cap = len(candidates) if max_support is None else min(max_support, len(candidates))
    return rng.sample(candidates, rng.randint(min(min_support, cap), cap))


def _signed(rng: random.Random, signs: tuple[int, ...]) -> tuple[int, int]:
    """rng.choice(signs) * random_rational(rng) as (numerator, denominator), by the same draws."""
    sign = rng.choice(signs)
    return sign * rng.randint(1, 9), rng.randint(1, 3)


def _over_lcm(drawn: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """The lcm of the denominators b of the pairs (a, b), and each a / b times it."""
    unit = lcm(*(b for _, b in drawn))
    return unit, [a * (unit // b) for a, b in drawn]


def random_positive_element(
    rng: random.Random,
    space: PointedMetricSpace,
    max_support: int | None = None,
    min_support: int = 1,
) -> FreeElement:
    """Positive element with random support; zero on a one-point space."""
    supp = _random_support(rng, space, max_support, min_support)
    den, nums = _over_lcm([(rng.randint(1, 9), rng.randint(1, 3)) for _ in supp])
    return _reduced(space, den, sorted(zip(supp, nums)))


def random_element(
    rng: random.Random, space: PointedMetricSpace, max_support: int | None = None
) -> FreeElement:
    """Signed element with random support; zero on a one-point space."""
    supp = _random_support(rng, space, max_support, 1)
    den, nums = _over_lcm([_signed(rng, (1, -1)) for _ in supp])
    return _reduced(space, den, sorted(zip(supp, nums)))


def random_lip0(
    rng: random.Random, space: PointedMetricSpace, unit_ball: bool = False
) -> LipFunction:
    """Random function vanishing at the base, optionally scaled into the ball.

    A constant L = num / den above 1 divides the function ints / scale, to
    ints * den / (scale * num).
    """
    drawn = [(0, 1) if x == space.base else _signed(rng, (1, -1, 1)) for x in range(space.n)]
    f = LipFunction._of(space, *_over_lcm(drawn))
    if unit_ball:
        L = lip_constant(f)
        if L > 1:
            f = LipFunction._of(space, f.scale * L.numerator, [v * L.denominator for v in f.ints])
    return f


def random_weight(
    rng: random.Random, space: PointedMetricSpace, nonneg: bool = False
) -> WeightFunction:
    """Random weight; roughly half the points get weight zero."""
    signs = (1,) if nonneg else (1, -1)
    drawn = [_signed(rng, signs) if rng.random() < 0.6 else (0, 1) for _ in range(space.n)]
    return WeightFunction._of(space, *_over_lcm(drawn))
