"""Space families that stress exact arithmetic, shared by several test modules.

Coprime denominators make every integer scale a product of distinct primes;
ultrametrics are full of ties, where every triangle is isosceles.
"""

from fractions import Fraction

from freelip.generators import random_rational
from freelip.metric import validate_space


def coprime_space(rng, n):
    """Metric closure of weights whose denominators are distinct primes."""
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = Fraction(rng.randint(5, 40), rng.choice((7, 11, 13)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    return validate_space(w)


def ultrametric_space(rng, n):
    """d(i, j) is the largest gap h_k between i and j on a line: an ultrametric."""
    h = [random_rational(rng) for _ in range(n - 1)]
    return validate_space(
        [[max(h[min(i, j) : max(i, j)], default=0) for j in range(n)] for i in range(n)]
    )
