"""Rescaling every distance by c scales the answers by c, or leaves them alone.

If d becomes c * d, a function f is 1-Lipschitz for d exactly when c * f is
for c * d, so McShane extensions, norms and the values of normers scale by
c, while attainment cells, tight pairs and annihilator zeros do not move.
The factors c = a / b have a and b coprime to every denominator of the
generated spaces and values (at most 3), so the integer kernels meet units
and value scales that neither divide nor equal each other.
"""

import random
from fractions import Fraction

from freelip.elements import canonicalize
from freelip.extremal import attainment_partition
from freelip.functions import (
    intersection_property_check,
    mcshane_extend,
    partial_function,
    restrict,
)
from freelip.generators import random_element, random_lip0, random_space, random_subset
from freelip.metric import validate_space
from freelip.norms import norm_certificate, normers_of

FACTORS = [Fraction(7, 5), Fraction(5, 11), Fraction(13, 7), Fraction(1, 17), Fraction(19)]


def _rescaled(space, c):
    return validate_space(
        [[c * v for v in row] for row in space.dist], base=space.base, labels=space.labels
    )


def _cases(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        space = random_space(rng, rng.randint(2, 7))
        c = FACTORS[i % len(FACTORS)]
        yield rng, space, c, _rescaled(space, c)


def test_extensions_scale_and_their_cells_stay():
    split = 0
    for rng, space, c, scaled in _cases(91, 80):
        f = random_lip0(rng, space, unit_ball=True)
        pf = restrict(f, random_subset(rng, space))
        pf_c = partial_function(scaled, {q: c * v for q, v in pf.items})
        assert mcshane_extend(pf_c).values == tuple(c * v for v in mcshane_extend(pf).values)
        cells = attainment_partition(pf)
        assert attainment_partition(pf_c) == cells
        split += len(cells) > 1
        family = [random_subset(rng, space) for _ in range(rng.randint(1, 3))]
        assert intersection_property_check(scaled, family) == intersection_property_check(
            space, family
        )
    assert split > 20


def test_norms_and_normers_scale_and_their_tight_pairs_stay():
    for rng, space, c, scaled in _cases(92, 80):
        mu = random_element(rng, space)
        mu_c = canonicalize(scaled, mu.coeffs)
        assert norm_certificate(mu_c).value == c * norm_certificate(mu).value
        report, report_c = normers_of(mu), normers_of(mu_c)
        assert report_c.value == c * report.value
        assert report_c.fixed_values == {p: c * v for p, v in report.fixed_values.items()}
        assert report_c.shared_tight_pairs == report.shared_tight_pairs
