"""Metamorphic relations: two runs of the library on related inputs agree.

Relabelling.  Moving point i of a space to position perm[i], the base
along with it, gives an isometric pointed space, and mu maps to the element
with the same coefficients at the moved points.  So the norms are equal,
the norming function of either run, read back through the permutation, is
1-Lipschitz and pairs with the other run's element to the norm, and the
values and slopes fixed on every normer (`normers_of`) move with the
points.  The transport solver numbers its sources and sinks by position,
so a relabelling reorders every one of its arrays: an index mixed up
between point, source and sink survives a comparison with one oracle on
one labelling far more easily than this relation.
"""

import random

import pytest

from freelip.elements import canonicalize
from freelip.functions import lip_constant, lip_function
from freelip.generators import (
    random_element,
    random_line_subset,
    random_positive_element,
    random_rational,
    random_space,
    uniform_space,
)
from freelip.metric import validate_space
from freelip.norms import norm_certificate, normers_of
from spaces import coprime_space, ultrametric_space

SPACES = {
    "random": random_space,
    "uniform": lambda rng, n: uniform_space(n, random_rational(rng)),
    "line": random_line_subset,
    "coprime": coprime_space,
    "ultrametric": ultrametric_space,
}


def _inverse(perm):
    """The permutation `at` with at[perm[i]] == i."""
    return sorted(range(len(perm)), key=perm.__getitem__)


def relabel(space, perm):
    """The space with point i at position perm[i]; labels and base move along."""
    at = _inverse(perm)
    return validate_space(
        [[space.d(at[a], at[b]) for b in range(space.n)] for a in range(space.n)],
        base=perm[space.base],
        labels=[space.labels[i] for i in at],
    )


def _relabelled_cases(kind, count=40):
    rng = random.Random(sorted(SPACES).index(kind))
    for _ in range(count):
        space = SPACES[kind](rng, rng.randint(2, 9))
        draw = random_positive_element if rng.random() < 0.2 else random_element
        mu = draw(rng, space, max_support=10)
        perm = list(range(space.n))
        rng.shuffle(perm)
        moved = relabel(space, perm)
        yield space, mu, perm, moved, canonicalize(moved, {perm[p]: a for p, a in mu.items})


def _read_back(f, space, perm):
    """The function x -> f(perm[x]) on the unpermuted space."""
    return lip_function(space, [f.values[perm[x]] for x in range(space.n)])


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_relabelling_keeps_the_norm_and_moves_the_witness(kind):
    moved_bases = 0
    for space, mu, perm, moved, nu in _relabelled_cases(kind):
        cert, moved_cert = norm_certificate(mu), norm_certificate(nu)
        assert moved_cert.value == cert.value
        back = _read_back(moved_cert.dual_witness, space, perm)
        assert lip_constant(back) <= 1 and mu.pair(back) == cert.value
        forth = _read_back(cert.dual_witness, moved, _inverse(perm))
        assert lip_constant(forth) <= 1 and nu.pair(forth) == cert.value
        assert sum(w for _, w in moved_cert.primal_witness) == cert.value
        moved_bases += perm[space.base] != space.base
    assert moved_bases > 0


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_relabelling_moves_the_fixed_normer_values_and_slopes(kind):
    for space, mu, perm, moved, nu in _relabelled_cases(kind):
        if mu.is_zero():
            continue
        report, moved_report = normers_of(mu), normers_of(nu)
        assert moved_report.value == report.value
        assert moved_report.fixed_values == {perm[p]: v for p, v in report.fixed_values.items()}
        assert moved_report.shared_tight_pairs == {
            (perm[x], perm[y]) for x, y in report.shared_tight_pairs
        }


def test_relabel_moves_points_labels_and_base():
    space = validate_space([[0, 1, 3], [1, 0, 2], [3, 2, 0]], base=0, labels="abc")
    moved = relabel(space, [2, 0, 1])
    assert moved.labels == ("b", "c", "a") and moved.base == 2
    assert moved.d(2, 0) == space.d(0, 1) == 1 and moved.d(0, 1) == space.d(1, 2) == 2
