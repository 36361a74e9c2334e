"""The battery's random draws build the integer form their Fraction construction did.

Each draw of `generators` and `checks._random_partial` makes the same
calls of its `random.Random` in the same order as the Fraction
construction kept in `tests/oracles.py`, and builds the same integer form:
equal records, and equal generator states after the draw.
"""

import random

import pytest

from freelip.checks import _random_partial
from freelip.generators import (
    random_element,
    random_line_subset,
    random_lip0,
    random_positive_element,
    random_rational,
    random_space,
    random_subset,
    random_weight,
    uniform_space,
)
from freelip.functions import lip_constant
from oracles import (
    fraction_random_element,
    fraction_random_lip0,
    fraction_random_partial,
    fraction_random_positive_element,
    fraction_random_weight,
)

SPACES = {
    "random": lambda rng, n: random_space(rng, n),
    "line": lambda rng, n: random_line_subset(rng, n),
    "uniform": lambda rng, n: uniform_space(n, random_rational(rng)),
}
# (name, new draw, its Fraction construction, keyword arguments)
DRAWS = [
    ("positive", random_positive_element, fraction_random_positive_element, {}),
    ("positive", random_positive_element, fraction_random_positive_element, {"min_support": 2}),
    ("positive", random_positive_element, fraction_random_positive_element, {"max_support": 2}),
    (
        "positive",
        random_positive_element,
        fraction_random_positive_element,
        {"max_support": 3, "min_support": 2},
    ),
    ("signed", random_element, fraction_random_element, {}),
    ("signed", random_element, fraction_random_element, {"max_support": 2}),
    ("lip0", random_lip0, fraction_random_lip0, {}),
    ("lip0", random_lip0, fraction_random_lip0, {"unit_ball": True}),
    ("weight", random_weight, fraction_random_weight, {}),
    ("weight", random_weight, fraction_random_weight, {"nonneg": True}),
]
SEEDS = range(6)


def _same_draw(new, old, rng_seed, *args, **kwargs):
    """Both draws from one seeded state: (result, equal integer forms and states, drew at all).

    Records compare their class and their fields, which hold the integer form.
    """
    rng, ref = random.Random(rng_seed), random.Random(rng_seed)
    start = rng.getstate()
    got, want = new(rng, *args, **kwargs), old(ref, *args, **kwargs)
    return got, got == want and rng.getstate() == ref.getstate(), rng.getstate() != start


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_every_draw_builds_the_integer_form_of_its_fraction_construction(kind):
    rescaled = 0
    for n in range(1, 10):
        for seed in SEEDS:
            space = SPACES[kind](random.Random(1000 * n + seed), n)
            for name, new, old, kwargs in DRAWS:
                f, same, drew = _same_draw(new, old, 7 * seed + n, space, **kwargs)
                assert same, (kind, n, seed, name, kwargs)
                if n == 1 and name != "weight":
                    # a one-point space has no non-base point to draw for
                    assert not drew and (f.is_zero() if name != "lip0" else f.ints == (0,))
                if kwargs.get("unit_ball"):
                    rescaled += f.values != old(random.Random(7 * seed + n), space).values
    # the unit-ball rescale runs, and gives the draws of the Fraction rescale
    assert rescaled > 20


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_a_random_partial_function_is_the_one_its_fraction_construction_built(kind):
    at_one = 0
    for n in range(1, 10):
        for seed in SEEDS:
            rng = random.Random(1000 * n + seed)
            space = SPACES[kind](rng, n)
            subset = random_subset(rng, space) | {space.base}
            # the two domain orders the McShane check draws in
            for domain in (sorted(subset), set(subset)):
                pf, same, drew = _same_draw(
                    _random_partial, fraction_random_partial, seed, space, domain
                )
                assert same, (kind, n, seed, domain)
                assert drew == (len(subset) > 1)
                at_one += lip_constant(pf) == 1
    # most draws are steeper than 1, so the rescale to constant 1 runs
    assert at_one > 30
