import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelip.elements import Molecule, canonicalize, is_positive, support
from freelip.errors import (
    DegeneratePair,
    EmptySet,
    InternalVerificationFailure,
    NonpositiveRadius,
    NotOneLipschitzOnDomain,
    SupportNotContained,
)
from freelip.functions import (
    bump,
    distance_to_base,
    lip_constant,
    lip_function,
    mcshane_extend,
    molecule_norming_function,
    multiply_by_weight,
    partial_function,
    radial_cutoff,
    restrict,
    truncate_support,
    weight_element,
    weight_function,
    weighting_bound,
)
from freelip.generators import (
    random_element,
    random_lip0,
    random_space,
    random_weight,
)
from freelip.metric import space_from_points, validate_space


def test_lip_constant_examples(line3):
    assert lip_constant(distance_to_base(line3)) == 1
    assert lip_constant(lip_function(line3, [0, 0, 0])) == 0
    assert lip_constant(lip_function(line3, [0, 1, 0])) == 1
    assert lip_constant(weight_function(line3, [2, 2, 2])) == 0
    # a partial function is measured over its domain only
    assert lip_constant(partial_function(line3, {0: 0, 2: 1})) == Fraction(1, 2)


def test_lip_function_requires_zero_at_base(line3):
    with pytest.raises(ValueError):
        lip_function(line3, [1, 0, 0])


def test_constructions_certify_without_assert(line3, monkeypatch):
    # a broken Lipschitz constant must raise in every interpreter mode
    from freelip import functions

    monkeypatch.setattr(functions, "lip_constant", lambda f: Fraction(5))
    with pytest.raises(InternalVerificationFailure):
        radial_cutoff(line3, 1)
    with pytest.raises(InternalVerificationFailure):
        bump(line3, {1}, 1)
    with pytest.raises(InternalVerificationFailure):
        molecule_norming_function(line3, 1, 2)


def test_distance_to_base_values(line3, tri):
    assert distance_to_base(line3).values == (0, 1, 2)
    assert distance_to_base(tri).values == (0, 1, 1)
    one = validate_space([[0]])
    assert distance_to_base(one).values == (Fraction(0),)


def test_distance_to_base_dominates_the_ball(line3):
    rng = random.Random(3)
    rho = distance_to_base(line3)
    for _ in range(50):
        f = random_lip0(rng, line3, unit_ball=True)
        assert all(a <= b for a, b in zip(f.values, rho.values))


def test_radial_cutoff_branches(line3):
    assert radial_cutoff(line3, 1).values == (0, 1, 0)
    assert radial_cutoff(line3, 2).values == (0, 1, 2)
    # all points within the radius: the cutoff is the distance to the base
    assert radial_cutoff(line3, 5).values == distance_to_base(line3).values
    with pytest.raises(NonpositiveRadius):
        radial_cutoff(line3, 0)


def test_truncate_support(line3):
    rho = distance_to_base(line3)
    cut = truncate_support(rho, 1)
    assert cut.values == (0, 1, 0)
    assert truncate_support(lip_function(line3, [0, 0, 0]), 1).values == (0, 0, 0)
    assert truncate_support(rho, 5).values == rho.values


def test_truncate_support_properties():
    rng = random.Random(9)
    for _ in range(60):
        space = random_space(rng, rng.randint(2, 7))
        f = random_lip0(rng, space)
        r = Fraction(rng.randint(1, 8), rng.randint(1, 3))
        g = truncate_support(f, r)
        assert lip_constant(g) <= lip_constant(f)
        for x in space.ball(space.base, r):
            assert g.values[x] == f.values[x]
        for x in space.points():
            if f.values[x] == 0:
                assert g.values[x] == 0
            if space.d(x, space.base) > 2 * r:
                assert g.values[x] == 0


def test_molecule_norming_function_line3(line3):
    f = molecule_norming_function(line3, 2, 0)
    assert f.values == (0, 1, 2)


def test_molecule_norming_function_tri(tri):
    f = molecule_norming_function(tri, 1, 2)
    assert f.values == (0, Fraction(3, 4), Fraction(-3, 4))


def test_molecule_norming_function_normalizes_its_molecule():
    rng = random.Random(21)
    for _ in range(25):
        space = random_space(rng, rng.randint(2, 7))
        for p, q in space.ordered_pairs():
            f = molecule_norming_function(space, p, q)
            assert f.values[p] - f.values[q] == space.d(p, q)
            assert lip_constant(f) == 1
            assert Molecule(p, q).as_element(space).pair(f) == 1
    with pytest.raises(DegeneratePair):
        molecule_norming_function(space, 0, 0)


def test_molecule_function_segment_properties():
    # pairs almost normed by the function must lie in the relaxed segment
    rng = random.Random(22)
    for _ in range(15):
        space = random_space(rng, rng.randint(2, 8))
        for p, q in space.ordered_pairs():
            f = molecule_norming_function(space, p, q)
            for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 4)):
                seg = space.segment(p, q, eps)
                for u, v in space.ordered_pairs():
                    if Molecule(u, v).as_element(space).pair(f) >= 1 - eps:
                        assert u in seg.members and v in seg.members


def test_mcshane_examples(line3):
    pf = partial_function(line3, {0: 0, 2: 2})
    assert mcshane_extend(pf).values == (0, 1, 2)
    # extending a total function changes nothing
    f = lip_function(line3, [0, 1, 1])
    assert mcshane_extend(restrict(f, line3.points())).values == f.values
    # the empty-domain extension is the distance to the base
    base_only = partial_function(line3, {0: 0})
    assert mcshane_extend(base_only).values == distance_to_base(line3).values


def test_mcshane_rejects_expanding_data(line3):
    with pytest.raises(NotOneLipschitzOnDomain):
        mcshane_extend(partial_function(line3, {0: 0, 1: 5}))


@given(
    coords=st.lists(st.integers(0, 24), min_size=2, max_size=6, unique=True),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_mcshane_is_the_largest_extension(coords, data):
    space = space_from_points(sorted(coords))
    dom = data.draw(
        st.sets(st.sampled_from(range(space.n)), min_size=1, max_size=space.n)
    )
    dom = sorted(set(dom) | {space.base})
    raw = {
        p: 0 if p == space.base else data.draw(st.integers(-20, 20)) for p in dom
    }
    pf = partial_function(space, raw)
    L = lip_constant(pf)
    if L > 1:
        pf = partial_function(space, {p: Fraction(v, 1) / L for p, v in raw.items()})
    top = mcshane_extend(pf)
    vals = pf.values
    assert lip_constant(top) <= 1
    assert all(top.values[p] == vals[p] for p in pf.domain)
    # smallest 1-Lipschitz extension stays below
    floor = [max(vals[q] - space.d(q, x) for q in pf.domain) for x in space.points()]
    assert all(a <= b for a, b in zip(floor, top.values))
    c = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
    mixed = lip_function(
        space, [c * t + (1 - c) * fl for t, fl in zip(top.values, floor)]
    )
    assert lip_constant(mixed) <= 1
    assert all(mixed.values[p] == vals[p] for p in pf.domain)
    assert all(a <= b for a, b in zip(mixed.values, top.values))


def test_bump_examples(line3):
    assert bump(line3, {1}, 1).values == (0, 1, 0)
    assert bump(line3, line3.points(), 1).values == (1, 1, 1)
    assert bump(line3, {0}, 2).values == (1, Fraction(1, 2), 0)
    with pytest.raises(EmptySet):
        bump(line3, set(), 1)
    with pytest.raises(NonpositiveRadius):
        bump(line3, {1}, 0)


def test_multiply_by_weight(line3):
    f = distance_to_base(line3)
    ones = weight_function(line3, [1, 1, 1])
    assert multiply_by_weight(f, ones).values == f.values
    zero_w = weight_function(line3, [0, 0, 0])
    assert multiply_by_weight(f, zero_w).values == (0, 0, 0)
    spike = weight_function(line3, [0, 1, 0])
    assert multiply_by_weight(f, spike).values == (0, 1, 0)


def test_multiply_by_weight_window(line3):
    spike = weight_function(line3, [0, 1, 0])
    f = distance_to_base(line3)
    g = multiply_by_weight(f, spike, window={0, 1})
    assert g.values == (0, 1, 0)
    with pytest.raises(SupportNotContained):
        multiply_by_weight(f, spike, window={0, 2})


def test_multiply_by_weight_bound():
    rng = random.Random(14)
    for _ in range(80):
        space = random_space(rng, rng.randint(2, 7))
        f = random_lip0(rng, space)
        h = random_weight(rng, space)
        g = multiply_by_weight(f, h)
        assert lip_constant(g) <= weighting_bound(h) * lip_constant(f)
        for x in space.points():
            if f.values[x] == 0:
                assert g.values[x] == 0


def test_weight_element_examples(line3):
    mu = canonicalize(line3, {1: 1, 2: 1})
    h = bump(line3, {1}, 1)
    assert weight_element(mu, h).coeffs == {1: Fraction(1)}
    ones = weight_function(line3, [1, 1, 1])
    assert weight_element(mu, ones) == mu
    # weight vanishing on the support kills the element
    h2 = weight_function(line3, [0, 0, 1])
    assert weight_element(canonicalize(line3, {1: 1}), h2).is_zero()


def test_weighting_duality():
    rng = random.Random(15)
    for _ in range(120):
        space = random_space(rng, rng.randint(2, 7))
        mu = random_element(rng, space)
        h = random_weight(rng, space)
        f = random_lip0(rng, space)
        assert weight_element(mu, h).pair(f) == mu.pair(multiply_by_weight(f, h))
        assert support(weight_element(mu, h)) <= (support(mu) & h.support)


def test_weighting_preserves_positivity():
    rng = random.Random(16)
    for _ in range(60):
        space = random_space(rng, rng.randint(2, 6))
        mu = canonicalize(
            space, {p: Fraction(rng.randint(1, 5)) for p in space.nonbase_points()}
        )
        h = random_weight(rng, space, nonneg=True)
        assert is_positive(weight_element(mu, h))


def _slope_max(space, values, points):
    """Reference Lipschitz constant: one Fraction division per pair."""
    return max(
        (
            abs(values[x] - values[y]) / space.d(x, y)
            for i, x in enumerate(points)
            for y in points[i + 1 :]
        ),
        default=Fraction(0),
    )


def test_lip_constant_matches_the_division_formula():
    rng = random.Random(31)
    coprime = validate_space(
        [
            [0, Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)],
            [Fraction(1, 2), 0, Fraction(5, 7), Fraction(4, 11)],
            [Fraction(2, 3), Fraction(5, 7), 0, Fraction(6, 13)],
            [Fraction(3, 5), Fraction(4, 11), Fraction(6, 13), 0],
        ]
    )
    spaces = [random_space(rng, rng.randint(1, 8)) for _ in range(60)] + [coprime]
    for space in spaces:
        points = tuple(range(space.n))
        f = random_lip0(rng, space)
        h = random_weight(rng, space, nonneg=False)
        # values over coprime denominators
        g = lip_function(
            space,
            {
                p: Fraction(rng.randint(-9, 9), rng.choice((7, 11, 13)))
                for p in space.nonbase_points()
            },
        )
        for total in (f, g, h):
            assert lip_constant(total) == _slope_max(space, total.values, points)
        domain = [p for p in points if p == space.base or rng.random() < 0.5]
        pf = partial_function(space, {p: g.values[p] for p in domain})
        assert lip_constant(pf) == _slope_max(space, pf.values, pf.domain)


def test_lip_constant_of_one_point_domains():
    single = validate_space([[0]])
    assert lip_constant(lip_function(single, [0])) == 0
    assert lip_constant(weight_function(single, [Fraction(5, 3)])) == 0
    line = space_from_points([0, Fraction(1, 3), Fraction(5, 7)])
    assert lip_constant(partial_function(line, {})) == 0
    assert lip_constant(partial_function(line, {2: Fraction(2, 7)})) == Fraction(2, 5)
