import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelip.elements import Molecule, canonicalize, is_positive, support
from freelip.errors import (
    DegeneratePair,
    InternalVerificationFailure,
    NotOneLipschitzOnDomain,
    SpaceMismatch,
    UnknownLabel,
)
from freelip.functions import (
    LipFunction,
    PartialFunction,
    WeightFunction,
    _tight_pairs,
    distance_to_base,
    lip_constant,
    lip_function,
    mcshane_extend,
    molecule_norming_function,
    multiply_by_weight,
    partial_function,
    restrict,
    weight_element,
    weight_function,
    weighting_bound,
)
from freelip.generators import (
    random_element,
    random_lip0,
    random_rational,
    random_space,
    random_subset,
    random_weight,
    uniform_space,
)
from freelip.metric import PointedMetricSpace, line_space, space_from_points, validate_space
from freelip.norms import norming_face
from oracles import bump, fraction_molecule_norming_values, fraction_norming_face
from spaces import coprime_space, ultrametric_space


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
    with pytest.raises(ValueError, match="partial Lip_0 function must vanish"):
        partial_function(line3, {0: 1, 2: 1})


@pytest.mark.parametrize("build", [lip_function, weight_function])
def test_a_value_sequence_must_cover_the_space(line3, build):
    with pytest.raises(ValueError, match="expected 3 values, got 2"):
        build(line3, [0, 1])


# integer forms that the public constructors reject on line3, with the message
MALFORMED_FORMS = {
    "negative-scale": (lambda s: PartialFunction(s, (0, 1), -1, [0, 1]), "scale must be positive"),
    "zero-scale": (lambda s: LipFunction._of(s, 0, [0, 1, 2]), "scale must be positive"),
    "unsorted-domain": (lambda s: PartialFunction(s, (0, 2, 1), 1, [0, 2, 1]), "increasing points"),
    "repeated-point": (lambda s: PartialFunction(s, (0, 1, 1), 1, [0, 1, 1]), "increasing points"),
    "point-outside": (lambda s: PartialFunction(s, (0, 3), 1, [0, 1]), "increasing points"),
    "list-domain": (lambda s: PartialFunction(s, [0, 1], 1, [0, 1]), "a tuple of increasing"),
    "no-base": (lambda s: PartialFunction(s, (1, 2), 1, [1, 2]), "must vanish at the base"),
    "base-value": (lambda s: PartialFunction(s, (0, 1), 1, [1, 2]), "must vanish at the base"),
    "partial-length": (lambda s: PartialFunction(s, (0, 1), 1, [0, 1, 2]), "expected 2 values"),
    "total-length": (lambda s: LipFunction(s, [0, 1]), "expected 3 values, got 2"),
    "total-length-ints": (lambda s: WeightFunction._of(s, 1, [0, 1]), "expected 3 values, got 2"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FORMS))
def test_a_malformed_integer_form_is_rejected_where_it_is_built(line3, name):
    # a malformed form that built would compare unequal to its well-formed
    # twin, or fail later, in `mcshane_extend` or `lip_constant`
    build, message = MALFORMED_FORMS[name]
    with pytest.raises(ValueError, match=message):
        build(line3)


def test_functions_and_elements_over_different_spaces_never_mix(line3, line4):
    f, h = distance_to_base(line3), weight_function(line4, [1, 1, 1, 1])
    with pytest.raises(SpaceMismatch):
        multiply_by_weight(f, h)
    with pytest.raises(SpaceMismatch):
        weight_element(canonicalize(line3, {1: 1}), h)


def test_constructions_certify_without_assert(line3, monkeypatch):
    # a broken check must raise in every interpreter mode
    from freelip import functions

    # the molecule function is certified by the integer slope scan, which
    # reports a pair steeper than 1 as None
    monkeypatch.setattr(functions, "_tight_pairs", lambda *args: None)
    with pytest.raises(InternalVerificationFailure, match="failed to norm"):
        molecule_norming_function(line3, 1, 2)


def _unvalidated(dist):
    """A space built past `validate_space` from integer distances, which may break the axioms."""
    labels = tuple(str(i) for i in range(len(dist)))
    return PointedMetricSpace(labels, 0, (1, tuple(map(tuple, dist))))


def test_the_slope_check_rejects_a_molecule_function_steeper_than_one():
    # d(0,2) = 5 > d(0,1) + d(1,2): the formula gives (0, -5/2, -5), which
    # pairs with the molecule (0, 2) to 1 but has slope 5/2 on (0, 1)
    space = _unvalidated([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    values = fraction_molecule_norming_values(space, 0, 2)
    assert values[0] - values[2] == space.d(0, 2)
    assert lip_constant(lip_function(space, values)) == Fraction(5, 2)
    with pytest.raises(InternalVerificationFailure, match="failed to norm"):
        molecule_norming_function(space, 0, 2)


def test_the_pairing_check_rejects_a_molecule_function_that_misses_one():
    # d(1,1) = 1: the formula gives (0, 1/2), 1-Lipschitz but pairing with
    # the molecule (1, 0) to 1/2
    space = _unvalidated([[0, 1], [1, 1]])
    values = fraction_molecule_norming_values(space, 1, 0)
    assert values == (0, Fraction(1, 2))
    assert lip_constant(lip_function(space, values)) <= 1
    with pytest.raises(InternalVerificationFailure, match="failed to norm"):
        molecule_norming_function(space, 1, 0)


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


SCAN_CORPORA = {
    "random": lambda rng: [random_space(rng, n) for n in (3, 5, 7)],
    "line": lambda rng: [line_space(n) for n in (3, 5, 7)],
    "uniform": lambda rng: [uniform_space(n) for n in (3, 5, 7)],
    "ultrametric": lambda rng: [ultrametric_space(rng, n) for n in (3, 5, 7)],
}


@pytest.mark.parametrize("kind", sorted(SCAN_CORPORA))
def test_a_molecule_function_keeps_the_scan_that_certified_it(kind):
    # the kept pairs are a fresh scan's, its face is the Fraction reference's,
    # and a function with no scan kept equals and hashes as one with it
    for space in SCAN_CORPORA[kind](random.Random(34)):
        for p, q in space.ordered_pairs():
            f = molecule_norming_function(space, p, q)
            assert "_tight" in vars(f)
            assert f._tight == _tight_pairs(space, f.scale, f.ints)
            mol = Molecule(p, q)
            assert norming_face(f, mol) == fraction_norming_face(f, mol)
            twin = lip_function(space, f.values)
            assert "_tight" not in vars(twin)
            assert twin == f and hash(twin) == hash(f)
            assert twin._tight == f._tight


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


def _assert_integer_form(pf, reference):
    # scale > 0, no common factor, a sorted domain holding the base once,
    # and views equal to the Fraction values of `reference`, base included
    space = pf.space
    expected = dict(sorted({**reference, space.base: Fraction(0)}.items()))
    assert pf.scale > 0 and gcd(pf.scale, *pf.ints) == 1
    assert pf.domain == tuple(expected) and pf.domain.count(space.base) == 1
    assert len(pf.ints) == len(pf.domain)
    assert pf.items == tuple(expected.items()) and pf.values == expected
    assert all(type(v) is Fraction for _, v in pf.items)


def test_partial_functions_hold_the_integer_form():
    rng = random.Random(88)
    spaces = [random_space(rng, rng.randint(1, 8)) for _ in range(60)]
    spaces += [coprime_space(rng, rng.randint(1, 8)) for _ in range(20)]
    for space in spaces:
        f = random_lip0(rng, space)
        # values over coprime denominators, and some whose common factor cancels
        g = lip_function(
            space,
            {
                p: Fraction(rng.randint(-9, 9), rng.choice((7, 11, 13)))
                for p in space.nonbase_points()
            },
        )
        h = lip_function(
            space, {p: Fraction(6 * rng.randint(-3, 3), 4) for p in space.nonbase_points()}
        )
        for total in (f, g, h):
            S = random_subset(rng, space)
            reference = {p: total.values[p] for p in S}
            _assert_integer_form(partial_function(space, reference), reference)
            # keyed by label too
            by_label = {space.labels[p]: v for p, v in reference.items()}
            _assert_integer_form(partial_function(space, by_label), reference)
            for T in (S | {space.base}, S - {space.base}):
                pf = restrict(total, T)
                _assert_integer_form(pf, {p: total.values[p] for p in T})
                built = partial_function(space, {p: total.values[p] for p in T})
                assert pf == built and hash(pf) == hash(built) and repr(pf) == repr(built)


def test_a_restriction_keeps_the_scale_it_needs(line3):
    # f = (0, 1/2, 3/2) has scale 2; on {0, 2} alone it still needs 2, and
    # g = (0, 1/2, 2) on {0, 2} needs only 1
    f = lip_function(line3, [0, Fraction(1, 2), Fraction(3, 2)])
    g = lip_function(line3, [0, Fraction(1, 2), 2])
    assert (restrict(f, {2}).scale, restrict(f, {2}).ints) == (2, (0, 3))
    assert (restrict(g, {2}).scale, restrict(g, {2}).ints) == (1, (0, 2))
    assert (restrict(g, ()).domain, restrict(g, ()).ints) == ((0,), (0,))
    with pytest.raises(UnknownLabel):
        restrict(g, {3})


def test_mcshane_rejects_expanding_data(line3):
    with pytest.raises(NotOneLipschitzOnDomain):
        mcshane_extend(partial_function(line3, {0: 0, 1: 5}))


def test_mcshane_rejects_exactly_the_partial_functions_steeper_than_one():
    # the extension decides by agreement on the domain; the reference is
    # the Lipschitz constant of the domain's values, at the draw's own
    # slope and rescaled to slope exactly 1 and to 1% either side of it
    rng = random.Random(16)
    raised = []
    for _ in range(1000):
        space = random_space(rng, rng.randint(1, 7))
        domain = random_subset(rng, space) - {space.base}
        signs = [rng.choice((1, -1)) for _ in domain]
        values = {p: s * random_rational(rng) for p, s in zip(sorted(domain), signs)}
        L = lip_constant(partial_function(space, values))
        factors = [Fraction(1)]
        if L:
            factors += [1 / L, Fraction(99, 100) / L, Fraction(101, 100) / L]
        for c in factors:
            pf = partial_function(space, {p: c * v for p, v in values.items()})
            steep = lip_constant(pf) > 1
            try:
                mcshane_extend(pf)
            except NotOneLipschitzOnDomain:
                raised.append(True)
            else:
                raised.append(False)
            assert raised[-1] == steep
    # both outcomes: 2,896 cases, 1,081 raising and 650 at slope exactly 1
    assert len(raised) > 2500 and 500 < sum(raised) < len(raised) - 500


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
    with pytest.raises(ValueError):
        bump(line3, set(), 1)
    with pytest.raises(ValueError):
        bump(line3, {1}, 0)


def test_multiply_by_weight(line3):
    f = distance_to_base(line3)
    ones = weight_function(line3, [1, 1, 1])
    assert multiply_by_weight(f, ones).values == f.values
    zero_w = weight_function(line3, [0, 0, 0])
    assert multiply_by_weight(f, zero_w).values == (0, 0, 0)
    spike = weight_function(line3, [0, 1, 0])
    assert multiply_by_weight(f, spike).values == (0, 1, 0)


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


def test_a_sup_norm_without_absolute_values_fails_the_weighting_bound(monkeypatch, line3):
    from freelip import functions

    # for h = -1 the bound reads max(h) + 0 = -1, below the product's slope
    monkeypatch.setattr(functions, "sup_norm", lambda h: max(h.values))
    h = weight_function(line3, [-1, -1, -1])
    with pytest.raises(InternalVerificationFailure, match="exceeds the weighting bound"):
        multiply_by_weight(distance_to_base(line3), h)


def test_weight_element_examples(line3):
    mu = canonicalize(line3, {1: 1, 2: 1})
    h = weight_function(line3, [0, 1, 0])
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


# f = partial_function(line_space(4), {2: 1, 3: 2}) holds f(0), f(2), f(3) at
# positions 0, 1, 2, so reading its integers by point would take f(2) = 2,
# or run off the end
PARTIAL_READS = {
    "restrict": lambda s, f: restrict(f, [2]),
    "pair": lambda s, f: canonicalize(s, {2: 1}).pair(f),
    "weight_element": lambda s, f: weight_element(canonicalize(s, {3: 1}), f),
    "multiply_by_weight-f": lambda s, f: multiply_by_weight(f, weight_function(s, [1] * 4)),
    "multiply_by_weight-h": lambda s, f: multiply_by_weight(lip_function(s, [0, 1, 1, 1]), f),
    "norming_face": lambda s, f: norming_face(f),
}


@pytest.mark.parametrize("name", sorted(PARTIAL_READS))
def test_a_function_read_by_point_must_have_a_value_at_every_point(name):
    space = line_space(4)
    pf = partial_function(space, {2: 1, 3: 2})
    with pytest.raises(TypeError, match="expected a function on all 4 points, got 3 values"):
        PARTIAL_READS[name](space, pf)
