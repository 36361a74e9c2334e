import random
from fractions import Fraction
from math import gcd

import pytest

from freelip.elements import (
    Molecule,
    canonicalize,
    is_positive,
    order_leq,
    subspace_membership,
    support,
    zero,
)
from freelip.errors import DegeneratePair, EmptyFamily, SpaceMismatch, UnknownLabel
from freelip.functions import (
    LipFunction,
    WeightFunction,
    intersection_property_check,
    lip_function,
    weight_element,
)
from freelip.generators import (
    random_element,
    random_rational,
    random_space,
    random_subset,
    random_weight,
)
from freelip.metric import PointedMetricSpace, validate_space
from freelip import lp
from freelip.norms import free_norm_dual
from freelip.rationals import as_fraction
from oracles import fraction_canonicalize, fraction_items
from spaces import coprime_space


def test_canonicalize_drops_zero_coefficients(line3):
    mu = canonicalize(line3, {1: 3, 2: 0})
    assert mu.coeffs == {1: Fraction(3)}


def test_canonicalize_drops_base_coefficient(line3):
    assert canonicalize(line3, {0: 5}).is_zero()


def test_canonicalize_is_stable_on_canonical_input(line3):
    mu = canonicalize(line3, {1: Fraction(1, 2), 2: Fraction(-1, 2)})
    assert mu.coeffs == {1: Fraction(1, 2), 2: Fraction(-1, 2)}


def test_canonicalize_accepts_labels(line3):
    assert canonicalize(line3, {"2": "1/2"}).coeffs == {2: Fraction(1, 2)}
    with pytest.raises(UnknownLabel):
        canonicalize(line3, {"x": 1})
    with pytest.raises(UnknownLabel):
        canonicalize(line3, {7: 1})


CANONICALIZE_CASES = {
    # an index and a label naming one point: the values add
    "index-and-label": ({1: Fraction(1, 2), "1": "1/3", 2: 1}, {1: Fraction(5, 6), 2: Fraction(1)}),
    # the same point cancelling to zero is dropped
    "cancelling": ({1: "1/2", "1": Fraction(-1, 2), 3: -2}, {3: Fraction(-2)}),
    # the base named by its label is dropped too
    "base-by-label": ({"0": 5, 2: "-3/4"}, {2: Fraction(-3, 4)}),
    "mixed-values": (
        {1: 2, 2: "3/4", 3: Fraction(-5, 6)},
        {1: 2, 2: Fraction(3, 4), 3: Fraction(-5, 6)},
    ),
}


@pytest.mark.parametrize("name", sorted(CANONICALIZE_CASES))
def test_canonicalize_sums_as_the_fraction_sum_did(line4, name):
    raw, coeffs = CANONICALIZE_CASES[name]
    mu = canonicalize(line4, raw)
    assert mu == fraction_canonicalize(line4, raw)
    assert mu.coeffs == coeffs


def test_canonicalize_agrees_with_the_fraction_sum_on_a_seeded_corpus():
    # keys are indices or labels, repeating a point or naming the base;
    # values are ints, strings or Fractions, zeros and cancelling pairs among them
    rng = random.Random(37)
    for _ in range(200):
        space = random_space(rng, rng.randint(1, 9))
        raw = {}
        for _ in range(rng.randint(0, 12)):
            p = rng.randrange(space.n)
            key = space.labels[p] if rng.random() < 0.5 else p
            a = rng.choice((-1, 0, 1)) * random_rational(rng, max_num=6, max_den=4)
            raw[key] = rng.choice((a, str(a), a.numerator if a.denominator == 1 else a))
        if raw and rng.random() < 0.3:
            key, value = next(iter(raw.items()))
            other = space.labels[key] if isinstance(key, int) else space.index(key)
            raw[other] = -as_fraction(value)
        assert canonicalize(space, raw) == fraction_canonicalize(space, raw)


def test_arithmetic(line3):
    mu = canonicalize(line3, {1: 1, 2: -2})
    nu = canonicalize(line3, {1: -1, 2: 1})
    assert (mu + nu).coeffs == {2: Fraction(-1)}
    assert (mu - mu).is_zero()
    assert (mu * Fraction(1, 2)).coeffs == {1: Fraction(1, 2), 2: Fraction(-1)}
    assert (-mu).coeffs == {1: Fraction(-1), 2: Fraction(2)}
    assert (mu / 2) * 2 == mu
    # an operand that is no element is refused, not coerced
    with pytest.raises(TypeError):
        mu + 3


def test_records_are_equal_only_within_their_class(line3):
    values = (Fraction(0), Fraction(1), Fraction(2))
    f = LipFunction(line3, values)
    assert f == LipFunction(space=line3, values=values)
    assert hash(f) == hash(LipFunction(values=values, space=line3))
    assert f != WeightFunction(line3, values) and WeightFunction(line3, values) != f
    assert repr(Molecule(1, 2)) == "Molecule(p=1, q=2)"


def test_records_refuse_assignment_and_a_wrong_field_list(line3):
    mol = Molecule(1, 2)
    with pytest.raises(AttributeError):
        mol.p = 0
    with pytest.raises(AttributeError):
        del mol.q
    with pytest.raises(AttributeError):
        mol.r = 0
    assert (mol.p, mol.q) == (1, 2)
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"p": 2}), ((1,), {"r": 2})]:
        with pytest.raises(TypeError):
            Molecule(*args, **kwargs)
    with pytest.raises(ValueError, match="vanish at the base point"):
        LipFunction(line3, (Fraction(1), Fraction(1), Fraction(2)))


def test_a_cached_fraction_view_leaves_space_equality_and_hash_alone(line3):
    fresh = PointedMetricSpace(line3.labels, line3.base, line3.scaled)
    before = hash(fresh)
    assert line3.dist[0][2] == 2 and fresh.d(0, 2) == 2
    assert "dist" not in fresh.__dict__ and "dist" in line3.__dict__
    assert fresh == line3 and before == hash(line3)
    assert fresh.dist == line3.dist
    assert fresh == line3 and hash(fresh) == before


def test_elements_over_different_spaces_never_mix(line3, line4):
    mu, nu = canonicalize(line3, {1: 1}), canonicalize(line4, {1: 1})
    with pytest.raises(SpaceMismatch):
        mu + nu
    with pytest.raises(SpaceMismatch):
        mu.pair(lip_function(line4, [0, 1, 2, 3]))
    with pytest.raises(SpaceMismatch):
        order_leq(mu, nu)


def test_structurally_equal_spaces_interoperate(line3):
    from freelip.metric import line_space

    twin = line_space(3)
    assert twin == line3 and twin is not line3
    total = canonicalize(line3, {1: 1}) + canonicalize(twin, {2: 1})
    assert total.coeffs == {1: Fraction(1), 2: Fraction(1)}


def test_support_basics(line3):
    assert support(zero(line3)) == frozenset()
    assert support(canonicalize(line3, {1: 3})) == {1}
    assert support(Molecule(1, 2).as_element(line3)) == {1, 2}


def test_support_molecule_with_base_endpoint(line3):
    # the base point never belongs to a support
    assert support(Molecule(1, 0).as_element(line3)) == {1}


def test_molecule_element_equals_its_canonical_form(tri):
    # the direct construction of the two items matches canonicalize, base
    # endpoints and a base point other than index 0 included
    rng = random.Random(13)
    spaces = [tri] + [random_space(rng, rng.randint(2, 7)) for _ in range(20)]
    spaces.append(validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]], base=1))
    for space in spaces:
        for p, q in space.ordered_pairs():
            scale = 1 / space.d(p, q)
            assert Molecule(p, q).as_element(space) == canonicalize(space, {p: scale, q: -scale})


def test_molecule_element_rejects_what_canonicalize_rejects(line3):
    for p, q in ((-1, 1), (1, -1), (3, 1), ("zz", 1), (1, "zz")):
        with pytest.raises(UnknownLabel):
            Molecule(p, q).as_element(line3)
    # equal endpoints are rejected as `segment` rejects them, before any division
    for p, q in ((1, 1), (1, "1"), ("2", 2)):
        with pytest.raises(DegeneratePair):
            Molecule(p, q).as_element(line3)


def test_pairing_against_bumps_is_the_coefficient(line3):
    mu = canonicalize(line3, {1: Fraction(2, 3), 2: -5})
    # the bump at p is the function 1 at p and 0 elsewhere
    assert mu.pair(lip_function(line3, {1: 1})) == Fraction(2, 3)
    assert mu.pair(lip_function(line3, {2: 1})) == -5


def test_is_positive(line3):
    assert is_positive(canonicalize(line3, {1: 1, 2: 2}))
    assert not is_positive(canonicalize(line3, {1: 1, 2: -1}))
    assert is_positive(zero(line3))


def test_order(line3):
    mu = canonicalize(line3, {1: 1})
    assert order_leq(mu, mu * 2)
    assert order_leq(mu, mu)
    assert not order_leq(mu, canonicalize(line3, {2: 1}))


def test_positive_order_propagates_to_support(line3):
    mu = canonicalize(line3, {1: 1})
    lam = canonicalize(line3, {1: 2, 2: 1})
    assert order_leq(mu, lam)
    assert support(mu) <= support(lam)


def test_subspace_membership(line3):
    assert subspace_membership(canonicalize(line3, {1: 1}), {1, 2})
    assert not subspace_membership(Molecule(1, 2).as_element(line3), {1})
    assert subspace_membership(zero(line3), set())
    # the base point rides along for free: delta(1) lives in the span of {1}
    assert subspace_membership(canonicalize(line3, {1: 1}), {1})


def test_subspace_membership_agrees_with_function_separation(line3):
    # mu lies in the subspace iff it cannot distinguish functions agreeing on K
    mu = Molecule(1, 2).as_element(line3)
    K = {1}
    f = lip_function(line3, [0, 1, 0])
    g = lip_function(line3, [0, 1, 1])  # agrees with f on K and base
    assert f.values[1] == g.values[1]
    assert mu.pair(f) != mu.pair(g)
    assert not subspace_membership(mu, K)


def test_intersection_property_line4(line4):
    assert intersection_property_check(line4, [{0, 1, 2}, {0, 2, 3}])
    assert intersection_property_check(line4, [{1, 2, 3}])
    with pytest.raises(EmptyFamily):
        intersection_property_check(line4, [])


def test_intersection_property_random():
    rng = random.Random(5)
    for _ in range(100):
        space = random_space(rng, rng.randint(1, 8))
        family = [random_subset(rng, space) for _ in range(rng.randint(1, 3))]
        assert intersection_property_check(space, family)


def test_positivity_cross_check_via_lp():
    # positive iff the minimum of <mu, f> over nonnegative 1-Lipschitz f is 0
    rng = random.Random(11)
    for _ in range(40):
        space = random_space(rng, rng.randint(2, 8))
        mu = random_element(rng, space)
        nvars = space.n - 1
        var_of = {p: i for i, p in enumerate(space.nonbase_points())}
        rows = []
        for x, y in space.ordered_pairs():
            coeffs = [Fraction(0)] * nvars
            if x != space.base:
                coeffs[var_of[x]] += 1
            if y != space.base:
                coeffs[var_of[y]] -= 1
            rows.append((coeffs, lp.LEQ, space.d(x, y)))
        objective = [Fraction(0)] * nvars
        for p, a in mu.items:
            objective[var_of[p]] = a
        # f >= 0 is the variables' natural sign constraint here
        sol = lp.minimize(objective, rows).require_optimal()
        assert is_positive(mu) == (sol.value == 0)


def test_zero_gap_against_mass_transport(line4):
    mu = canonicalize(line4, {1: 1, 2: -1, 3: 1})
    assert free_norm_dual(mu).value == 2


def test_package_exports_are_explicit_and_exclude_submodules():
    import types

    import freelip

    assert len(set(freelip.__all__)) == len(freelip.__all__)
    for name in freelip.__all__:
        assert not isinstance(getattr(freelip, name), types.ModuleType), name
    assert "lp" not in freelip.__all__


def _integer_form(mu):
    """Whether mu holds its one integer form: reduced, sorted, no zero, no base."""
    points = [p for p, _ in mu.nums]
    return (
        mu.den > 0
        and gcd(mu.den, *(n for _, n in mu.nums)) == 1
        and points == sorted(set(points))
        and all(n != 0 for _, n in mu.nums)
        and mu.space.base not in points
    )


def _coprime_or_large(kind, rng):
    """A space and an element whose denominators are distinct small primes."""
    if kind == "coprime":
        space = coprime_space(rng, rng.randint(2, 9))
    else:
        space = random_space(rng, rng.randint(30, 40))
    points = rng.sample(list(space.nonbase_points()), rng.randint(1, min(space.n - 1, 10)))
    raw = {
        p: Fraction(rng.choice((1, -1)) * rng.randint(1, 30), rng.choice((2, 3, 5, 7, 11)))
        for p in points
    }
    # a label key and a base key too; canonicalize resolves and drops them
    raw[space.labels[points[0]]] = Fraction(1, 6)
    raw[space.base] = 5
    return space, raw


@pytest.mark.parametrize("kind", ["coprime", "large"])
def test_every_operation_keeps_the_integer_form_and_its_views_match_fractions(kind):
    rng = random.Random(71 if kind == "coprime" else 72)
    for _ in range(25 if kind == "coprime" else 5):
        space, raw = _coprime_or_large(kind, rng)
        terms = [(space.resolve(key), a) for key, a in raw.items()]
        mu = canonicalize(space, raw)
        nu = random_element(rng, space, max_support=10)
        c = rng.choice((1, -1)) * random_rational(rng, max_num=12, max_den=12)
        h = random_weight(rng, space)
        p, q = rng.sample(range(space.n), 2)
        d = space.d(p, q)
        cases = [
            (mu, terms),
            (mu + nu, [*mu.items, *nu.items]),
            (mu - nu, [*mu.items, *((x, -a) for x, a in nu.items)]),
            (mu - mu, []),
            (-mu, [(x, -a) for x, a in mu.items]),
            (mu * c, [(x, a * c) for x, a in mu.items]),
            (c * mu, [(x, a * c) for x, a in mu.items]),
            (mu * 0, []),
            (mu / c, [(x, a / c) for x, a in mu.items]),
            (Molecule(p, q).as_element(space), [(p, 1 / d), (q, -1 / d)]),
            (weight_element(mu, h), [(x, a * h.values[x]) for x, a in mu.items]),
            (zero(space), []),
        ]
        for got, expected in cases:
            assert _integer_form(got)
            assert got.items == fraction_items(space, expected)
            assert got.coeffs == dict(got.items)
            if not expected:
                assert (got.den, got.nums) == (1, ())
    with pytest.raises(ZeroDivisionError):
        mu / 0


def test_the_integer_form_is_reduced_by_one_gcd(line4):
    mu = canonicalize(line4, {1: Fraction(1, 6), 2: Fraction(1, 3), 3: Fraction(-1, 2)})
    assert (mu.den, mu.nums) == (6, ((1, 1), (2, 2), (3, -3)))
    # 1/6 + 1/3 - 1/2 at the three points leaves halves, over 2 and not 6
    nu = canonicalize(line4, {1: Fraction(1, 3), 2: Fraction(1, 6)})
    assert ((mu + nu).den, (mu + nu).nums) == (2, ((1, 1), (2, 1), (3, -1)))
    assert ((mu * 6).den, (mu * 6).nums) == (1, ((1, 1), (2, 2), (3, -3)))
    halved = mu / Fraction(-1, 2)
    assert (halved.den, halved.nums) == (3, ((1, -1), (2, -2), (3, 3)))
    mol = Molecule(3, 1).as_element(line4)
    assert (mol.den, mol.nums) == (2, ((1, -1), (3, 1)))


@pytest.mark.parametrize("cls", [LipFunction, WeightFunction])
def test_a_function_built_from_integers_is_the_one_built_from_fractions(cls, tri):
    values = (Fraction(0), Fraction(3, 4), Fraction(-1, 2))
    f = cls(tri, values)
    assert (f.scale, f.ints) == (4, (0, 3, -2))
    # unreduced integers are brought to the same form
    for scale, ints in ((4, (0, 3, -2)), (12, (0, 9, -6)), (8, (0, 6, -4))):
        g = cls._of(tri, scale, ints)
        assert g == f and f == g and hash(g) == hash(f) and repr(g) == repr(f)
        assert (g.scale, g.ints) == (4, (0, 3, -2)) and g.values == values
    assert cls._of(tri, 4, (0, 3, -1)) != f
    assert cls._of(tri, 1, (0, 0, 0)) == cls(tri, (0, 0, 0))
    assert cls(values=values, space=tri) == f and f.__match_args__ == ("space", "values")
    with pytest.raises(AttributeError):
        f.scale = 2
    with pytest.raises(AttributeError):
        del f.values


def test_a_function_built_from_integers_rejects_a_nonzero_base_value(tri):
    with pytest.raises(ValueError, match="vanish at the base point"):
        LipFunction._of(tri, 3, (1, 0, 2))
    with pytest.raises(ValueError, match="vanish at the base point"):
        LipFunction(tri, (Fraction(1, 3), 0, 0))
    assert WeightFunction._of(tri, 3, (1, 0, 2)).values == (Fraction(1, 3), 0, Fraction(2, 3))
