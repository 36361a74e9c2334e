import random
from fractions import Fraction

import pytest

from freelip.elements import (
    Molecule,
    canonicalize,
    intersection_property_check,
    is_positive,
    order_leq,
    subspace_membership,
    support,
    zero,
)
from freelip.errors import EmptyFamily, SpaceMismatch, UnknownLabel
from freelip.functions import LipFunction, WeightFunction, lip_function
from freelip.generators import random_element, random_space, random_subset
from freelip.metric import PointedMetricSpace, validate_space
from freelip import lp
from freelip.norms import free_norm_dual


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


def test_a_cached_scaling_leaves_space_equality_and_hash_alone(line3):
    fresh = PointedMetricSpace(line3.labels, line3.base, line3.dist)
    before = hash(fresh)
    assert "scaled" not in fresh.__dict__ and "scaled" in line3.__dict__
    assert fresh == line3 and before == hash(line3)
    assert fresh.scaled == line3.scaled
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
    with pytest.raises(ZeroDivisionError):
        Molecule(1, 1).as_element(line3)


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
