import random
from fractions import Fraction

import pytest

from freelip.checks import (
    extreme_molecules_bruteforce,
    is_extreme_in_ball_bruteforce,
    molecule_vectors,
    positive_ball_vertices_bruteforce,
)
from freelip.elements import Molecule, canonicalize, delta, support, zero
from freelip.errors import (
    DegeneratePair,
    NotNormalized,
    NotPositive,
    SingletonSupport,
)
from freelip.extremal import (
    EXPOSED,
    NOT_EXTREME,
    almost_positive_witness,
    attainment_partition,
    classify_molecule,
    extended_pairing,
    maximize_extended_pairing,
    normers_support_check,
    positive_ball_extremes,
    split_positive,
)
from freelip.functions import (
    lip_constant,
    mcshane_extend,
    partial_function,
)
from freelip.generators import (
    random_element,
    random_positive_element,
    random_space,
)
from freelip.metric import line_space, validate_space
from freelip.norms import free_norm, norm_certificate, positive_norm


def test_classify_separated_pair_is_exposed(tri):
    verdict = classify_molecule(tri, 1, 2)
    assert verdict.verdict == EXPOSED
    assert verdict.segment_trivial
    assert verdict.exposing_function is not None
    assert verdict.face.is_unique_normer
    assert verdict.counterexample_decomposition is None


def test_classify_aligned_pair_is_not_extreme(line3):
    verdict = classify_molecule(line3, 0, 2)
    assert verdict.verdict == NOT_EXTREME
    u, w = verdict.counterexample_decomposition
    assert u != w
    assert (u + w) * Fraction(1, 2) == Molecule(0, 2).as_element(line3)
    assert free_norm(u) == 1 and free_norm(w) == 1


def test_classify_two_point_space():
    two = line_space(2)
    assert classify_molecule(two, 1, 0).verdict == EXPOSED
    with pytest.raises(DegeneratePair):
        classify_molecule(two, 1, 1)


def test_classification_matches_brute_force():
    rng = random.Random(41)
    for _ in range(12):
        space = random_space(rng, rng.randint(2, 6))
        brute = extreme_molecules_bruteforce(molecule_vectors(space))
        for p, q in space.ordered_pairs():
            verdict = classify_molecule(space, p, q)
            assert (verdict.verdict == EXPOSED) == ((p, q) in brute)
            assert verdict.segment_trivial == space.segment(p, q).is_trivial()


def test_normers_support_check_examples(line3, line4, tri):
    assert normers_support_check(tri, 1, 2)
    assert normers_support_check(line3, 0, 2)
    assert normers_support_check(line4, 0, 3)


def test_positive_ball_extremes_line3(line3):
    extremes = positive_ball_extremes(line3)
    expected = [
        zero(line3),
        delta(line3, 1),
        delta(line3, 2) / 2,
    ]
    assert extremes == expected


def test_positive_ball_extremes_one_point():
    one = validate_space([[0]])
    assert positive_ball_extremes(one) == [zero(one)]


def test_positive_ball_extremes_tri(tri):
    extremes = positive_ball_extremes(tri)
    assert extremes == [zero(tri), delta(tri, 1), delta(tri, 2)]


def test_positive_ball_matches_vertex_enumeration():
    rng = random.Random(42)
    for _ in range(15):
        space = random_space(rng, rng.randint(1, 8))
        points = space.nonbase_points()
        claimed = {
            tuple(e.coeffs.get(p, Fraction(0)) for p in points)
            for e in positive_ball_extremes(space)
        }
        assert claimed == positive_ball_vertices_bruteforce(space)


def test_split_positive_example(line3):
    mu = canonicalize(line3, {1: Fraction(1, 3), 2: Fraction(1, 3)})
    m1, m2, t = split_positive(mu)
    assert m1 == delta(line3, 1)
    assert m2 == delta(line3, 2) / 2
    assert t == Fraction(1, 3)
    assert m1 * t + m2 * (1 - t) == mu


def test_split_positive_preconditions(line3):
    with pytest.raises(SingletonSupport):
        split_positive(delta(line3, 1))
    with pytest.raises(NotPositive):
        split_positive(canonicalize(line3, {1: -1, 2: 1}))
    with pytest.raises(NotNormalized):
        split_positive(canonicalize(line3, {1: 1, 2: 1}))


def test_split_positive_random():
    rng = random.Random(43)
    done = 0
    while done < 30:
        space = random_space(rng, rng.randint(3, 8))
        mu = random_positive_element(rng, space, min_support=2)
        if len(support(mu)) < 2:
            continue
        mu = mu / positive_norm(mu)
        m1, m2, t = split_positive(mu)
        assert 0 < t < 1
        assert positive_norm(m1) == 1 and positive_norm(m2) == 1
        assert m1 * t + m2 * (1 - t) == mu
        done += 1


def test_extended_pairing_examples(line3):
    lam = canonicalize(line3, {1: 1, 2: 1})
    # with no perturbation the domain collapses to the base point
    base_only = partial_function(line3, {0: 0})
    assert extended_pairing(lam, zero(line3), base_only) == positive_norm(lam)
    # a zero partial function extends to the distance from the domain
    mu = canonicalize(line3, {2: 1})
    pf = partial_function(line3, {0: 0, 2: 0})
    f_I = mcshane_extend(pf)
    assert all(
        f_I.values[x] == line3.distance_to_set(x, pf.domain)
        for x in line3.points()
    )
    assert extended_pairing(lam, mu, pf) == (mu + lam).pair(f_I)
    # without a positive part the pairing never exceeds the norm
    assert extended_pairing(zero(line3), mu, pf) <= free_norm(mu)


def test_maximize_extended_pairing_examples(line3):
    # no perturbation: the value is the norm of the positive part
    lam = canonicalize(line3, {1: 1})
    _, value = maximize_extended_pairing(lam, zero(line3))
    assert value == 1
    # no positive part: the value is the norm of the perturbation
    mu = Molecule(1, 2).as_element(line3) * line3.d(1, 2)
    f_star, value = maximize_extended_pairing(zero(line3), mu)
    assert value == free_norm(mu)
    # cancellation: mu + lam = delta(2)
    lam2 = canonicalize(line3, {1: 1})
    mu2 = canonicalize(line3, {1: -1, 2: 1})
    _, value2 = maximize_extended_pairing(lam2, mu2)
    assert value2 == 2


def test_maximize_extended_pairing_random():
    rng = random.Random(44)
    for _ in range(40):
        space = random_space(rng, rng.randint(2, 7))
        lam = random_positive_element(rng, space)
        mu = random_element(rng, space)
        f_star, value = maximize_extended_pairing(lam, mu)
        assert value == free_norm(lam + mu)
        assert extended_pairing(lam, mu, f_star) == value


def test_extended_pairing_concavity():
    rng = random.Random(45)
    for _ in range(60):
        space = random_space(rng, rng.randint(2, 6))
        lam = random_positive_element(rng, space)
        mu = random_element(rng, space)
        S = sorted(support(mu) | {space.base})

        def rand_partial():
            values = {
                p: Fraction(0)
                if p == space.base
                else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                for p in S
            }
            pf = partial_function(space, values)
            L = lip_constant(pf)
            if L > 1:
                pf = partial_function(space, {p: v / L for p, v in pf.values.items()})
            return pf

        f, g = rand_partial(), rand_partial()
        c = Fraction(rng.randint(1, 3), 4)
        mixed = partial_function(
            space, {p: c * f.values[p] + (1 - c) * g.values[p] for p in f.domain}
        )
        assert extended_pairing(lam, mu, mixed) >= c * extended_pairing(
            lam, mu, f
        ) + (1 - c) * extended_pairing(lam, mu, g)


def test_attainment_partition_examples(line3):
    base_only = partial_function(line3, {0: 0})
    cells = attainment_partition(line3, base_only)
    assert cells == {frozenset({0}): frozenset({0, 1, 2})}

    pf = partial_function(line3, {0: 0, 2: 2})
    cells = attainment_partition(line3, pf)
    assert cells[frozenset({0})] == frozenset({0, 1})
    assert cells[frozenset({0, 2})] == frozenset({2})


def test_attainment_partition_covers_and_is_disjoint():
    rng = random.Random(46)
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 7))
        mu = random_element(rng, space)
        lam = random_positive_element(rng, space)
        f_star, _ = maximize_extended_pairing(lam, mu)
        cells = attainment_partition(space, f_star)
        seen = set()
        for K, cell in cells.items():
            assert K  # attainment sets are never empty
            assert not (seen & cell)
            seen |= cell
            for x in cell & set(f_star.domain):
                assert x in K
        assert seen == set(space.points())


def test_witness_on_line4_uniform_masses(line4):
    lam = canonicalize(line4, {1: Fraction(1, 6), 2: Fraction(1, 6), 3: Fraction(1, 6)})
    witness = almost_positive_witness(lam, zero(line4))
    assert witness is not None
    assert witness.chosen_points == (1, 2, 3)
    assert witness.v.coeffs == {
        1: Fraction(1, 12),
        2: Fraction(-1, 6),
        3: Fraction(1, 12),
    }
    assert positive_norm(lam) == 1
    assert norm_certificate(lam + witness.v).value == 1
    assert norm_certificate(lam - witness.v).value == 1


def test_witness_absent_for_normalized_evaluation(line4):
    lam = delta(line4, 2) / line4.d(2, 0)
    assert almost_positive_witness(lam, zero(line4)) is None


def test_witness_requires_positive_part(line4):
    with pytest.raises(NotPositive):
        almost_positive_witness(canonicalize(line4, {1: -1}), zero(line4))


def test_witness_random_consistency():
    rng = random.Random(47)
    for _ in range(25):
        space = random_space(rng, rng.randint(2, 6))
        lam = random_positive_element(rng, space)
        mu = random_element(rng, space)
        witness = almost_positive_witness(lam, mu)
        total = lam + mu
        if witness is None or total.is_zero():
            continue
        # the witness construction already verified the norm identities;
        # cross-check against brute-force extremality of the normalized element
        unit = total / norm_certificate(total).value
        vectors = molecule_vectors(space)
        assert not is_extreme_in_ball_bruteforce(
            unit, extreme_molecules_bruteforce(vectors), vectors
        )


def test_extreme_brute_force_matches_segments():
    rng = random.Random(48)
    for _ in range(10):
        space = random_space(rng, rng.randint(2, 5))
        brute = extreme_molecules_bruteforce(molecule_vectors(space))
        for p, q in space.ordered_pairs():
            assert ((p, q) in brute) == space.segment(p, q).is_trivial()
