import random
from fractions import Fraction

import pytest

from freelip import checks, extremal, functions, lp, norms
from freelip.checks import (
    extreme_molecules_bruteforce,
    is_extreme_in_ball_bruteforce,
    molecule_vectors,
    positive_ball_vertices_bruteforce,
    transport_norm_bruteforce,
)
from freelip.elements import Molecule, canonicalize, delta, support, zero
from freelip.errors import (
    DegeneratePair,
    InternalVerificationFailure,
    NotNormalized,
    NotOneLipschitzOnDomain,
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
    random_corpus,
    random_element,
    random_line_subset,
    random_positive_element,
    random_rational,
    random_space,
    uniform_space,
)
from freelip.metric import PointedMetricSpace, line_space, validate_space
from freelip.norms import free_norm, norm_certificate, positive_norm
from oracles import (
    bump_witness,
    extreme_molecules_per_ordered_pair,
    fraction_attainment_partition,
    fraction_kernel_weights,
    is_extreme_by_lp,
    midpoint_halves_by_cases,
    molecule_vectors_by_elements,
    replace,
)
from spaces import coprime_space


def test_classify_separated_pair_is_exposed(tri):
    verdict = classify_molecule(tri, 1, 2)
    assert verdict.verdict == EXPOSED
    assert verdict.segment == tri.segment(1, 2) and verdict.segment.is_trivial()
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
            assert verdict.segment == space.segment(p, q)
            if verdict.verdict == NOT_EXTREME:
                # two distinct halves of norm one, by the dense transport LP,
                # averaging back to the molecule
                u, w = verdict.counterexample_decomposition
                assert u != w
                assert (u + w) * Fraction(1, 2) == Molecule(p, q).as_element(space)
                assert transport_norm_bruteforce(u)[0] == 1 == transport_norm_bruteforce(w)[0]


def test_the_symmetric_halves_are_the_two_branch_halves():
    # m(p, q) +- min(t, 1 - t) (a - b) against the two-branch construction
    rng = random.Random(49)
    spaces = random_corpus(20240521, 200, 2, 12)
    spaces += [line_space(n, random_rational(rng)) for n in range(3, 13)]
    spaces += [uniform_space(n, random_rational(rng)) for n in range(2, 8)]
    spaces += [coprime_space(rng, rng.randint(3, 9)) for _ in range(20)]
    split = 0
    for space in spaces:
        for p, q in space.ordered_pairs():
            halves = classify_molecule(space, p, q).counterexample_decomposition
            if halves is not None:
                assert halves == midpoint_halves_by_cases(space, p, q)
                split += 1
    assert split >= 5000


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
    spaces = [random_space(rng, rng.randint(1, 8)) for _ in range(15)]
    for space in spaces + [coprime_space(rng, rng.randint(1, 6)) for _ in range(5)]:
        points = space.nonbase_points()
        extremes = positive_ball_extremes(space)
        claimed = {tuple(e.coeffs.get(p, Fraction(0)) for p in points) for e in extremes}
        assert claimed == positive_ball_vertices_bruteforce(space)
        # in order, each delta(x) / d(x, base) divided over Fractions
        normalized = [delta(space, x) / space.d(x, space.base) for x in points]
        assert extremes == [zero(space)] + normalized


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
        # the point split: the first support point by label carries m1
        a = min(support(mu), key=lambda i: space.labels[i])
        reach = space.d(a, space.base)
        assert m1 == delta(space, a) / reach
        assert t == mu.coeffs[a] * reach
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
        f_I.values[x] == min(line3.d(x, q) for q in pf.domain)
        for x in line3.points()
    )
    assert extended_pairing(lam, mu, pf) == (mu + lam).pair(f_I)
    # without a positive part the pairing never exceeds the norm
    assert extended_pairing(zero(line3), mu, pf) <= free_norm(mu)


def test_maximize_extended_pairing_examples(line3):
    # no perturbation: the value is the norm of the positive part
    lam = canonicalize(line3, {1: 1})
    _, _, value = maximize_extended_pairing(lam, zero(line3))
    assert value == 1
    # no positive part: the value is the norm of the perturbation
    mu = Molecule(1, 2).as_element(line3) * line3.d(1, 2)
    f_star, _, value = maximize_extended_pairing(zero(line3), mu)
    assert value == free_norm(mu)
    # cancellation: mu + lam = delta(2)
    lam2 = canonicalize(line3, {1: 1})
    mu2 = canonicalize(line3, {1: -1, 2: 1})
    _, _, value2 = maximize_extended_pairing(lam2, mu2)
    assert value2 == 2


def test_maximize_extended_pairing_random():
    rng = random.Random(44)
    for _ in range(40):
        space = random_space(rng, rng.randint(2, 7))
        lam = random_positive_element(rng, space)
        mu = random_element(rng, space)
        f_star, _, value = maximize_extended_pairing(lam, mu)
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
    cells = attainment_partition(base_only)
    assert cells == {frozenset({0}): frozenset({0, 1, 2})}

    pf = partial_function(line3, {0: 0, 2: 2})
    cells = attainment_partition(pf)
    assert cells[frozenset({0})] == frozenset({0, 1})
    assert cells[frozenset({0, 2})] == frozenset({2})


def test_attainment_partition_covers_and_is_disjoint():
    rng = random.Random(46)
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 7))
        mu = random_element(rng, space)
        lam = random_positive_element(rng, space)
        f_star, _, _ = maximize_extended_pairing(lam, mu)
        cells = attainment_partition(f_star)
        seen = set()
        for K, cell in cells.items():
            assert K  # attainment sets are never empty
            assert not (seen & cell)
            seen |= cell
            for x in cell & set(f_star.domain):
                assert x in K
        assert seen == set(space.points())


def test_attainment_cells_equal_the_fraction_minimum():
    # the cells compare against the integer McShane kernel's extension; the
    # reference takes the minimum over Fractions
    nontrivial = 0
    for lam, mu in _witness_draws(83, 120):
        space = lam.space
        f_star, _, _ = maximize_extended_pairing(lam, mu)
        cells = attainment_partition(f_star)
        assert cells == fraction_attainment_partition(f_star)
        nontrivial += len(cells) > 1
    assert nontrivial > 0


def test_attainment_cells_on_coprime_denominators():
    # value denominators 2, 3 and 5 against distance denominators 7, 11 and
    # 13, so neither scale divides the other; every distance is at least
    # 5/13 and every value lies in [0, 11/30], so the values are 1-Lipschitz
    rng = random.Random(84)
    nontrivial = 0
    for _ in range(40):
        space = coprime_space(rng, rng.randint(2, 8))
        domain = rng.sample(space.nonbase_points(), rng.randint(1, space.n - 1))
        pf = partial_function(space, {q: Fraction(rng.randint(0, 11), 30) for q in domain})
        cells = attainment_partition(pf)
        assert cells == fraction_attainment_partition(pf)
        nontrivial += len(cells) > 1
    assert nontrivial > 0


def test_pairing_and_partition_reject_a_two_lipschitz_partial_function(line3):
    # |f(1) - f(0)| = 2 d(0, 1): the McShane extension refuses it
    pf = partial_function(line3, {0: 0, 1: 2 * line3.d(0, 1)})
    assert lip_constant(pf) == 2
    lam = canonicalize(line3, {2: 1})
    with pytest.raises(NotOneLipschitzOnDomain):
        extended_pairing(lam, zero(line3), pf)
    with pytest.raises(NotOneLipschitzOnDomain):
        attainment_partition(pf)


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


def _witness_draws(seed, count):
    # random, line and uniform spaces of n <= 9; mu zero on even draws
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 9)
        kind = i % 6 // 2
        if kind == 0:
            space = random_space(rng, n)
        elif kind == 1:
            space = line_space(n, step=random_rational(rng))
        else:
            space = uniform_space(n, random_rational(rng))
        lam = random_positive_element(rng, space)
        mu = zero(space) if i % 2 == 0 else random_element(rng, space)
        yield lam, mu


def test_point_weight_witness_equals_the_bump_reference():
    outcomes = {"witness": 0, "none": 0, "parallel": 0, "signed mu": 0}
    for lam, mu in _witness_draws(81, 450):
        witness, reference = almost_positive_witness(lam, mu), bump_witness(lam, mu)
        if witness is None:
            assert reference is None
            outcomes["none"] += 1
            continue
        for name in witness.__match_args__:
            assert getattr(witness, name) == getattr(reference, name), name
        assert witness.h.support <= set(witness.chosen_points)
        outcomes["witness"] += 1
        outcomes["parallel"] += 0 in witness.c
        outcomes["signed mu"] += not mu.is_zero()
    assert all(outcomes.values()), outcomes


def _coprime_witness_draws(seed, count):
    # value denominators against distance denominators 7, 11 and 13
    rng = random.Random(seed)
    for i in range(count):
        space = coprime_space(rng, rng.randint(3, 8))
        lam = random_positive_element(rng, space)
        yield lam, zero(space) if i % 2 == 0 else random_element(rng, space)


def test_the_integer_kernel_rows_give_the_fraction_kernel_weights():
    # lam's numerators, and those times the extension's integers, are the
    # Fraction rows times lam.den and lam.den * extension.scale, so c, h and
    # v come out as the Fraction kernel vector gives them
    outcomes = {"witness": 0, "zero weight": 0, "coprime": 0}
    draws = [*_witness_draws(85, 240), *_coprime_witness_draws(86, 60)]
    for i, (lam, mu) in enumerate(draws):
        witness = almost_positive_witness(lam, mu)
        if witness is None:
            continue
        extension = mcshane_extend(witness.f_star)
        c, h, v = fraction_kernel_weights(lam, extension, witness.chosen_points)
        assert witness.c == c and witness.v == v
        assert witness.h == h and hash(witness.h) == hash(h) and witness.h.values == h.values
        outcomes["witness"] += 1
        outcomes["zero weight"] += 0 in c
        outcomes["coprime"] += i >= 240
    assert all(outcomes.values()), outcomes


def test_witness_certifies_with_three_norm_certificates_and_no_bumps(monkeypatch):
    # maximize_extended_pairing certifies ||lam + mu|| once; the witness
    # reuses that value and certifies only ||lam + mu +- v||
    calls = []
    real = extremal.norm_certificate

    def counted(mu):
        calls.append(mu)
        return real(mu)

    # f* is McShane-extended once, its McShane minimum is taken once for
    # both the extension and the attainment cells, and its Lipschitz
    # constant is never taken: the extension certifies f* by agreement on
    # its domain
    extended, minima, measured = [], [], []
    real_extend, real_lip = extremal.mcshane_extend, functions.lip_constant
    real_minima = functions.min_plus

    def counted_extend(pf):
        extended.append(pf)
        return real_extend(pf)

    def counted_minima(values, rows):
        minima.append(values)
        return real_minima(values, rows)

    def counted_lip(f):
        measured.append(f)
        return real_lip(f)

    monkeypatch.setattr(extremal, "norm_certificate", counted)
    monkeypatch.setattr(extremal, "mcshane_extend", counted_extend)
    for owner in (functions, extremal):
        monkeypatch.setattr(owner, "min_plus", counted_minima, raising=False)
        monkeypatch.setattr(owner, "lip_constant", counted_lip, raising=False)
    found = 0
    for lam, mu in _witness_draws(82, 60):
        calls.clear()
        extended.clear()
        minima.clear()
        measured.clear()
        witness = almost_positive_witness(lam, mu)
        assert len(minima) == 1
        if witness is not None:
            assert len(calls) == 3
            assert extended == [witness.f_star]
            f_star = witness.f_star
            # the lifted values of f*, which its McShane minimum keeps
            assert minima == [f_star._minima[1]]
            assert sum(f is witness.f_star for f in measured) == 0
            found += 1
    assert found > 0


def test_pair_questions_take_no_lipschitz_constant_and_no_molecule_per_pair(monkeypatch):
    # pins the cost shape: segments, molecule functions, faces and norm
    # certificates run on the integer rows of `space.scaled`, so a pair
    # question takes no Lipschitz constant at all; its face comes from the
    # one slope scan that certified the molecule function; and it builds a
    # few molecule elements however many of the n(n - 1) pairs that scan sees.
    # The segment check reads the scan's tight pairs and builds no face
    names = ("lip_constant", "_tight_pairs", "norming_face", "as_element", "norm_certificate")
    counts = dict.fromkeys(names, 0)

    def spy(owner, name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    real_lip = functions.lip_constant
    for owner in (functions, checks):
        spy(owner, "lip_constant", real_lip)
    spy(functions, "_tight_pairs", functions._tight_pairs)
    real_face = norms.norming_face
    for owner in (norms, extremal):
        spy(owner, "norming_face", real_face)
    spy(extremal, "norm_certificate", extremal.norm_certificate)
    spy(Molecule, "as_element", Molecule.as_element)

    def measured(question, *args):
        counts.update(dict.fromkeys(counts, 0))
        result = question(*args)
        return result, dict(counts)

    rng = random.Random(65)
    spaces = [random_space(rng, n) for n in (6, 8, 10)] + [line_space(7), uniform_space(6)]
    verdicts = set()
    for space in spaces:
        for p, q in space.ordered_pairs():
            verdict, seen = measured(classify_molecule, space, p, q)
            verdicts.add(verdict.verdict)
            assert seen["lip_constant"] == 0 and seen["_tight_pairs"] == 1
            assert seen["norming_face"] == 1
            # the face's distinct normer, and the two halves and the target
            # of a midpoint decomposition
            assert seen["as_element"] <= 4
            assert seen["as_element"] == 0 or verdict.verdict == NOT_EXTREME
            assert seen["norm_certificate"] == (2 if verdict.verdict == NOT_EXTREME else 0)
            ok, seen = measured(normers_support_check, space, p, q)
            assert ok
            assert seen["lip_constant"] == 0 and seen["_tight_pairs"] == 1
            assert seen["norming_face"] == 0 and seen["as_element"] == 0
        result, seen = measured(checks.check_molecule_function, [space])
        pairs = space.n * (space.n - 1)
        assert result.passed and result.cases == pairs
        assert seen == dict(dict.fromkeys(counts, 0), _tight_pairs=pairs)
    assert verdicts == {EXPOSED, NOT_EXTREME}


def test_witness_with_a_pairing_blind_kernel_vector_fails_verification(monkeypatch, line4):
    # (u2, -u1, 0) balances the mass of the weighted copy of lam but not
    # its pairing with the extension, which the orthogonality check catches
    # before the +-v norm certificates run
    monkeypatch.setattr(extremal, "_kernel_vector", lambda u, w: (u[1], -u[0], 0))
    third = Fraction(1, 6)
    lam = canonicalize(line4, {1: third, 2: third, 3: third})
    with pytest.raises(InternalVerificationFailure, match="weighted extension pairing is nonzero"):
        almost_positive_witness(lam, zero(line4))


def test_a_tight_scan_reporting_a_pair_twice_fails_the_exposed_branch(monkeypatch, tri):
    # (a, b) has a trivial segment; a scan that also reports each pair
    # reversed puts a second molecule on the face
    real = functions._tight_pairs

    def both_directions(space, vscale, values):
        pairs = real(space, vscale, values)
        return sorted(pairs + [(y, x) for x, y in pairs])

    monkeypatch.setattr(functions, "_tight_pairs", both_directions)
    with pytest.raises(InternalVerificationFailure, match="not the molecule alone"):
        classify_molecule(tri, 1, 2)


def _relax_segments(monkeypatch, epsilon):
    real = PointedMetricSpace.segment

    def relaxed(space, p, q, _=Fraction(0)):
        return real(space, p, q, epsilon)

    monkeypatch.setattr(PointedMetricSpace, "segment", relaxed)


def test_a_segment_admitting_a_non_segment_point_fails_the_midpoint_check(monkeypatch, tri):
    # relaxed by 1/4, the segment of (a, b) admits the base point, which
    # is not between a and b: the halves through it average back to the
    # molecule by construction, but leave the unit sphere
    _relax_segments(monkeypatch, Fraction(1, 4))
    assert not tri.segment(1, 2).is_trivial()
    with pytest.raises(InternalVerificationFailure, match="midpoint half does not have norm one"):
        classify_molecule(tri, 1, 2)


def test_a_segment_point_at_an_endpoint_distance_fails_the_midpoint_check(monkeypatch):
    # relaxed by 1/2, the segment of (1, 2) in the uniform space admits the
    # base point, at distance 1 = d(1, 2) from 1: t = 1, so the step is zero
    _relax_segments(monkeypatch, Fraction(1, 2))
    space = uniform_space(3)
    assert space.segment(1, 2).members == {0, 1, 2}
    with pytest.raises(InternalVerificationFailure, match="midpoint halves coincide"):
        classify_molecule(space, 1, 2)


def test_a_norm_left_in_the_distance_unit_fails_the_midpoint_halves(monkeypatch):
    # steps of 1/2 make the distance unit 2, so an unscaled norm is off by 2
    real = extremal.norm_certificate

    def unscaled(mu):
        cert = real(mu)
        return replace(cert, value=cert.value * mu.space.scaled[0])

    monkeypatch.setattr(extremal, "norm_certificate", unscaled)
    with pytest.raises(InternalVerificationFailure, match="midpoint half does not have norm one"):
        classify_molecule(line_space(3, step=Fraction(1, 2)), 0, 2)


def test_a_restriction_that_drops_the_support_fails_the_extended_pairing(monkeypatch, line3):
    # restricted to the base alone, f* extends to d(., base), which pairs
    # with delta(1) - 2 delta(2) to -3 while its norm is 3
    real = extremal.restrict
    monkeypatch.setattr(extremal, "restrict", lambda f, S: real(f, ()))
    lam, mu = delta(line3, 1), delta(line3, 2) * -2
    assert free_norm(lam + mu) == 3
    with pytest.raises(InternalVerificationFailure, match="does not equal the norm"):
        maximize_extended_pairing(lam, mu)


def _line4_lam():
    line4 = line_space(4)
    return canonicalize(line4, {1: 1, 2: 1, 3: 1})


def test_a_zero_weighting_fails_the_witness(monkeypatch):
    monkeypatch.setattr(extremal, "weight_element", lambda lam, h: zero(lam.space))
    lam = _line4_lam()
    with pytest.raises(InternalVerificationFailure, match="witness perturbation is zero"):
        almost_positive_witness(lam, zero(lam.space))


def test_a_weighting_past_the_sup_bound_fails_positivity(monkeypatch):
    # the weights are scaled to sup 1, so doubling v makes lam - v or
    # lam + v negative where |c_i| = 1
    real = extremal.weight_element
    monkeypatch.setattr(extremal, "weight_element", lambda lam, h: real(lam, h) * 2)
    lam = _line4_lam()
    with pytest.raises(InternalVerificationFailure, match="witness breaks positivity"):
        almost_positive_witness(lam, zero(lam.space))


def test_a_kernel_vector_off_the_mass_hyperplane_fails_the_witness(monkeypatch):
    # c = (1, 0, 0) keeps lam +- v positive (lam - v drops a coefficient to
    # 0) but weights lam's mass by a_1 != 0
    monkeypatch.setattr(extremal, "_kernel_vector", lambda u, w: (1, 0, 0))
    lam = _line4_lam()
    with pytest.raises(InternalVerificationFailure, match="nonzero mass"):
        almost_positive_witness(lam, zero(lam.space))


def test_points_from_different_attainment_cells_change_the_norm(monkeypatch):
    # the extension is attained from the base at 1 and 2 but from 3 itself
    # at 3, so no cell holds three points of lam; merged into one cell,
    # 1, 2 and 3 get weights orthogonal to lam and to the extension, and
    # ||lam + mu - v|| grows from 3 to 11/2
    space = validate_space([[0, 1, 2, 3], [1, 0, 1, 3], [2, 1, 0, 4], [3, 3, 4, 0]])
    lam = canonicalize(space, {1: 1, 2: 1, 3: 1})
    mu = delta(space, 3) * -1
    assert almost_positive_witness(lam, mu) is None

    def one_cell(f):
        return {frozenset(f.domain): frozenset(range(f.space.n))}

    monkeypatch.setattr(extremal, "attainment_partition", one_cell)
    with pytest.raises(InternalVerificationFailure, match="perturbation changed the norm"):
        almost_positive_witness(lam, mu)


def test_extreme_brute_force_matches_segments():
    rng = random.Random(48)
    for _ in range(10):
        space = random_space(rng, rng.randint(2, 5))
        brute = extreme_molecules_bruteforce(molecule_vectors(space))
        for p, q in space.ordered_pairs():
            assert ((p, q) in brute) == space.segment(p, q).is_trivial()


def _hull_oracle_spaces(seed):
    # random, line, uniform and line-subset spaces of n <= 6
    rng = random.Random(seed)
    for n in range(1, 7):
        yield line_space(n)
        yield uniform_space(n, random_rational(rng))
        for _ in range(2):
            yield random_space(rng, n)
            yield random_line_subset(rng, n)


def test_one_hull_lp_per_unordered_pair_matches_one_per_ordered_pair(monkeypatch):
    # m(q, p) = -m(p, q), so the LP for (q, p) has the verdict of the LP for (p, q)
    real, solves, outcomes = lp.maximize, [], set()

    def spy(c, rows, free=()):
        solves.append(len(c))
        return real(c, rows, free)

    for space in _hull_oracle_spaces(81):
        vectors = molecule_vectors(space)
        assert vectors == molecule_vectors_by_elements(space)
        solves.clear()
        with monkeypatch.context() as patch:
            patch.setattr(lp, "maximize", spy)
            extreme = extreme_molecules_bruteforce(vectors)
        assert len(solves) == space.n * (space.n - 1) // 2
        assert extreme == extreme_molecules_per_ordered_pair(vectors)
        outcomes |= {pair in extreme for pair in vectors}
    assert outcomes == {True, False}


def test_the_hull_oracle_rejects_vectors_that_are_not_antisymmetric():
    vectors = molecule_vectors(line_space(4))
    doubled = dict(vectors)
    doubled[(2, 1)] = tuple(2 * a for a in vectors[(2, 1)])
    with pytest.raises(ValueError, match=r"the vectors of \(1, 2\) and \(2, 1\) are not opposite"):
        extreme_molecules_bruteforce(doubled)
    missing = {pair: v for pair, v in vectors.items() if pair != (3, 0)}
    with pytest.raises(ValueError, match=r"the vectors of \(0, 3\) and \(3, 0\)"):
        extreme_molecules_bruteforce(missing)


def test_hull_extremality_oracle_matches_the_lp_oracle():
    # `is_extreme_in_ball_bruteforce` says "extreme" only for an element equal
    # to a molecule, so the battery's "an extreme point is a molecule" cannot
    # fail on its own; the LP oracle decides extremality without the molecule
    # list.  Elements are drawn as in `checks.check_almost_positive`.
    rng = random.Random(71)
    verdicts = set()
    for space in random_corpus(72, count=16, min_n=2, max_n=5):
        vectors = molecule_vectors(space)
        brute = extreme_molecules_bruteforce(vectors)
        samples = []
        for _ in range(2):
            samples.append((random_positive_element(rng, space), random_element(rng, space)))
            samples.append((random_positive_element(rng, space), zero(space)))
        for p, q in list(space.ordered_pairs())[:4]:
            samples.append((zero(space), Molecule(p, q).as_element(space)))
        for lam, mu in samples:
            total = lam + mu
            if total.is_zero():
                continue
            unit = total / norm_certificate(total).value
            verdict = is_extreme_in_ball_bruteforce(unit, brute, vectors)
            assert is_extreme_by_lp(unit) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}
