"""Metamorphic relations: two runs of the library on related inputs agree.

Relabelling.  Moving point i of a space to position perm[i], the base
along with it, gives an isometric pointed space, and mu maps to the element
with the same coefficients at the moved points.  So the norms are equal,
the norming function of either run, read back through the permutation, is
1-Lipschitz and pairs with the other run's element to the norm, and the
values and slopes fixed on every normer (`normers_of`) move with the
points.  So do the molecule verdicts, with their faces (dimension and
tight molecules) and midpoint halves, whether `almost_positive_witness`
finds a witness, and the extreme points of the positive unit ball; labels
move with the points, so a choice made by label picks the moved point.
The transport solver numbers its sources and sinks by position,
so a relabelling reorders every one of its arrays: an index mixed up
between point, source and sink survives a comparison with one oracle on
one labelling far more easily than this relation.

Base change.  F(M, b) and F(M, b') are isometric through
delta_b(x) -> delta_b'(x) - delta_b'(b), and each molecule is the same
element of both, so norms and molecule verdicts agree, and a normer of the
image, shifted to vanish at b, norms the original.  The base point is where
the solver puts the balancing mass and where every witness is shifted to
zero, so a base mixed up with a point index breaks this relation.

Wedge sum.  Gluing M1 and M2 at their base points, with d(x, y) =
d(x, base) + d(base, y) across, makes F(M1) and F(M2) sit isometrically in
the free space of the wedge, and the norm adds: ||mu1 + mu2|| = ||mu1|| +
||mu2||.

Restriction.  For a subset K holding the base and p, q, the segment [p, q]
in K is the one in M cut down to K, so a trivial segment stays trivial and
an EXPOSED molecule of M is EXPOSED in K.

Reversal.  m(q, p) = -m(p, q), and x -> -x is an isometry of the unit
ball, so the verdict of (q, p) is that of (p, q) reflected: the same
verdict and segment members, the reversed tight molecules and the same
face dimension, the exposing function -f, and the halves (-w, -u).
"""

import random

import pytest

from freelip.elements import Molecule, canonicalize, zero
from freelip.extremal import (
    EXPOSED,
    NOT_EXTREME,
    almost_positive_witness,
    classify_molecule,
    positive_ball_extremes,
)
from freelip.functions import lip_constant, lip_function
from freelip.generators import (
    random_corpus,
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


def _moved(mu, moved, perm):
    """The element with mu's coefficients at the moved points of `moved`."""
    return canonicalize(moved, {perm[p]: a for p, a in mu.items})


def _relabelled_cases(kind, count=40):
    rng = random.Random(sorted(SPACES).index(kind))
    for _ in range(count):
        space = SPACES[kind](rng, rng.randint(2, 9))
        draw = random_positive_element if rng.random() < 0.2 else random_element
        mu = draw(rng, space, max_support=10)
        perm = list(range(space.n))
        rng.shuffle(perm)
        moved = relabel(space, perm)
        yield space, mu, perm, moved, _moved(mu, moved, perm)


def _relabelled_spaces(kind, count, smallest=2):
    """(rng, space, perm, moved) for `count` spaces; the rng draws more after each."""
    rng = random.Random(40 + sorted(SPACES).index(kind))
    for _ in range(count):
        space = SPACES[kind](rng, rng.randint(smallest, 8))
        perm = list(range(space.n))
        rng.shuffle(perm)
        yield rng, space, perm, relabel(space, perm)


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


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_relabelling_moves_every_molecule_verdict_and_face(kind):
    # the interior point of a midpoint decomposition is the first by label,
    # and labels move with the points, so the halves move too
    verdicts = set()
    for _, space, perm, moved in _relabelled_spaces(kind, 4):
        for p, q in space.ordered_pairs():
            verdict = classify_molecule(space, p, q)
            image = classify_molecule(moved, perm[p], perm[q])
            verdicts.add(verdict.verdict)
            assert image.verdict == verdict.verdict
            assert image.face.face_dimension == verdict.face.face_dimension
            assert set(image.face.tight_molecules) == {
                Molecule(perm[m.p], perm[m.q]) for m in verdict.face.tight_molecules
            }
            halves = verdict.counterexample_decomposition
            expected = halves and tuple(_moved(h, moved, perm) for h in halves)
            assert image.counterexample_decomposition == expected
    # every segment of a uniform or an ultrametric space is trivial
    splits = kind not in ("uniform", "ultrametric")
    assert verdicts == ({EXPOSED, NOT_EXTREME} if splits else {EXPOSED})


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_relabelling_keeps_whether_a_witness_exists(kind):
    # lam has at least three support points, so a witness can exist; mu is
    # zero (one attainment cell, a witness always) or a signed perturbation
    found, cases = 0, 20
    for rng, space, perm, moved in _relabelled_spaces(kind, cases, smallest=4):
        lam = random_positive_element(rng, space, min_support=3)
        mu = random_element(rng, space, max_support=3) if rng.random() < 0.5 else zero(space)
        witness = almost_positive_witness(lam, mu)
        image = almost_positive_witness(_moved(lam, moved, perm), _moved(mu, moved, perm))
        assert (image is None) == (witness is None)
        found += witness is not None
    assert 0 < found < cases


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_relabelling_moves_the_positive_ball_extremes(kind):
    for _, space, perm, moved in _relabelled_spaces(kind, 10):
        extremes = positive_ball_extremes(space)
        assert len(set(extremes)) == space.n
        assert set(positive_ball_extremes(moved)) == {_moved(e, moved, perm) for e in extremes}


def test_relabel_moves_points_labels_and_base():
    space = validate_space([[0, 1, 3], [1, 0, 2], [3, 2, 0]], base=0, labels="abc")
    moved = relabel(space, [2, 0, 1])
    assert moved.labels == ("b", "c", "a") and moved.base == 2
    assert moved.d(2, 0) == space.d(0, 1) == 1 and moved.d(0, 1) == space.d(1, 2) == 2


def rebase(space, base):
    """The same metric space pointed at another base."""
    return validate_space([list(row) for row in space.dist], base=base, labels=space.labels)


def moved_to_base(mu, space):
    """The image of mu under delta_b(x) -> delta_b'(x) - delta_b'(b) in `space`."""
    raw = {p: a for p, a in mu.items}
    raw[mu.space.base] = -sum(raw.values())
    return canonicalize(space, raw)


def _rebased_cases(kind, count=30):
    rng = random.Random(10 + sorted(SPACES).index(kind))
    for _ in range(count):
        space = SPACES[kind](rng, rng.randint(2, 7))
        draw = random_positive_element if rng.random() < 0.2 else random_element
        mu = draw(rng, space, max_support=6)
        other = rebase(space, rng.choice(space.nonbase_points()))
        yield space, mu, other, moved_to_base(mu, other)


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_base_change_keeps_the_norm_and_the_normers(kind):
    for space, mu, other, nu in _rebased_cases(kind):
        cert, moved_cert = norm_certificate(mu), norm_certificate(nu)
        assert moved_cert.value == cert.value
        f, b = moved_cert.dual_witness.values, space.base
        back = lip_function(space, [f[x] - f[b] for x in range(space.n)])
        assert lip_constant(back) <= 1 and mu.pair(back) == cert.value


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_base_change_keeps_every_molecule_verdict(kind):
    for space, _, other, _ in _rebased_cases(kind, count=8):
        for p, q in space.ordered_pairs():
            verdict = classify_molecule(space, p, q)
            assert classify_molecule(other, p, q).verdict == verdict.verdict


def wedge(first, second):
    """M1 and M2 glued at their base points; M2's other points follow M1's."""
    rest = second.nonbase_points()
    at = {q: first.n + i for i, q in enumerate(rest)}
    at[second.base] = first.base
    size = first.n + len(rest)
    dist = [[0] * size for _ in range(size)]
    for x in range(first.n):
        for y in range(first.n):
            dist[x][y] = first.d(x, y)
        for q in rest:
            dist[x][at[q]] = dist[at[q]][x] = first.d(x, first.base) + second.d(second.base, q)
    for q in rest:
        for r in rest:
            dist[at[q]][at[r]] = second.d(q, r)
    labels = list(first.labels) + ["w" + second.labels[q] for q in rest]
    return validate_space(dist, base=first.base, labels=labels), at


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_the_norm_adds_over_a_wedge_sum(kind):
    rng = random.Random(20 + sorted(SPACES).index(kind))
    for _ in range(25):
        first = SPACES[kind](rng, rng.randint(2, 6))
        second = SPACES[rng.choice(sorted(SPACES))](rng, rng.randint(2, 6))
        glued, at = wedge(first, second)
        mu1, mu2 = random_element(rng, first), random_element(rng, second)
        nu1 = canonicalize(glued, dict(mu1.items))
        nu2 = canonicalize(glued, {at[q]: a for q, a in mu2.items})
        norm1, norm2 = norm_certificate(mu1).value, norm_certificate(mu2).value
        assert norm_certificate(nu1).value == norm1
        assert norm_certificate(nu2).value == norm2
        assert norm_certificate(nu1 + nu2).value == norm1 + norm2


def restrict_space(space, keep):
    """The subspace on the points of `keep`, in point order, with the same base."""
    keep = sorted(keep)
    return validate_space(
        [[space.d(a, b) for b in keep] for a in keep],
        base=keep.index(space.base),
        labels=[space.labels[x] for x in keep],
    )


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_an_exposed_molecule_stays_exposed_in_a_subspace(kind):
    rng = random.Random(30 + sorted(SPACES).index(kind))
    exposed = 0
    for _ in range(12):
        space = SPACES[kind](rng, rng.randint(3, 7))
        for p, q in space.ordered_pairs():
            if classify_molecule(space, p, q).verdict != EXPOSED:
                continue
            exposed += 1
            others = [x for x in space.points() if x not in (p, q, space.base)]
            keep = {space.base, p, q} | set(rng.sample(others, rng.randint(0, len(others))))
            sub = restrict_space(space, keep)
            at = sorted(keep)
            assert classify_molecule(sub, at.index(p), at.index(q)).verdict == EXPOSED
    assert exposed > 0


def test_reversing_a_molecule_reflects_its_verdict():
    verdicts = set()
    for space in random_corpus(11, 80, 2, 10):
        for p, q in space.ordered_pairs():
            if p > q:
                continue
            verdict, reverse = classify_molecule(space, p, q), classify_molecule(space, q, p)
            verdicts.add(verdict.verdict)
            assert reverse.verdict == verdict.verdict
            assert reverse.segment.members == verdict.segment.members
            assert set(reverse.face.tight_molecules) == {
                Molecule(m.q, m.p) for m in verdict.face.tight_molecules
            }
            assert reverse.face.face_dimension == verdict.face.face_dimension
            if verdict.verdict == EXPOSED:
                f = verdict.exposing_function.values
                assert reverse.exposing_function.values == tuple(-v for v in f)
                assert reverse.counterexample_decomposition is None
            else:
                u, w = verdict.counterexample_decomposition
                assert reverse.counterexample_decomposition == (-w, -u)
                assert reverse.exposing_function is None
    assert verdicts == {EXPOSED, NOT_EXTREME}


def test_the_space_constructions():
    space = validate_space([[0, 1, 3], [1, 0, 2], [3, 2, 0]], base=0, labels="abc")
    other = rebase(space, 2)
    assert other.base == 2 and other.dist == space.dist
    mu = canonicalize(space, {1: 2, 2: -1})
    assert moved_to_base(mu, other).coeffs == {0: -1, 1: 2}
    glued, at = wedge(space, space)
    assert glued.labels == ("a", "b", "c", "wb", "wc") and at == {0: 0, 1: 3, 2: 4}
    assert glued.d(1, 3) == 2 and glued.d(4, 2) == 6 and glued.d(3, 4) == 2
    sub = restrict_space(space, {0, 2})
    assert sub.labels == ("a", "c") and sub.base == 0 and sub.d(0, 1) == 3
