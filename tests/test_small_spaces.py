"""Every small space, checked exhaustively against the oracles.

The small-scope hypothesis (Jackson, *Software Abstractions*, 2006): most
bugs show on some small input, and checking every small input reaches
every pattern of ties, which is where segments and faces turn.  The scope
is every symmetric matrix on 2 to 4 points with off-diagonal entries in
1..3 that is a metric, one per class under the relabellings that fix the
base point 0.  Each molecule's verdict and face are checked there, and so
is the norm of every element with coefficients +-1 on the non-base points;
the normers of those elements are checked on 2 and 3 points, where the
probe LPs stay quick.  Every almost-positive witness for a positive lam
with coefficients 1 or 2 and a mu of -1 on at most two points is verified:
lam +- v is positive and lam + mu +- v keeps the norm of lam + mu.
"""

from functools import cache
from itertools import combinations, permutations, product

import pytest

from freelip import checks
from freelip.elements import canonicalize
from freelip.errors import TriangleViolation
from freelip.extremal import EXPOSED, almost_positive_witness, classify_molecule
from freelip.functions import molecule_norming_function
from freelip.metric import validate_space
from freelip.norms import norm_certificate, normers_of
from oracles import fraction_norming_face, networkx_transport_norm, normers_by_probes

ENTRIES = (1, 2, 3)
CLASSES = {2: 3, 3: 16, 4: 113}


def _canonical(rows):
    """The least relabelling of `rows` that keeps point 0 in place."""
    n = len(rows)
    return min(
        tuple(tuple(rows[i][j] for j in order) for i in order)
        for order in ((0, *rest) for rest in permutations(range(1, n)))
    )


@cache
def small_spaces(n):
    """One space per class of metrics on n points with entries in ENTRIES."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    classes = set()
    for values in product(ENTRIES, repeat=len(pairs)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, values):
            rows[i][j] = rows[j][i] = v
        try:
            validate_space(rows)
        except TriangleViolation:
            continue
        classes.add(_canonical(rows))
    return tuple(validate_space(rows) for rows in sorted(classes))


@pytest.mark.parametrize("n", sorted(CLASSES))
def test_every_small_molecule_is_classified_as_the_oracles_say(n):
    spaces = small_spaces(n)
    assert len(spaces) == CLASSES[n]
    for space in spaces:
        extreme = checks.extreme_molecules_bruteforce(checks.molecule_vectors(space))
        for p, q in space.ordered_pairs():
            verdict = classify_molecule(space, p, q)
            assert (verdict.verdict == EXPOSED) == ((p, q) in extreme), (space, p, q)
            reference = fraction_norming_face(molecule_norming_function(space, p, q))
            assert verdict.face.face_dimension == reference.face_dimension, (space, p, q)


@pytest.mark.parametrize("n", sorted(CLASSES))
def test_every_small_sign_element_has_the_oracles_norm_and_normers(n):
    for space in small_spaces(n):
        for signs in product((1, -1), repeat=n - 1):
            mu = canonicalize(space, dict(zip(range(1, n), signs)))
            value = norm_certificate(mu).value
            assert value == networkx_transport_norm(mu), (space, signs)
            if n <= 3:
                report = normers_of(mu)
                assert (report.value, report.fixed_values, report.shared_tight_pairs) == (
                    normers_by_probes(mu)
                ), (space, signs)


def test_every_small_almost_positive_witness_is_verified():
    # lam + mu for every positive lam with coefficients 1 or 2 on every
    # non-base point and mu = -1 on at most two of them; a witness needs
    # three points of supp(lam) in one cell, so only n = 4 can have one
    witnesses = 0
    for n in sorted(CLASSES):
        points = range(1, n)
        for space in small_spaces(n):
            mus = [
                canonicalize(space, dict.fromkeys(S, -1))
                for k in (0, 1, 2)
                for S in combinations(points, k)
            ]
            for coefficients in product((1, 2), repeat=n - 1):
                lam = canonicalize(space, dict(zip(points, coefficients)))
                for mu in mus:
                    witness = almost_positive_witness(lam, mu)
                    if witness is None:
                        continue
                    assert n == 4, (space, lam, mu)
                    v, total = witness.v, lam + mu
                    assert not v.is_zero(), (space, lam, mu)
                    assert all(a >= 0 for side in (lam + v, lam - v) for _, a in side.items)
                    value = norm_certificate(total).value
                    assert norm_certificate(total + v).value == value, (space, lam, mu)
                    assert norm_certificate(total - v).value == value, (space, lam, mu)
                    witnesses += 1
    # 984 of the 6,328 pairs at n = 4 have one
    assert witnesses >= 1
