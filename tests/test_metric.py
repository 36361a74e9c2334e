import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelip import generators, metric
from freelip.elements import Molecule
from freelip.errors import (
    AsymmetricDistance,
    BadBaseIndex,
    DegeneratePair,
    DuplicateLabel,
    EpsilonOutOfRange,
    SpaceValidationError,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from freelip.extremal import classify_molecule, normers_support_check
from freelip.fileio import load_space, machine_dumps, space_payload
from freelip.functions import molecule_norming_function
from freelip.generators import random_line_subset, random_rational, random_space, uniform_space
from freelip.metric import line_space, min_plus, space_from_points, steep_pair, validate_space
from oracles import (
    fraction_closure_matrix,
    fraction_line_matrix,
    fraction_line_subset_matrix,
    fraction_segment,
    fraction_triangle_violation,
)
from spaces import coprime_space, ultrametric_space


def test_line3_is_valid(line3):
    assert line3.n == 3
    assert line3.d(0, 2) == 2
    assert line3.labels == ("0", "1", "2")


def test_one_point_space_is_valid():
    space = validate_space([[0]])
    assert space.n == 1
    assert space.radius(space.points()) == 0


def test_triangle_violation_reported_with_triple():
    with pytest.raises(TriangleViolation) as err:
        validate_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    witness = (err.value.i, err.value.j, err.value.k)
    d = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    assert d[witness[0]][witness[2]] > d[witness[0]][witness[1]] + d[witness[1]][witness[2]]


def test_asymmetry_detected():
    with pytest.raises(AsymmetricDistance):
        validate_space([[0, 1], [2, 0]])


def test_zero_distance_distinct_points_detected():
    with pytest.raises(ZeroDistanceDistinctPoints):
        validate_space([[0, 0], [0, 0]])


def test_nonzero_diagonal_detected():
    with pytest.raises(ZeroDistanceDistinctPoints):
        validate_space([[1]])


def test_bad_base_index():
    with pytest.raises(BadBaseIndex):
        validate_space([[0, 1], [1, 0]], base=5)


@pytest.mark.parametrize("base, kind", [(0.0, "float"), (True, "bool"), ("0", "str")])
def test_a_base_that_is_not_an_int_is_a_type_error(base, kind):
    # the base is an index, as `resolve` reads one; `labels[space.base]`
    # and every integer row take an int
    with pytest.raises(TypeError, match=f"^expected an int base index, got {kind}$"):
        validate_space([[0, 1], [1, 0]], base=base)


def test_negative_distance_is_a_triangle_violation():
    with pytest.raises(TriangleViolation):
        validate_space([[0, -1], [-1, 0]])


def test_radius(line3):
    assert line3.radius([1, 2]) == 2
    assert line3.radius([]) == 0
    assert line3.radius([0]) == 0
    for x in line3.points():
        assert line3.radius([x]) == line3.d(x, 0)


def test_segment_on_the_line(line3):
    assert line3.segment(0, 2).members == {0, 1, 2}
    assert line3.segment(0, 1).members == {0, 1}


def test_segment_triangle(tri):
    a, b = 1, 2
    assert tri.segment(a, b).members == {a, b}
    # 1 + 1 = 2 <= (3/2) / (3/4) = 2, so the base point enters at eps = 1/4
    assert tri.segment(a, b, Fraction(1, 4)).members == {0, a, b}


def test_segment_errors(line3):
    with pytest.raises(DegeneratePair):
        line3.segment(1, 1)
    with pytest.raises(EpsilonOutOfRange):
        line3.segment(0, 1, 1)
    with pytest.raises(EpsilonOutOfRange):
        line3.segment(0, 1, Fraction(-1, 2))


# every entry point taking an endpoint pair, called with `b` as a label and an index
PAIR_TAKERS = {
    "segment": lambda s: s.segment("b", 1),
    "Molecule.as_element": lambda s: Molecule(1, "b").as_element(s),
    "molecule_norming_function": lambda s: molecule_norming_function(s, "b", 1),
    "classify_molecule": lambda s: classify_molecule(s, 1, "b"),
    "normers_support_check": lambda s: normers_support_check(s, "b", 1),
}


@pytest.mark.parametrize("name", sorted(PAIR_TAKERS))
def test_a_pair_of_one_point_is_named_by_its_label(name):
    space = validate_space([[abs(i - j) for j in range(3)] for i in range(3)], labels="abc")
    with pytest.raises(DegeneratePair, match="^endpoints coincide: 'b'$"):
        PAIR_TAKERS[name](space)


@given(coords=st.lists(st.integers(0, 30), min_size=2, max_size=6, unique=True))
@settings(max_examples=60, deadline=None)
def test_segment_symmetry_and_monotonicity(coords):
    space = space_from_points(sorted(coords))
    eps_grid = [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]
    for p in space.points():
        for q in space.points():
            if p == q:
                continue
            assert space.segment(p, q).members == space.segment(q, p).members
            chain = [space.segment(p, q, eps).members for eps in eps_grid]
            for smaller, larger in zip(chain, chain[1:]):
                assert smaller <= larger


@given(coords=st.lists(st.integers(0, 30), min_size=2, max_size=6, unique=True))
@settings(max_examples=40, deadline=None)
def test_relaxed_segments_stabilize_to_exact(coords):
    # on a finite space some positive epsilon already gives the exact segment
    space = space_from_points(sorted(coords))
    for p in space.points():
        for q in space.points():
            if p == q:
                continue
            exact = space.segment(p, q).members
            eps = Fraction(1, 2)
            found = False
            for _ in range(40):
                if space.segment(p, q, eps).members == exact:
                    found = True
                    break
                eps = eps / 2
            assert found


_SPACE_FAMILIES = {
    "random": random_space,
    "line": random_line_subset,
    "uniform": lambda rng, n: uniform_space(n, random_rational(rng)),
    "coprime": coprime_space,
    "ultrametric": ultrametric_space,
}


@pytest.mark.parametrize("kind", sorted(_SPACE_FAMILIES))
def test_integer_segments_match_the_fraction_bound(kind):
    # the cross-multiplied integer test against d(p,x) + d(x,q) <= d(p,q) / (1 - eps)
    rng = random.Random(64)
    epsilons = [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(99, 100)]
    grew = 0
    for _ in range(10):
        space = _SPACE_FAMILIES[kind](rng, rng.randint(2, 9))
        for p, q in space.ordered_pairs():
            for eps in epsilons:
                members = space.segment(p, q, eps).members
                assert members == fraction_segment(space, p, q, eps)
            grew += members != space.segment(p, q).members
    # the loosest tolerance admits points the exact segment leaves out
    assert grew > 0


def test_duplicate_label_names_the_repeated_label():
    with pytest.raises(DuplicateLabel) as err:
        validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]], labels=["a", "b", "a"])
    assert err.value.label == "a"
    assert str(err.value) == "label 'a' appears more than once"


def test_wrong_label_count_is_a_value_error():
    with pytest.raises(ValueError) as err:
        validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]], labels=["a", "b"])
    assert not isinstance(err.value, DuplicateLabel)
    assert str(err.value) == "expected 3 labels, got 2"


def test_line_space_rejects_nonsquare():
    with pytest.raises(ValueError):
        validate_space([[0, 1], [1, 0, 2]])


def test_scaled_distances_are_the_distances_times_the_unit():
    space = validate_space(
        [
            [0, Fraction(1, 2), Fraction(2, 3)],
            [Fraction(1, 2), 0, Fraction(5, 7)],
            [Fraction(2, 3), Fraction(5, 7), 0],
        ]
    )
    twin = validate_space([[str(v) for v in row] for row in space.dist])
    unit, rows = space.scaled
    assert unit == 42
    assert all(isinstance(v, int) for row in rows for v in row)
    assert [[Fraction(v, unit) for v in row] for row in rows] == [list(r) for r in space.dist]
    # the stored field, so equality and hashing follow it
    assert space.__match_args__ == ("labels", "base", "scaled")
    assert space.scaled == twin.scaled
    assert space == twin and hash(space) == hash(twin)
    assert space_from_points([0, 2, 5]).scaled == (1, ((0, 2, 5), (2, 0, 3), (5, 3, 0)))


# the line subset {0, 1/2, 3/2}, in half units
_HALVES = [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
_WRITTEN = {
    "fractions": [[Fraction(v, 2) for v in row] for row in _HALVES],
    "strings": [[f"{v}/2" for v in row] for row in _HALVES],
    "decimals": [[f"{v // 2}.{5 * (v % 2)}" for v in row] for row in _HALVES],
    "ints": [[v // 2 if v % 2 == 0 else Fraction(v, 2) for v in row] for row in _HALVES],
    "unreduced": [[Fraction(2 * v, 4) for v in row] for row in _HALVES],
}


def test_spaces_from_the_same_distances_are_equal_and_hash_equal():
    spaces = [validate_space(matrix) for matrix in _WRITTEN.values()]
    assert {space.scaled for space in spaces} == {(2, tuple(map(tuple, _HALVES)))}
    assert all(space == spaces[0] and hash(space) == hash(spaces[0]) for space in spaces)
    # twice the distances is another space
    assert validate_space(_HALVES) != spaces[0]
    whole = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    for matrix in (
        whole,
        [["0", "1.0", "2"], ["1", "0", "1"], ["2/1", "1", "0"]],
        [[Fraction(2 * v, 2) for v in row] for row in whole],
    ):
        space = validate_space(matrix)
        assert space == line_space(3) and hash(space) == hash(line_space(3))


def test_a_random_space_is_the_space_of_its_own_distances(monkeypatch):
    # a closure may drop every weight that needed the whole unit of the
    # drawn weights; the checker then divides rows and unit by their gcd
    reduced, checker = [], generators._validated

    def spy(labels, base, unit, rows):
        space = checker(labels, base, unit, rows)
        reduced.append(space.scaled[0] < unit)
        return space

    monkeypatch.setattr(generators, "_validated", spy)
    rng = random.Random(26)
    for _ in range(40):
        space = random_space(rng, rng.randint(1, 10))
        again = validate_space(space.dist)
        assert space == again and hash(space) == hash(again)
    assert 0 < sum(reduced) < len(reduced)


def test_the_fraction_view_is_the_rows_over_the_unit_and_cached():
    space = random_space(random.Random(7), 9)
    assert "dist" not in space.__dict__
    # `d` reads one entry of `scaled` and leaves the view unbuilt
    assert type(space.d(2, 5)) is Fraction
    assert "dist" not in space.__dict__
    unit, rows = space.scaled
    view = space.dist
    assert all(type(v) is Fraction for row in view for v in row)
    assert view == tuple(tuple(Fraction(v, unit) for v in row) for row in rows)
    assert space.dist is view and "dist" in space.__dict__
    assert all(space.d(i, j) == view[i][j] for i in space.points() for j in space.points())


def _primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


def _coprime_matrix(n, extra=None):
    """Distances 2 + 1/p_ij with a distinct prime per pair (unit = their product).

    With `extra` = (a, c, b, q), d(a,b) becomes d(a,c) + d(c,b) + 1/q.
    """
    primes = iter(_primes(n * (n - 1) // 2))
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = 2 + Fraction(1, next(primes))
    if extra is not None:
        a, c, b, q = extra
        d[a][b] = d[b][a] = d[a][c] + d[c][b] + Fraction(1, q)
    return d


def _late_violation(n):
    """Distances 2 and 3 whose only violations are (n-2, n-3, n-1) and its mirror."""
    d = [[0 if i == j else 2 for j in range(n)] for i in range(n)]
    for j in range(n - 3):
        for end in (n - 2, n - 1):
            d[j][end] = d[end][j] = 3
    d[n - 2][n - 1] = d[n - 1][n - 2] = 5
    return d


def _two_three(n):
    """d(i,j) = 2 + (i + j) % 2 off the diagonal: a metric, since 3 <= 2 + 2."""
    return [[0 if i == j else 2 + (i + j) % 2 for j in range(n)] for i in range(n)]


def _planted(matrix, i, j, value):
    """A copy of `matrix` with d(i,j) = d(j,i) = value."""
    out = [list(row) for row in matrix]
    out[i][j] = out[j][i] = value
    return out


def _coprime_line(n, extra=None):
    """Points k + 1/p_k for the first n primes: the unit is their product, 87 digits at n = 48.

    With `extra` = (a, b, q), d(a,b) grows by 1/q.
    """
    matrix = fraction_line_matrix([k + Fraction(1, p) for k, p in enumerate(_primes(n))])
    if extra is not None:
        a, b, q = extra
        matrix = _planted(matrix, a, b, matrix[a][b] + Fraction(1, q))
    return matrix


TRIANGLE_CASES = {
    "negative": ([[0, -1], [-1, 0]], (0, 1, 0)),
    # the negative entry d(1,2) fails at (1,2,1), but (0,1,2) comes first
    "negative-far": ([[0, 1, 2], [1, 0, "-1/2"], [2, "-1/2", 0]], (0, 1, 2)),
    "equality": ([[0, "1/3", 1], ["1/3", 0, "2/3"], [1, "2/3", 0]], None),
    "equality-coprime": (
        [[0, "1/2", "5/6"], ["1/2", 0, "1/3"], ["5/6", "1/3", 0]],
        None,
    ),
    "coprime-violation": (
        [
            [0, "1/2", Fraction(5, 6) + Fraction(1, 1000003)],
            ["1/2", 0, "1/3"],
            [Fraction(5, 6) + Fraction(1, 1000003), "1/3", 0],
        ],
        (0, 1, 2),
    ),
    "coprime-large": (_coprime_matrix(9), None),
    "coprime-large-violation": (_coprime_matrix(9, (3, 7, 5, 1000003)), (3, 7, 5)),
    "last": (_late_violation(7), (5, 4, 6)),
    "one-point": ([[0]], None),
    "two-points": ([[0, "3/7"], ["3/7", 0]], None),
    "two-points-negative": ([[0, "-3/7"], ["-3/7", 0]], (0, 1, 0)),
    # n >= 48, where the packed rows span many machine words: a long last
    # pair first fails at the unordered pair (0, 46), a long first pair at
    # (0, 2), and a negative last pair at (0, 46) again
    "large-last-pair": (_planted(_two_three(48), 46, 47, 6), (46, 0, 47)),
    "large-first-pair": (_planted(_two_three(48), 0, 1, 6), (0, 2, 1)),
    "large-negative": (_planted(_two_three(48), 46, 47, -1), (0, 46, 47)),
    "large-coprime-line": (_coprime_line(48), None),
    "large-coprime-line-violation": (_coprime_line(48, (3, 40, 1000003)), (3, 4, 40)),
}


@pytest.mark.parametrize("name", sorted(TRIANGLE_CASES))
def test_triangle_violation_is_the_first_triple_over_fractions(name):
    matrix, triple = TRIANGLE_CASES[name]
    fractions = [[Fraction(v) for v in row] for row in matrix]
    # the case reaches the triple it was built for
    assert fraction_triangle_violation(fractions) == triple
    if triple is None:
        assert validate_space(matrix).dist == tuple(map(tuple, fractions))
        return
    with pytest.raises(TriangleViolation) as err:
        validate_space(matrix)
    assert (err.value.i, err.value.j, err.value.k) == triple


def test_a_violation_planted_at_any_pair_is_reported_as_the_first_triple():
    # each unordered pair of a 9-point space, made too long and then too short
    rng = random.Random(31)
    base = [list(row) for row in random_space(rng, 9).dist]
    planted = 0
    for i in range(9):
        for j in range(i + 1, 9):
            others = [k for k in range(9) if k not in (i, j)]
            detour = min(base[i][k] + base[k][j] for k in others)
            gap = max(abs(base[i][k] - base[j][k]) for k in others)
            values = [detour + Fraction(1, rng.randint(1, 9))]
            if gap > 0:
                values.append(gap * Fraction(rng.randint(1, 8), 9))
            for value in values:
                matrix = _planted(base, i, j, value)
                triple = fraction_triangle_violation(matrix)
                assert triple is not None
                with pytest.raises(TriangleViolation) as err:
                    validate_space(matrix)
                assert (err.value.i, err.value.j, err.value.k) == triple
                planted += 1
    assert planted > 36


RATIONAL_STRINGS = ["1", "6/5", "4/3", "3/2", "5/3", "7/4", "2", "5/2", "3", "4",
                    "1/7", "11/13", "-1/2", "0"]


@st.composite
def candidate_matrices(draw):
    """Symmetric matrices with a zero diagonal, some with entries then overwritten.

    An overwritten entry off the diagonal makes most of them asymmetric, one
    on it a nonzero diagonal, so every axiom can be the first one broken.
    """
    n = draw(st.integers(1, 5))
    entries = st.sampled_from(RATIONAL_STRINGS)
    matrix = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(entries)
    index = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=2)):
        matrix[i][j] = draw(entries)
    return matrix


def _reference_outcome(matrix):
    """What `validate_space` must give on a square matrix, by the axioms in its order."""
    n = len(matrix)
    fractions = [[Fraction(v) for v in row] for row in matrix]
    for i in range(n):
        for j in range(i + 1, n):
            if fractions[i][j] != fractions[j][i]:
                return AsymmetricDistance, AsymmetricDistance(i, j).args
    for i in range(n):
        if fractions[i][i] != 0:
            return ZeroDistanceDistinctPoints, ZeroDistanceDistinctPoints(i, i).args
        for j in range(i + 1, n):
            if fractions[i][j] == 0:
                return ZeroDistanceDistinctPoints, ZeroDistanceDistinctPoints(i, j).args
    triple = fraction_triangle_violation(fractions)
    if triple is not None:
        return TriangleViolation, TriangleViolation(*triple).args
    return tuple(map(tuple, fractions))


@given(matrix=candidate_matrices())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_validation_matches_the_fraction_reference(matrix):
    try:
        outcome = validate_space(matrix).dist
    except (AsymmetricDistance, ZeroDistanceDistinctPoints, TriangleViolation) as exc:
        outcome = type(exc), exc.args
    assert outcome == _reference_outcome(matrix)


def test_the_triangle_scan_runs_no_fraction_arithmetic(monkeypatch, tmp_path):
    # pins the cost shape: symmetry, separation and the triangle inequality
    # are checked on the integer rows of `space.scaled`, every builder hands
    # integer rows to the checker, a space file is written from those rows,
    # and none of it builds the Fraction view
    good = [list(row) for row in random_space(random.Random(5), 12).dist]
    bad = [row[:] for row in good]
    bad[3][8] = bad[8][3] = good[3][8] + 100
    path = tmp_path / "space.json"
    calls = []

    def forbid(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"Fraction.{name} called")

        monkeypatch.setattr(Fraction, name, called)

    for name in ("__add__", "__gt__", "__lt__", "__eq__"):
        forbid(name)
    for name in ("__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__abs__"):
        forbid(name)
    space = validate_space(good)
    with pytest.raises(TriangleViolation) as err:
        validate_space(bad)
    built = [
        space_from_points([Fraction(7, 3), 0, 5, "1/2"], base=1),
        line_space(9, Fraction(2, 3)),
        uniform_space(9, Fraction(5, 7)),
        random_line_subset(random.Random(5), 12),
    ]
    path.write_text(machine_dumps(space_payload(space)))
    loaded = load_space(path)
    monkeypatch.undo()
    assert calls == []
    assert all("dist" not in s.__dict__ for s in [space, loaded, *built])
    assert loaded == space
    assert (err.value.i, err.value.j, err.value.k) == fraction_triangle_violation(bad)


def test_random_space_matches_the_fraction_closure():
    # the integer closure draws the same weights and gives the same Fractions,
    # and the same integer form, record and hash as the Fraction matrix
    for seed, n in [(s, n) for s in range(5) for n in (1, 2, 3, 5, 8, 13, 24)] + [(5, 48)]:
        rng, reference = random.Random(seed), random.Random(seed)
        space = random_space(rng, n)
        expected = fraction_closure_matrix(reference, n)
        assert space.dist == tuple(map(tuple, expected))
        assert all(isinstance(v, Fraction) for row in space.dist for v in row)
        reference_space = validate_space(expected)
        assert space == reference_space and hash(space) == hash(reference_space)
        assert rng.getstate() == reference.getstate()


CUTOFF = metric.PACKED_CLOSURE_FROM
CLOSURE_SIZES = [CUTOFF - 1, CUTOFF, CUTOFF + 1, 48, 96]


def _weights(rng, n, draw):
    """A symmetric matrix with a zero diagonal and `draw(rng)` on each pair."""
    W = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            W[i][j] = W[j][i] = draw(rng)
    return W


# the weights random_space draws, over the unit 6, with many tight
# triangles; one weight everywhere, where no path through a third point is
# shorter, so no field changes; and multiples of 10**40 plus a small
# offset, whose fields are 18 bytes, so a field spans machine words
WEIGHT_DRAWS = {
    "random-space": lambda rng: rng.randint(1, 12) * 6 // rng.randint(1, 3),
    "all-equal": lambda rng: 7,
    "near-1e40": lambda rng: rng.randint(1, 12) * 10**40 + rng.randint(0, 10**12),
}


@pytest.mark.parametrize("kind", sorted(WEIGHT_DRAWS))
@pytest.mark.parametrize("n", CLOSURE_SIZES)
def test_the_packed_closure_equals_the_scalar_loop(monkeypatch, kind, n):
    # from the cutoff on, the full closure runs packed; pivots given as
    # every point run the scalar loop on the same matrix
    packed_runs, packed = [], metric._packed_closure
    spy = lambda W: packed_runs.append(len(W)) or packed(W)
    monkeypatch.setattr(metric, "_packed_closure", spy)
    W = _weights(random.Random(n), n, WEIGHT_DRAWS[kind])
    rows, drawn = list(W), [row[:] for row in W]
    expected = metric.floyd_warshall([row[:] for row in W], range(n))
    assert packed_runs == []
    assert metric.floyd_warshall(W) is W
    assert packed_runs == ([n] if n >= CUTOFF else [])
    assert W == expected and all(a is b for a, b in zip(W, rows))
    assert (W != drawn) == (kind != "all-equal")
    # W's own row lists come back closed: no path through a third point is shorter
    for row in W:
        for via, row_k in zip(row, W):
            assert all(via + d >= e for d, e in zip(row_k, row))


def test_a_closure_with_a_negative_arc_runs_the_scalar_loop(monkeypatch):
    # packed fields hold no negative value; the one negative arc 0 -> 1 closes no cycle
    monkeypatch.setattr(metric, "_packed_closure", None)
    W = _weights(random.Random(3), CUTOFF + 1, WEIGHT_DRAWS["random-space"])
    W[0][1] = -1
    closed = metric.floyd_warshall([row[:] for row in W])
    assert closed == metric.floyd_warshall([row[:] for row in W], range(len(W)))
    assert closed[0][1] == -1


@pytest.mark.parametrize("n", [CUTOFF - 1, CUTOFF, CUTOFF + 1, 48])
def test_a_random_space_is_the_same_on_either_loop(monkeypatch, n):
    for seed in range(3):
        packed = random_space(random.Random(seed), n)
        with monkeypatch.context() as scalar:
            scalar.setattr(metric, "PACKED_CLOSURE_FROM", n + 1)
            reference = random_space(random.Random(seed), n)
        assert packed.scaled == reference.scaled and hash(packed) == hash(reference)


def _points_reference(values, base=0):
    return validate_space(fraction_line_matrix(values), base=base)


def _line_reference(n, step=1):
    step = Fraction(step)
    return validate_space([[abs(i - j) * step for j in range(n)] for i in range(n)])


def _uniform_reference(n, c=1):
    c = Fraction(c)
    return validate_space([[Fraction(0) if i == j else c for j in range(n)] for i in range(n)])


# each builder, and `validate_space` of the Fraction matrix it once validated
REFERENCES = {
    space_from_points: _points_reference,
    line_space: _line_reference,
    uniform_space: _uniform_reference,
}
BUILDS = {
    "points": (space_from_points, [Fraction(7, 3), 0, 5, "1/2", "-3/4"], 3),
    "points-one": (space_from_points, ["2/3"]),
    "points-common-factor": (space_from_points, [0, 4, 10, Fraction(22, 3)]),
    "line": (line_space, 7, Fraction(5, 3)),
    "line-default": (line_space, 5),
    "line-one": (line_space, 1, "2/7"),
    "uniform": (uniform_space, 6, Fraction(4, 9)),
    "uniform-default": (uniform_space, 4),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_a_builder_gives_the_space_of_its_fraction_matrix(name):
    builder, *args = BUILDS[name]
    space, expected = builder(*args), REFERENCES[builder](*args)
    assert space == expected and hash(space) == hash(expected)
    assert space.dist == expected.dist


def test_a_random_line_subset_is_the_space_of_its_fraction_draw():
    # the draw in integer sixths takes the same numbers from the generator
    for seed in range(20):
        for n in (1, 2, 5, 9, 16):
            rng, reference = random.Random(seed), random.Random(seed)
            space = random_line_subset(rng, n)
            expected = validate_space(fraction_line_subset_matrix(reference, n))
            assert space == expected and hash(space) == hash(expected)
            assert rng.getstate() == reference.getstate()


FAULTY_BUILDS = {
    "duplicate-coordinates": (space_from_points, [0, "1/2", 3, Fraction(2, 4)]),
    "no-points": (space_from_points, []),
    "points-base": (space_from_points, [0, 1], 2),
    "zero-step": (line_space, 4, 0),
    "negative-step": (line_space, 4, "-1/3"),
    "zero-c": (uniform_space, 4, 0),
    "negative-c": (uniform_space, 4, Fraction(-2, 5)),
    "no-uniform-points": (uniform_space, 0),
}


@pytest.mark.parametrize("name", sorted(FAULTY_BUILDS))
def test_a_builder_raises_what_its_fraction_matrix_raises(name):
    builder, *args = FAULTY_BUILDS[name]
    with pytest.raises(SpaceValidationError) as expected:
        REFERENCES[builder](*args)
    with pytest.raises(SpaceValidationError) as got:
        builder(*args)
    assert type(got.value) is type(expected.value)
    assert got.value.args == expected.value.args


# a float is not exact and a bool is not a number: each builder reads its
# rational argument as `as_fraction` does, as a file loader would
UNREAD_BUILDS = {
    "float-step": (line_space, 4, 0.1),
    "bool-step": (line_space, 4, True),
    "float-c": (uniform_space, 3, 0.1),
    "bool-c": (uniform_space, 3, True),
}


@pytest.mark.parametrize("name", sorted(UNREAD_BUILDS))
def test_a_builder_rejects_a_float_or_a_bool(name):
    builder, *args = UNREAD_BUILDS[name]
    with pytest.raises(TypeError, match="expected int, Fraction or string"):
        builder(*args)


@pytest.mark.parametrize("builder", [line_space, uniform_space])
def test_a_builder_rejects_a_huge_exponent_before_expanding_it(builder):
    with pytest.raises(ValueError, match="decimal exponent"):
        builder(3, "1e10000000")


@st.composite
def values_and_rows(draw, square):
    """Small integer values and rows: arbitrary, negative entries included,
    or a line metric with a function on it that is often 1-Lipschitz."""
    k = draw(st.integers(1, 6))
    if square and draw(st.booleans()):
        coords = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
        rows = [[abs(a - b) for b in coords] for a in coords]
        values = [c + draw(st.sampled_from((0, 0, 0, 1, -1))) for c in coords]
        return values, rows
    m = k if square else draw(st.integers(1, 6))
    entries = st.integers(-5, 12)
    values = draw(st.lists(entries, min_size=k, max_size=k))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    return values, rows


@given(data=values_and_rows(square=True))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_steep_pair_is_the_first_pair_of_the_double_loop(data):
    values, rows = data
    n = len(values)
    pairs = [(x, y) for x in range(n) for y in range(n) if values[y] - rows[x][y] > values[x]]
    assert steep_pair(values, rows) == (pairs[0] if pairs else None)


@given(data=values_and_rows(square=False))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_min_plus_is_the_least_term_at_every_point(data):
    values, rows = data
    expected = [min(v + row[x] for v, row in zip(values, rows)) for x in range(len(rows[0]))]
    assert min_plus(values, rows) == expected
