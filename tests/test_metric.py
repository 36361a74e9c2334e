from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelip.errors import (
    AsymmetricDistance,
    BadBaseIndex,
    DegeneratePair,
    EmptySet,
    EpsilonOutOfRange,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from freelip.metric import space_from_points, validate_space


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


def test_negative_distance_is_a_triangle_violation():
    with pytest.raises(TriangleViolation):
        validate_space([[0, -1], [-1, 0]])


def test_distance_to_set(line3):
    assert line3.distance_to_set(2, [0, 1]) == 1
    assert line3.distance_to_set(0, [1, 2]) == 1
    assert line3.distance_to_set(1, [0, 1]) == 0
    with pytest.raises(EmptySet):
        line3.distance_to_set(0, [])


def test_radius(line3):
    assert line3.radius([1, 2]) == 2
    assert line3.radius([]) == 0
    assert line3.radius([0]) == 0
    for x in line3.points():
        assert line3.radius([x]) == line3.d(x, 0) == line3.distance_to_set(x, [0])


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


def test_ball(line3):
    assert line3.ball(0, 1) == {0, 1}
    assert line3.ball(1, 1) == {0, 1, 2}
    assert line3.ball(2, 0) == {2}


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
    # cached, and not part of equality or hashing
    assert space.scaled is space.scaled
    assert space == twin and hash(space) == hash(twin)
    assert space_from_points([0, 2, 5]).scaled == (1, ((0, 2, 5), (2, 0, 3), (5, 3, 0)))
