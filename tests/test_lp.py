import random
import re
from fractions import Fraction

import pytest

from freelip import lp
from freelip.rationals import row_echelon
from oracles import FractionSimplex


def F(*args):
    return Fraction(*args)


def _same_as_reference(c, rows, free=()):
    """Solve on the integer and on the Fraction tableau.

    Taking the same pivots, both must end in the same basis with the same
    (status, value, x); a different tie-break shows in the basis first.
    """
    ours = lp._Simplex(list(c), list(rows), set(free))
    reference = FractionSimplex(list(c), list(rows), set(free))
    sol = ours.solve()
    assert sol == reference.solve()
    assert ours.basis == reference.basis
    return sol


def test_basic_maximization():
    sol = _same_as_reference(
        [F(1), F(1)],
        [([F(1), F(0)], lp.LEQ, F(2)), ([F(0), F(1)], lp.LEQ, F(3)), ([F(1), F(1)], lp.LEQ, F(4))],
    )
    assert sol.status == lp.OPTIMAL
    assert sol.value == 4


def test_free_variables():
    sol = _same_as_reference([F(-1)], [([F(-1)], lp.LEQ, F(3))], free=[0])
    assert sol.status == lp.OPTIMAL
    assert sol.value == 3
    assert sol.x == (F(-3),)


def test_equality_constraints_need_phase_one():
    sol = _same_as_reference(
        [F(3), F(2)],
        [([F(1), F(1)], lp.EQ, F(4)), ([F(1), F(-1)], lp.GEQ, F(0))],
    )
    assert sol.status == lp.OPTIMAL
    assert sol.value == 12
    assert sol.x == (F(4), F(0))


def test_infeasible_detection():
    sol = _same_as_reference([F(1)], [([F(1)], lp.GEQ, F(5)), ([F(1)], lp.LEQ, F(3))])
    assert sol.status == lp.INFEASIBLE
    with pytest.raises(RuntimeError):
        sol.require_optimal()


def test_unbounded_detection():
    sol = _same_as_reference([F(1)], [([F(-1)], lp.LEQ, F(0))])
    assert sol.status == lp.UNBOUNDED


def test_minimize_wrapper():
    sol = lp.minimize([F(2), F(3)], [([F(1), F(1)], lp.GEQ, F(2))])
    assert sol.status == lp.OPTIMAL
    assert sol.value == 4
    assert sol.x == (F(2), F(0))
    # minimizing -x over x >= 0 is unbounded, and the status passes through
    assert lp.minimize([F(-1)], [([F(-1)], lp.LEQ, F(0))]).status == lp.UNBOUNDED
    assert lp.minimize([F(1)], [([F(1)], lp.LEQ, F(-1))]).status == lp.INFEASIBLE


@pytest.mark.parametrize(
    "row, message",
    [
        (([F(1)], lp.LEQ, F(1)), "constraint length does not match objective"),
        (([F(1), F(1)], "<>", F(1)), "unknown relation '<>'"),
    ],
)
def test_malformed_rows_are_rejected(row, message):
    with pytest.raises(ValueError, match=message):
        lp.maximize([F(1), F(1)], [row])


@pytest.mark.parametrize("entry", [0.1, 0.0, True, False], ids=repr)
@pytest.mark.parametrize("where", ["c", "row", "rhs"])
def test_floats_and_bools_are_rejected(where, entry):
    c, coeffs, rhs = [F(1), F(1)], [F(1), F(0)], F(1)
    if where == "c":
        c[1] = entry
    elif where == "row":
        coeffs[1] = entry
    else:
        rhs = entry
    message = f"LP entry {re.escape(repr(entry))} is a {type(entry).__name__}"
    for solve in (lp.maximize, lp.minimize):
        with pytest.raises(TypeError, match=message):
            solve(c, [(coeffs, lp.LEQ, rhs)])


def test_a_float_no_longer_passes_as_its_binary_fraction():
    with pytest.raises(TypeError, match="LP entry 0.1 is a float, not an int or Fraction"):
        lp.maximize([1], [([0.1], lp.LEQ, 1)])


@pytest.mark.parametrize("free, outside", [([5], "[5]"), ([0, -1], "[-1]"), (range(3), "[1, 2]")])
def test_free_indices_out_of_range_are_rejected(free, outside):
    with pytest.raises(ValueError, match=f"free indices out of range: {re.escape(outside)}"):
        lp.maximize([F(1)], [([F(1)], lp.LEQ, F(2))], free=free)


def test_degenerate_cycling_example_terminates():
    # Chvatal's cycling instance; Bland's rule must reach the optimum
    sol = _same_as_reference(
        [F(10), F(-57), F(-9), F(-24)],
        [
            ([F(1, 2), F(-11, 2), F(-5, 2), F(9)], lp.LEQ, F(0)),
            ([F(1, 2), F(-3, 2), F(-1, 2), F(1)], lp.LEQ, F(0)),
            ([F(1), F(0), F(0), F(0)], lp.LEQ, F(1)),
        ],
    )
    assert sol.status == lp.OPTIMAL
    assert sol.value == 1
    assert sol.x == (F(1), F(0), F(1), F(0))


def test_redundant_equalities_are_dropped():
    # duplicated equality rows leave a basic artificial to evict
    sol = _same_as_reference(
        [F(1), F(1)],
        [
            ([F(1), F(1)], lp.EQ, F(2)),
            ([F(2), F(2)], lp.EQ, F(4)),
            ([F(1), F(0)], lp.LEQ, F(1)),
        ],
    )
    assert sol.status == lp.OPTIMAL
    assert sol.value == 2


def test_solution_satisfies_constraints_exactly():
    rng = random.Random(42)
    for _ in range(150):
        nvars = rng.randint(1, 5)
        nrows = rng.randint(1, 6)
        c = [F(rng.randint(-6, 6)) for _ in range(nvars)]
        rows = []
        for _ in range(nrows):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(nvars)]
            rows.append((coeffs, lp.LEQ, F(rng.randint(0, 12))))
        # box to keep it bounded
        for j in range(nvars):
            e = [F(0)] * nvars
            e[j] = F(1)
            rows.append((e, lp.LEQ, F(10)))
        sol = lp.maximize(c, rows)
        assert sol.status == lp.OPTIMAL
        for coeffs, rel, rhs in rows:
            lhs = sum(a * v for a, v in zip(coeffs, sol.x))
            assert lhs <= rhs
        assert sum(a * v for a, v in zip(c, sol.x)) == sol.value


def test_against_scipy_on_random_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(7)
    for trial in range(120):
        nvars = rng.randint(1, 5)
        nrows = rng.randint(1, 6)
        free = {j for j in range(nvars) if rng.random() < 0.4}
        c = [F(rng.randint(-6, 6)) for _ in range(nvars)]
        rows = []
        for _ in range(nrows):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(nvars)]
            rel = rng.choice((lp.LEQ, lp.GEQ))
            rhs = F(rng.randint(-3, 12)) if rel == lp.LEQ else F(rng.randint(-12, 3))
            rows.append((coeffs, rel, rhs))
        for j in range(nvars):
            e = [F(0)] * nvars
            e[j] = F(1)
            rows.append((e, lp.LEQ, F(10)))
            if j in free:
                rows.append((e, lp.GEQ, F(-10)))
        sol = lp.maximize(c, rows, free=free)

        a_ub, b_ub = [], []
        for coeffs, rel, rhs in rows:
            if rel == lp.LEQ:
                a_ub.append([float(v) for v in coeffs])
                b_ub.append(float(rhs))
            else:
                a_ub.append([-float(v) for v in coeffs])
                b_ub.append(-float(rhs))
        bounds = [(None, None) if j in free else (0, None) for j in range(nvars)]
        ref = scipy_opt.linprog(
            [-float(v) for v in c], A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
        )
        if sol.status == lp.OPTIMAL:
            assert ref.status == 0, f"trial {trial}: scipy disagrees on feasibility"
            assert abs(float(sol.value) + ref.fun) <= 1e-7
        elif sol.status == lp.INFEASIBLE:
            assert ref.status == 2
        else:
            assert ref.status == 3


def test_equality_instances_against_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(8)
    for _ in range(60):
        nvars = rng.randint(2, 5)
        nrows = rng.randint(1, 3)
        c = [F(rng.randint(-5, 5)) for _ in range(nvars)]
        x0 = [F(rng.randint(0, 5)) for _ in range(nvars)]  # feasible by construction
        rows = []
        eq_data = []
        for _ in range(nrows):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(nvars)]
            rhs = sum(a * v for a, v in zip(coeffs, x0))
            rows.append((coeffs, lp.EQ, rhs))
            eq_data.append((coeffs, rhs))
        rows.append(([F(1)] * nvars, lp.LEQ, F(50)))
        sol = lp.maximize(c, rows)
        assert sol.status == lp.OPTIMAL
        ref = scipy_opt.linprog(
            [-float(v) for v in c],
            A_eq=[[float(v) for v in coeffs] for coeffs, _ in eq_data],
            b_eq=[float(r) for _, r in eq_data],
            A_ub=[[1.0] * nvars],
            b_ub=[50.0],
            bounds=[(0, None)] * nvars,
            method="highs",
        )
        assert ref.status == 0
        assert abs(float(sol.value) + ref.fun) <= 1e-7


def _fraction_rank(rows):
    """Reference rank by plain Gaussian elimination over Fractions."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_row_echelon_rank_and_shape():
    rng = random.Random(9)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        basis = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(3)]
        # rows mixed from three random rows, so the rank is often deficient
        rows = [
            [sum((rng.randint(-2, 2) * b[j] for b in basis), F(0)) for j in range(ncols)]
            for _ in range(nrows)
        ]
        echelon, pivots = row_echelon(rows)
        assert len(echelon) == len(pivots) == _fraction_rank(rows)
        assert pivots == sorted(set(pivots))
        for k, (row, col) in enumerate(zip(echelon, pivots)):
            assert all(v == 0 for v in row[:col]) and row[col] != 0
            assert all(other[col] == 0 for other in echelon[k + 1 :])


# -- the integer tableau against the Fraction tableau -------------------

_COPRIME = (1, 2, 3, 5, 7, 11, 13)
_MIRROR = {lp.LEQ: lp.GEQ, lp.GEQ: lp.LEQ, lp.EQ: lp.EQ}


def _random_lp(rng, dens=(1, 2, 3), free_share=0.0, redundant_share=0.0, rhs=range(-6, 13)):
    nvars = rng.randint(1, 6)
    free = [j for j in range(nvars) if rng.random() < free_share]
    c = [F(rng.randint(-6, 6), rng.choice(dens)) for _ in range(nvars)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [
            F(rng.randint(-4, 4), rng.choice(dens)) if rng.random() < 0.7 else F(0)
            for _ in range(nvars)
        ]
        rel = rng.choice((lp.LEQ, lp.GEQ, lp.EQ))
        rows.append((coeffs, rel, F(rng.choice(rhs), rng.choice(dens))))
        if rng.random() < redundant_share:
            # a multiple of the row just drawn, possibly of opposite sign
            k = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(dens))
            rel = rel if k > 0 else _MIRROR[rel]
            rows.append(([k * a for a in coeffs], rel, k * rows[-1][2]))
    return c, rows, free


_CORPORA = pytest.mark.parametrize(
    "corpus",
    [
        dict(),
        dict(free_share=0.4),
        dict(redundant_share=0.4),
        dict(dens=_COPRIME),
        dict(dens=_COPRIME, free_share=0.3, redundant_share=0.3),
        # mostly zero right-hand sides: degenerate pivots and ratio ties
        dict(rhs=(0, 0, 0, 1, 2)),
    ],
    ids=["plain", "free", "redundant", "coprime", "mixed", "degenerate"],
)


@_CORPORA
def test_integer_tableau_matches_the_fraction_tableau(corpus):
    rng = random.Random(11)
    statuses = set()
    for _ in range(400):
        statuses.add(_same_as_reference(*_random_lp(rng, **corpus)).status)
    # every corpus reaches all three outcomes, so each path is compared
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def _ints_where_integral(c, rows):
    exact = lambda v: v.numerator if v.denominator == 1 else v
    return [exact(v) for v in c], [([exact(v) for v in a], rel, exact(b)) for a, rel, b in rows]


@_CORPORA
def test_integral_entries_given_as_ints_solve_alike(corpus):
    rng = random.Random(13)
    ints = 0
    for _ in range(400):
        c, rows, free = _random_lp(rng, **corpus)
        int_c, int_rows = _ints_where_integral(c, rows)
        ours = lp._Simplex(int_c, int_rows, set(free))
        reference = lp._Simplex(list(c), list(rows), set(free))
        sol = ours.solve()
        assert sol == reference.solve()
        assert ours.basis == reference.basis
        # Fractions come back whatever the entries were
        if sol.status == lp.OPTIMAL:
            assert type(sol.value) is Fraction and {type(v) for v in sol.x} == {Fraction}
        ints += sum(type(v) is int for a, _, b in int_rows for v in a + [b])
    assert ints > 0


def test_integer_tableau_on_bounded_feasible_instances():
    # feasible by construction (x0 satisfies every row) and boxed, so every
    # instance is optimal and the whole pivot path shows up in x
    rng = random.Random(12)
    for _ in range(200):
        nvars = rng.randint(2, 6)
        x0 = [F(rng.randint(0, 5), rng.choice(_COPRIME)) for _ in range(nvars)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [F(rng.randint(-4, 4), rng.choice(_COPRIME)) for _ in range(nvars)]
            lhs = sum(a * v for a, v in zip(coeffs, x0))
            rows.append((coeffs, rng.choice((lp.LEQ, lp.GEQ, lp.EQ)), lhs))
        rows.append(([F(1)] * nvars, lp.LEQ, F(40)))
        c = [F(rng.randint(-5, 5), rng.choice(_COPRIME)) for _ in range(nvars)]
        assert _same_as_reference(c, rows).status == lp.OPTIMAL


def test_beale_cycling_example_matches_reference():
    # Beale (1955): the classic cycling example under the textbook rule
    sol = _same_as_reference(
        [F(3, 4), F(-20), F(1, 2), F(-6)],
        [
            ([F(1, 4), F(-8), F(-1), F(9)], lp.LEQ, F(0)),
            ([F(1, 2), F(-12), F(-1, 2), F(3)], lp.LEQ, F(0)),
            ([F(0), F(0), F(1), F(0)], lp.LEQ, F(1)),
        ],
    )
    assert sol.status == lp.OPTIMAL
    assert sol.value == F(5, 4)
    assert sol.x == (F(1), F(0), F(1), F(0))


def test_eviction_pivots_on_a_negative_entry(monkeypatch):
    # -x + y = 0 and x - y = 0 leave phase 1 at once with both artificials
    # basic; evicting the first pivots on its -1, and the second row
    # becomes 0 = 0 and is dropped
    pivots = []
    pivot = lp._Simplex._pivot

    def spy(self, i, j, r):
        pivots.append(self.A[i][j])
        return pivot(self, i, j, r)

    monkeypatch.setattr(lp._Simplex, "_pivot", spy)
    c = [F(1, 3), F(1, 2)]
    rows = [
        ([F(-1), F(1)], lp.EQ, F(0)),
        ([F(1), F(-1)], lp.EQ, F(0)),
        ([F(1, 2), F(1, 3)], lp.LEQ, F(5, 7)),
    ]
    sol = _same_as_reference(c, rows)
    assert any(v < 0 for v in pivots)
    assert sol.status == lp.OPTIMAL
    assert sol.value == F(5, 7)
    assert sol.x == (F(6, 7), F(6, 7))
