"""Exact linear programming over the rationals, kept as an oracle.

A dense two-phase simplex with exact pivoting and Bland's anticycling rule.
The library core solves no LP: norms come from the min-cost-flow solver in
`norms`.  Only the brute-force oracles in `checks` and the tests use this
module, as a generic solver that shares nothing with the routes they check.
Degenerate optima are the normal case in the oracle problems (faces,
extremality), so every pivot is exact: a solution is either exactly optimal
or the solver keeps pivoting.  The tableau is fraction-free, as in
Bareiss (1968), but each row is kept divided by the gcd of its entries
instead of by Bareiss's exact divisor: a cell update is an integer
multiply-subtract, and only the solution is returned as Fractions.

Problems are stated as: maximize c . x subject to rows (coeffs, rel, rhs)
with rel one of "<=", ">=", "==".  Variables are nonnegative unless listed
in `free`, in which case they are split internally.  Every entry of c, of
a row and of an rhs is an int or a Fraction and is used as it is; a float
or a bool raises TypeError, as everywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .rationals import eliminate, primitive, scale_to_integers
from .records import record

LEQ = "<="
GEQ = ">="
EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


def _exact(a):
    if type(a) is not int and type(a) is not Fraction:
        raise TypeError(f"LP entry {a!r} is a {type(a).__name__}, not an int or Fraction")
    return a


@record
class LPSolution:
    status: str
    value: Fraction | None
    x: tuple[Fraction, ...] | None

    def require_optimal(self) -> "LPSolution":
        if self.status != OPTIMAL:
            raise RuntimeError(f"expected an optimal LP solution, got {self.status}")
        return self


def maximize(
    c: Sequence[int | Fraction],
    rows: Iterable[tuple[Sequence[int | Fraction], str, int | Fraction]],
    free: Iterable[int] = (),
) -> LPSolution:
    """Solve max c.x subject to the given rows; see module docstring."""
    return _Simplex(list(c), list(rows), set(free)).solve()


def minimize(
    c: Sequence[int | Fraction],
    rows: Iterable[tuple[Sequence[int | Fraction], str, int | Fraction]],
    free: Iterable[int] = (),
) -> LPSolution:
    sol = maximize([-_exact(v) for v in c], rows, free)
    if sol.status != OPTIMAL:
        return sol
    return LPSolution(OPTIMAL, -sol.value, sol.x)


class _Simplex:
    """Dense two-phase simplex on a fraction-free integer tableau.

    Each row of A is a list of integers with the rhs in its last column.
    The row's entry in its basic column is its positive scale: the rational
    tableau row is the integer row divided by it, so the basic variable
    equals rhs / scale.  Rows are kept divided by the gcd of their entries
    (`rationals.primitive`), and a pivot eliminates with
    `rationals.eliminate`, the step of `rationals.row_echelon` too.  The
    reduced-cost row is the same kind of integer row (its rhs column holds
    minus the objective value) followed by its own positive scale.
    """

    def __init__(self, c, rows, free):
        self.nvars = len(c)
        outside = free.difference(range(self.nvars))
        if outside:
            raise ValueError(f"free indices out of range: {sorted(outside)}")
        # split free variables into nonnegative pairs
        self.col_of: list[tuple[int, int | None]] = []
        ncols = 0
        for j in range(self.nvars):
            if j in free:
                self.col_of.append((ncols, ncols + 1))
                ncols += 2
            else:
                self.col_of.append((ncols, None))
                ncols += 1
        self.nstruct = ncols
        self.c_ext = self._extend(c)

        self.A: list[list[int]] = []
        self.basis: list[int] = []
        self.art_cols: set[int] = set()
        self._build(rows)

    def _extend(self, coeffs) -> list[int | Fraction]:
        row = [0] * self.nstruct
        for j, a in enumerate(coeffs):
            if _exact(a) == 0:
                continue
            pos, neg = self.col_of[j]
            row[pos] = a
            if neg is not None:
                row[neg] = -a
        return row

    def _build(self, rows):
        # first pass: slack-augmented equations, rhs made nonnegative
        pending = []  # (ext_row, rhs, slack_sign or 0)
        for coeffs, rel, rhs in rows:
            if len(coeffs) != self.nvars:
                raise ValueError("constraint length does not match objective")
            row = self._extend(coeffs)
            rhs = _exact(rhs)
            if rel == GEQ:
                row = [-a for a in row]
                rhs = -rhs
                rel = LEQ
            if rel == LEQ:
                slack = 1
            elif rel == EQ:
                slack = 0
            else:
                raise ValueError(f"unknown relation {rel!r}")
            if rhs < 0:
                row = [-a for a in row]
                rhs = -rhs
                slack = -slack
            pending.append((row, rhs, slack))

        nslack = sum(1 for _, _, s in pending if s != 0)
        nart = sum(1 for _, _, s in pending if s != 1)
        total = self.nstruct + nslack + nart
        slack_at = self.nstruct
        art_at = self.nstruct + nslack

        for row, rhs, slack in pending:
            den, ints = scale_to_integers(row + [rhs])
            full = ints[:-1] + [0] * (nslack + nart) + ints[-1:]
            if slack != 0:
                full[slack_at] = slack * den
                basic = slack_at if slack == 1 else None
                slack_at += 1
            else:
                basic = None
            if basic is None:
                full[art_at] = den
                self.art_cols.add(art_at)
                basic = art_at
                art_at += 1
            self.A.append(primitive(full))
            self.basis.append(basic)
        self.ncols = total

    # -- tableau mechanics ---------------------------------------------

    def _pivot(self, i: int, j: int, r: list[int] | None) -> None:
        """Make column j basic in row i, eliminating it from r too if given.

        A negative pivot, which only evicting an artificial meets (on a row
        whose rhs is 0), negates row i first.  Rows with a zero in column j
        are left as they are.
        """
        A = self.A
        row = A[i]
        if row[j] < 0:
            row = A[i] = [-v for v in row]
        for k, other in enumerate(A):
            if k != i and other[j] != 0:
                A[k] = eliminate(other, row, j)
        if r is not None and r[j] != 0:
            r[:] = eliminate(r, row, j)
        self.basis[i] = j

    def _reduced_costs(self, cost: list[int | Fraction]) -> list[int]:
        """The cost row with every basic column eliminated.

        Its reduced costs have the signs of r[:ncols], and the objective
        value of the basic solution is -r[-2] / r[-1].
        """
        den, r = scale_to_integers(cost)
        r += [0, den]
        for i, col in enumerate(self.basis):
            if r[col] != 0:
                r = eliminate(r, self.A[i], col)
        return r

    def _run(self, r: list[int], blocked: set[int]) -> str:
        """Bland's rule: smallest improving column, smallest basic on ties.

        The ratio rhs / a of a row is the same at every scale of the row, so
        ratios are compared by cross-multiplying integer entries.
        """
        A, basis = self.A, self.basis
        while True:
            enter = -1
            for j in range(self.ncols):
                if r[j] > 0 and j not in blocked:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best_b = best_a = 0
            for i, row in enumerate(A):
                a = row[enter]
                if a > 0:
                    b = row[-1]
                    if leave >= 0:
                        lhs, rhs = b * best_a, best_b * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    best_b, best_a, leave = b, a, i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter, r)

    # -- driver ---------------------------------------------------------

    def solve(self) -> LPSolution:
        if self.art_cols:
            cost1 = [0] * self.ncols
            for j in self.art_cols:
                cost1[j] = -1
            r = self._reduced_costs(cost1)
            self._run(r, set())
            # phase 1 is always bounded (objective <= 0)
            if r[-2] != 0:
                return LPSolution(INFEASIBLE, None, None)
            self._evict_artificials()

        cost2 = self.c_ext + [0] * (self.ncols - self.nstruct)
        r = self._reduced_costs(cost2)
        if self._run(r, self.art_cols) == UNBOUNDED:
            return LPSolution(UNBOUNDED, None, None)
        return LPSolution(OPTIMAL, Fraction(-r[-2], r[-1]), self._solution())

    def _evict_artificials(self):
        """Pivot basic artificials out (value 0) and drop redundant rows."""
        keep = []
        for i in range(len(self.A)):
            if self.basis[i] not in self.art_cols:
                keep.append(i)
                continue
            target = -1
            for j in range(self.ncols):
                if j not in self.art_cols and self.A[i][j] != 0:
                    target = j
                    break
            if target >= 0:
                self._pivot(i, target, None)
                keep.append(i)
            # else: the row is 0 = 0 across structural columns; drop it
        if len(keep) != len(self.A):
            self.A = [self.A[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]

    def _solution(self) -> tuple[Fraction, ...]:
        ext = [_ZERO] * self.ncols
        for row, col in zip(self.A, self.basis):
            ext[col] = Fraction(row[-1], row[col])
        out = []
        for j in range(self.nvars):
            pos, neg = self.col_of[j]
            out.append(ext[pos] - ext[neg] if neg is not None else ext[pos])
        return tuple(out)
