"""Exact linear programming over the rationals, kept as an oracle.

A dense two-phase simplex with exact pivoting and Bland's anticycling rule.
The library core solves no LP: norms come from the min-cost-flow solver in
`norms`.  Only the brute-force oracles in `checks` and the tests use this
module, as a generic solver that shares nothing with the routes they check.
Degenerate optima are the normal case in the oracle problems (faces,
extremality), so everything is Fraction arithmetic: a solution is either
exactly optimal or the solver keeps pivoting.

Problems are stated as: maximize c . x subject to rows (coeffs, rel, rhs)
with rel one of "<=", ">=", "==".  Variables are nonnegative unless listed
in `free`, in which case they are split internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

LEQ = "<="
GEQ = ">="
EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: Fraction | None
    x: tuple[Fraction, ...] | None

    def require_optimal(self) -> "LPSolution":
        if self.status != OPTIMAL:
            raise RuntimeError(f"expected an optimal LP solution, got {self.status}")
        return self


def maximize(
    c: Sequence[Fraction],
    rows: Iterable[tuple[Sequence[Fraction], str, Fraction]],
    free: Iterable[int] = (),
) -> LPSolution:
    """Solve max c.x subject to the given rows; see module docstring."""
    return _Simplex(list(c), list(rows), set(free)).solve()


def minimize(
    c: Sequence[Fraction],
    rows: Iterable[tuple[Sequence[Fraction], str, Fraction]],
    free: Iterable[int] = (),
) -> LPSolution:
    sol = maximize([-v for v in c], rows, free)
    if sol.status != OPTIMAL:
        return sol
    return LPSolution(OPTIMAL, -sol.value, sol.x)


class _Simplex:
    def __init__(self, c, rows, free):
        self.nvars = len(c)
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

        self.A: list[list[Fraction]] = []
        self.b: list[Fraction] = []
        self.basis: list[int] = []
        self.art_cols: set[int] = set()
        self._build(rows)

    def _extend(self, coeffs) -> list[Fraction]:
        row = [_ZERO] * self.nstruct
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            a = Fraction(a)
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
            rhs = Fraction(rhs)
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
            full = row + [_ZERO] * (nslack + nart)
            if slack != 0:
                full[slack_at] = Fraction(slack)
                basic = slack_at if slack == 1 else None
                slack_at += 1
            else:
                basic = None
            if basic is None:
                full[art_at] = _ONE
                self.art_cols.add(art_at)
                basic = art_at
                art_at += 1
            self.A.append(full)
            self.b.append(rhs)
            self.basis.append(basic)
        self.ncols = total

    # -- tableau mechanics ---------------------------------------------

    def _pivot(self, i: int, j: int, r: list[Fraction], value: Fraction) -> Fraction:
        A, b = self.A, self.b
        piv = A[i][j]
        if piv != 1:
            inv = _ONE / piv
            A[i] = [v * inv for v in A[i]]
            b[i] = b[i] * inv
        row, bi = A[i], b[i]
        for k in range(len(A)):
            if k != i:
                f = A[k][j]
                if f != 0:
                    A[k] = [x - f * y for x, y in zip(A[k], row)]
                    b[k] = b[k] - f * bi
        f = r[j]
        if f != 0:
            r[:] = [x - f * y for x, y in zip(r, row)]
            value = value + f * bi
        self.basis[i] = j
        return value

    def _reduced_costs(self, cost: list[Fraction]) -> tuple[list[Fraction], Fraction]:
        r = list(cost)
        value = _ZERO
        for i, col in enumerate(self.basis):
            cb = cost[col]
            if cb != 0:
                row = self.A[i]
                r = [x - cb * y for x, y in zip(r, row)]
                value = value + cb * self.b[i]
        return r, value

    def _run(self, r: list[Fraction], value: Fraction, blocked: set[int]):
        """Bland's rule: smallest improving column, smallest basic on ties."""
        A, b, basis = self.A, self.b, self.basis
        m = len(A)
        while True:
            enter = -1
            for j in range(self.ncols):
                if r[j] > 0 and j not in blocked:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, value
            leave = -1
            best = None
            for i in range(m):
                aij = A[i][enter]
                if aij > 0:
                    ratio = b[i] / aij
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED, None
            value = self._pivot(leave, enter, r, value)

    # -- driver ---------------------------------------------------------

    def solve(self) -> LPSolution:
        if self.art_cols:
            cost1 = [_ZERO] * self.ncols
            for j in self.art_cols:
                cost1[j] = Fraction(-1)
            r, value = self._reduced_costs(cost1)
            status, value = self._run(r, value, set())
            # phase 1 is always bounded (objective <= 0)
            if value != 0:
                return LPSolution(INFEASIBLE, None, None)
            self._evict_artificials()

        cost2 = self.c_ext + [_ZERO] * (self.ncols - self.nstruct)
        r, value = self._reduced_costs(cost2)
        status, value = self._run(r, value, self.art_cols)
        if status == UNBOUNDED:
            return LPSolution(UNBOUNDED, None, None)
        return LPSolution(OPTIMAL, value, self._solution())

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
                dummy = [_ZERO] * self.ncols
                self._pivot(i, target, dummy, _ZERO)
                keep.append(i)
            # else: the row is 0 = 0 across structural columns; drop it
        if len(keep) != len(self.A):
            self.A = [self.A[i] for i in keep]
            self.b = [self.b[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]

    def _solution(self) -> tuple[Fraction, ...]:
        ext = [_ZERO] * self.ncols
        for i, col in enumerate(self.basis):
            ext[col] = self.b[i]
        out = []
        for j in range(self.nvars):
            pos, neg = self.col_of[j]
            out.append(ext[pos] - ext[neg] if neg is not None else ext[pos])
        return tuple(out)
