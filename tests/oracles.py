"""Retired LP formulations, kept as independent test oracles.

The library computes norms from one min-cost flow and reads the norming
functions off that flow by shortest paths.  These are the formulations it
used before: the dense dual LP over the 1-Lipschitz ball, and one probe LP
per value and per slope over the optimal face of that dual LP.  They share
nothing with the library but the generic simplex.

The generic simplex has a reference here too: the same two-phase
Bland's-rule simplex on a Fraction tableau.  `lp` runs it on a
fraction-free integer tableau, and the two must take the same pivots and
return the same (status, value, x).
"""

from fractions import Fraction

from freelip import lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FractionSimplex:
    """`lp._Simplex` with every row normalised to Fractions at each pivot."""

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
            if rel == lp.GEQ:
                row = [-a for a in row]
                rhs = -rhs
                rel = lp.LEQ
            if rel == lp.LEQ:
                slack = 1
            elif rel == lp.EQ:
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
                return lp.OPTIMAL, value
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
                return lp.UNBOUNDED, None
            value = self._pivot(leave, enter, r, value)

    # -- driver ---------------------------------------------------------

    def solve(self) -> lp.LPSolution:
        if self.art_cols:
            cost1 = [_ZERO] * self.ncols
            for j in self.art_cols:
                cost1[j] = Fraction(-1)
            r, value = self._reduced_costs(cost1)
            status, value = self._run(r, value, set())
            # phase 1 is always bounded (objective <= 0)
            if value != 0:
                return lp.LPSolution(lp.INFEASIBLE, None, None)
            self._evict_artificials()

        cost2 = self.c_ext + [_ZERO] * (self.ncols - self.nstruct)
        r, value = self._reduced_costs(cost2)
        status, value = self._run(r, value, self.art_cols)
        if status == lp.UNBOUNDED:
            return lp.LPSolution(lp.UNBOUNDED, None, None)
        return lp.LPSolution(lp.OPTIMAL, value, self._solution())

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


def dual_rows(space, nodes):
    """Slope constraints f(x) - f(y) <= d(x,y) over ordered node pairs.

    Returns the variable index of each non-base node and the LP rows.
    """
    base = space.base
    var_of = {p: i for i, p in enumerate(q for q in nodes if q != base)}
    nvars = len(var_of)
    rows = []
    for x in nodes:
        for y in nodes:
            if x == y:
                continue
            coeffs = [_ZERO] * nvars
            if x != base:
                coeffs[var_of[x]] += 1
            if y != base:
                coeffs[var_of[y]] -= 1
            rows.append((coeffs, lp.LEQ, space.d(x, y)))
    return var_of, rows


def pairing_objective(mu, var_of):
    objective = [_ZERO] * len(var_of)
    for p, a in mu.items:
        objective[var_of[p]] = a
    return objective


def dual_lp_norm(mu, nodes) -> Fraction:
    """max <mu, f> over functions 1-Lipschitz on `nodes` (base and support included)."""
    var_of, rows = dual_rows(mu.space, nodes)
    objective = pairing_objective(mu, var_of)
    return lp.maximize(objective, rows, free=range(len(var_of))).require_optimal().value


def normers_by_probes(mu):
    """(value, fixed_values, shared_tight_pairs) by one LP per probe.

    Solves the dual LP over the whole space, then bounds every non-base
    value and every slope tight at that optimum over the optimal face.
    """
    space = mu.space
    var_of, rows = dual_rows(space, range(space.n))
    nvars = len(var_of)
    free = range(nvars)
    objective = pairing_objective(mu, var_of)
    sol = lp.maximize(objective, rows, free=free).require_optimal()
    face_rows = rows + [(objective, lp.EQ, sol.value)]
    values = {p: sol.x[i] for p, i in var_of.items()}
    values[space.base] = _ZERO

    fixed = {}
    for p, i in var_of.items():
        probe = [_ZERO] * nvars
        probe[i] = Fraction(1)
        hi = lp.maximize(probe, face_rows, free=free).require_optimal()
        lo = lp.minimize(probe, face_rows, free=free).require_optimal()
        if hi.value == lo.value:
            fixed[p] = hi.value

    shared = set()
    for x, y in space.ordered_pairs():
        if values[x] - values[y] != space.d(x, y):
            continue  # not tight at one optimum, so not tight on the face
        probe = [_ZERO] * nvars
        if x != space.base:
            probe[var_of[x]] += 1
        if y != space.base:
            probe[var_of[y]] -= 1
        lo = lp.minimize(probe, face_rows, free=free).require_optimal()
        if lo.value == space.d(x, y):
            shared.add((x, y))
    return sol.value, fixed, frozenset(shared)
