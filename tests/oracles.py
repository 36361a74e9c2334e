"""Retired LP formulations, kept as independent test oracles.

The library computes norms from one min-cost flow and reads the norming
functions off that flow by shortest paths.  These are the formulations it
used before: the dense dual LP over the 1-Lipschitz ball, and one probe LP
per value and per slope over the optimal face of that dual LP.  They share
nothing with the library but the generic simplex.
"""

from fractions import Fraction

from freelip import lp

_ZERO = Fraction(0)


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
