"""Output checks that hold for whichever optimal witness the program returns.

They use only the distance matrix and exact Fractions, never the solver
under test, so a wrong certificate cannot vouch for itself.
"""

from __future__ import annotations

from fractions import Fraction


def is_one_lipschitz(space, values) -> bool:
    n = space.n
    return all(
        abs(values[x] - values[y]) <= space.d(x, y) for x in range(n) for y in range(x + 1, n)
    )


def norm_certificate_problems(mu, value, witness_values, decomposition) -> list[str]:
    """Weak duality, checked exactly.

    A 1-Lipschitz function vanishing at the base with pairing ``value``
    shows norm >= value; a molecule decomposition that rebuilds ``mu`` with
    total weight ``value`` shows norm <= value.
    """
    space = mu.space
    problems = []
    if witness_values[space.base] != 0:
        problems.append("dual witness does not vanish at the base point")
    if not is_one_lipschitz(space, witness_values):
        problems.append("dual witness is not 1-Lipschitz")
    if sum((a * witness_values[p] for p, a in mu.items), Fraction(0)) != value:
        problems.append("dual witness pairing differs from the value")
    rebuilt: dict[int, Fraction] = {}
    total = Fraction(0)
    for (p, q), weight in decomposition:
        scale = weight / space.d(p, q)
        rebuilt[p] = rebuilt.get(p, Fraction(0)) + scale
        rebuilt[q] = rebuilt.get(q, Fraction(0)) - scale
        total += abs(weight)
    rebuilt = {p: a for p, a in rebuilt.items() if a != 0 and p != space.base}
    if rebuilt != dict(mu.items):
        problems.append("decomposition does not rebuild the element")
    if total != value:
        problems.append("decomposition weight differs from the value")
    return problems


def certificate_problems(mu, cert) -> list[str]:
    """Check a ``NormCertificate`` returned for ``mu``."""
    return norm_certificate_problems(
        mu,
        cert.value,
        cert.dual_witness.values,
        [((m.p, m.q), w) for m, w in cert.primal_witness],
    )


def segment_is_trivial(space, p: int, q: int) -> bool:
    d = space.d
    return not any(
        d(p, x) + d(x, q) == d(p, q) for x in range(space.n) if x not in (p, q)
    )
