"""Exact rational parsing, formatting and elimination helpers.

Accepted textual forms: "p/q", integer strings, and terminating decimals
("0.1" becomes 1/10 exactly).  Floats are rejected everywhere: the package
certifies exact identities and a float input has no well-defined intent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def as_fraction(value) -> Fraction:
    """Convert an int, Fraction or string to an exact Fraction.

    Booleans are rejected although they are ints: a JSON `true` where a
    number belongs is malformed input, not the number 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise TypeError(f"expected int, Fraction or string, got {type(value).__name__}")


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as "p/q" or a plain integer string."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def row_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Row echelon form by exact, fraction-free Gaussian elimination.

    Each row is first scaled to integers by the lcm of its denominators;
    eliminating with integer row combinations, each divided by the gcd of
    its entries, keeps every step exact and the entries small.  Returns the
    nonzero rows, scaled, with zeros below each leading entry, and the
    column of each leading entry; the rank is the number of rows returned.
    """
    pending = []
    for r in rows:
        den = lcm(*(v.denominator for v in r))
        pending.append([v.numerator * (den // v.denominator) for v in r])
    echelon: list[list[int]] = []
    pivots: list[int] = []
    width = len(pending[0]) if pending else 0
    for col in range(width):
        at = next((i for i, r in enumerate(pending) if r[col] != 0), None)
        if at is None:
            continue
        pivot_row = pending.pop(at)
        lead = pivot_row[col]
        for i, r in enumerate(pending):
            f = r[col]
            if f != 0:
                combined = [a * lead - f * b for a, b in zip(r, pivot_row)]
                g = gcd(*combined)
                pending[i] = [v // g for v in combined] if g > 1 else combined
        echelon.append(pivot_row)
        pivots.append(col)
    return echelon, pivots
