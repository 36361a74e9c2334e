"""Exact rational parsing, formatting and elimination helpers.

Accepted textual forms: "p/q", integer strings, and terminating decimals
("0.1" becomes 1/10 exactly).  Floats are rejected everywhere: the package
certifies exact identities and a float input has no well-defined intent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

MAX_EXPONENT = 4300  # the digits CPython allows an int string (sys.get_int_max_str_digits())


def as_fraction(value) -> Fraction:
    """Convert an int, Fraction or string to an exact Fraction.

    Booleans are rejected although they are ints: a JSON `true` where a
    number belongs is malformed input, not the number 1.  A decimal
    exponent above MAX_EXPONENT in magnitude is rejected before Fraction
    expands it: "1e10000000" is ten bytes but a 33-million-bit integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # only a decimal has an "e", and what int() cannot read after it, Fraction cannot
        _, e, exponent = value.lower().rpartition("e")
        try:
            if not (e and abs(int(exponent)) > MAX_EXPONENT):
                return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
        raise ValueError(f"decimal exponent beyond {MAX_EXPONENT}: {value!r}")
    raise TypeError(f"expected int, Fraction or string, got {type(value).__name__}")


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as "p/q" or a plain integer string."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def scale_to_integers(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the denominators, and the values multiplied by it."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def primitive(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries (a zero row as is)."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def eliminate(target: list[int], row: list[int], j: int) -> list[int]:
    """target * row[j] - target[j] * row, divided by the gcd of its entries.

    The one fraction-free elimination step: entry j of the result is zero.
    A positive row[j] keeps every positive scale in target positive.
    Entries of target beyond the end of row are multiplied by row[j].
    """
    piv, f = row[j], target[j]
    out = [x * piv - f * y for x, y in zip(target, row)]
    out.extend(x * piv for x in target[len(row) :])
    return primitive(out)


def row_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Row echelon form by exact, fraction-free Gaussian elimination.

    Each row is first scaled to integers by the lcm of its denominators;
    eliminating with integer row combinations, each divided by the gcd of
    its entries, keeps every step exact and the entries small.  Returns the
    nonzero rows, scaled, with zeros below each leading entry, and the
    column of each leading entry; the rank is the number of rows returned.
    """
    pending = [scale_to_integers(r)[1] for r in rows]
    echelon: list[list[int]] = []
    pivots: list[int] = []
    width = len(pending[0]) if pending else 0
    for col in range(width):
        at = next((i for i, r in enumerate(pending) if r[col] != 0), None)
        if at is None:
            continue
        pivot_row = pending.pop(at)
        for i, r in enumerate(pending):
            if r[col] != 0:
                pending[i] = eliminate(r, pivot_row, col)
        echelon.append(pivot_row)
        pivots.append(col)
    return echelon, pivots
