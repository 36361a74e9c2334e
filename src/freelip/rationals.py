"""Exact rational parsing and formatting helpers.

Accepted textual forms: "p/q", integer strings, and terminating decimals
("0.1" becomes 1/10 exactly).  Floats are rejected everywhere: the package
certifies exact identities and a float input has no well-defined intent.
"""

from __future__ import annotations

from fractions import Fraction


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
