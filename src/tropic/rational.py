"""Serialization of exact rationals as "p/q" strings or bare integers.

Floats are rejected everywhere: accepting one would silently contaminate
every downstream count.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(value, path: str = "value") -> Fraction:
    """Accept a Fraction as it is, an int, or a 'p/q' / 'p' string; reject
    everything else, floats and booleans included."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"{path}: expected rational, got boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{path}: not a valid rational string: {value!r}") from exc
    if isinstance(value, float):
        raise ValueError(f"{path}: floats are not accepted, use 'p/q' strings")
    raise ValueError(f"{path}: expected rational, got {type(value).__name__}")


def format_rational(value: Fraction):
    """Emit an int when exact, else the 'p/q' string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"
