"""Exact rational parsing and formatting ("p/q" strings, ints, floats)."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from .errors import InputParseError


def as_fraction(value) -> Fraction:
    """Coerce *value* to an exact Fraction.

    Accepts ints, Fractions, "p/q" or decimal strings, and floats (taken at
    their exact binary value, so dyadic literals like 0.25 stay exact).
    """
    if isinstance(value, bool):
        raise InputParseError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputParseError(f"not a finite number: {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputParseError(f"not a rational: {value!r}") from exc
    raise InputParseError(f"not a rational: {value!r}")


def cleared(values) -> tuple[int, list[int]]:
    """``(L, [L*x for x in values])`` in Python ints, L the lcm of the
    denominators (1 for none), for a sequence of Fractions and ints."""
    scale = math.lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def rational_str(q) -> str:
    """Render as "p/q", denominator kept even when it is 1.  The ints are
    printed through ``Decimal``, digit for digit their ``str``, which has
    no limit on the number of digits."""
    q = Fraction(q)
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def is_rational_sequence(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)
