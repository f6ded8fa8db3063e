"""Exact rational parsing and formatting ("p/q" strings, ints, floats)."""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

from .errors import InputParseError


def as_fraction(value) -> Fraction:
    """Coerce *value* to an exact Fraction.

    Accepts ints, Fractions (returned as they are), "p/q" or decimal
    strings, and floats (taken at their exact binary value, so dyadic
    literals like 0.25 stay exact).

    A string is read in ``Fraction``'s syntax, but its digits are converted
    by ``decimal.Decimal``, which has no limit on their number, where
    ``Fraction(str)`` stops at Python's int-from-string limit of 4,300
    digits.  A decimal whose exponent reaches more than ``EXPONENT_REACH``
    digits past the string's length is refused, as its power of ten would
    be: "1e999999999" has a billion digits.  An error message echoes at
    most ``ECHO_CHARS`` characters of the input.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputParseError(f"not a rational: {_echo(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputParseError(f"not a finite number: {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is not None and match["den"] is None:
            dec = Decimal(match["dec"])
            if abs(dec.as_tuple().exponent) > len(value) + EXPONENT_REACH:
                raise InputParseError(f"decimal exponent too large: {_echo(value)}")
            return Fraction(dec)
        if match is not None and int(Decimal(match["den"])) != 0:
            return Fraction(int(Decimal(match["num"])), int(Decimal(match["den"])))
    raise InputParseError(f"not a rational: {_echo(value)}")


# Fraction's string syntax, surrounding whitespace allowed: a signed
# integer over an unsigned one, or a signed decimal with an optional
# exponent.  Digits may be grouped by single underscores.
_INT = r"\d+(?:_\d+)*"
_RATIONAL = re.compile(
    rf"\s*(?:(?P<num>[-+]?{_INT})/(?P<den>{_INT})"
    rf"|(?P<dec>[-+]?(?=\.?\d)(?:{_INT})?(?:\.(?:{_INT})?)?(?:[eE][-+]?{_INT})?))\s*"
)
ECHO_CHARS = 80
# a power of 10^5 digits takes milliseconds; every 7-character decimal is in reach
EXPONENT_REACH = 100_000


def _echo(value) -> str:
    """``repr`` of a rejected input, cut to ``ECHO_CHARS`` characters."""
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else f"{text[: ECHO_CHARS - 3]}... ({len(text)} characters)"


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
