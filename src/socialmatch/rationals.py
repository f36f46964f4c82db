"""Exact rational parsing and formatting for JSON documents, and integer rescaling."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable


class InstanceError(ValueError):
    """Raised when an instance violates a structural invariant."""


def rat(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string.

    Strings may be "p/q" or decimal ("0.25"); both parse exactly.  A bool
    is not a rational: JSON ``true`` must not read as 1, and "p/0" is not
    one either (``InstanceError``).  The two forms ``rat_str`` writes, "p"
    and "p/q" in ASCII digits with an optional leading "-", are split and
    read with ``int``; every other string goes to ``Fraction(str)``, which
    gives the same value or the same error.
    """
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        sign = -1 if num[:1] == "-" else 1
        digits = num[1:] if sign < 0 else num
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            # The numerator is read first, as Fraction reads it, so two
            # over-long parts fail on the same one.
            p = sign * int(digits)
            q = int(den) if slash else 1
            if q:
                return Fraction(p, q)
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise InstanceError(f"zero denominator in {value!r}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not a rational: {value!r}")


def rat_array(value: object, field: str) -> tuple[Fraction, ...]:
    """The rationals of a JSON array.  Any other value, a string or an
    object included, is an ``InstanceError`` naming ``field``: iterating it
    would read its characters or keys as entries."""
    if not isinstance(value, list):
        raise InstanceError(f"{field} must be a JSON array of rationals, got {value!r}")
    return tuple(rat(x) for x in value)


def rat_str(value: Fraction) -> str:
    """Render a rational as "p/q" (or "p" for integers); parses back exactly."""
    p, q = value.numerator, value.denominator
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # past Python's limit on int-to-str digits: Decimal writes any int
        return str(Decimal(p)) if q == 1 else f"{Decimal(p)}/{Decimal(q)}"


def rescale(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """Exact integer images of rationals: the lcm of their denominators, and
    each value times it.

    A positive scale keeps every strict inequality and every tie, among the
    values and among their sums, so comparisons can run on the integers.
    """
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]
