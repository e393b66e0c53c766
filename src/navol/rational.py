"""Exact rational scalars and points.

Everything the package asserts on is a fractions.Fraction (or int); floats
appear only in human-readable report columns. Rationals serialize as 'p/q'
strings ('p' when the denominator is 1).
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .errors import PreconditionError

Point = Tuple[Fraction, ...]

ZERO = Fraction(0)


def plain_pair(text: str) -> Optional[Tuple[int, int]]:
    """The value of a plain literal (an optional sign and digits, optionally
    followed by '/' and digits) as a reduced (numerator, denominator > 0)
    pair, read straight to ints; None for any other string, and for digits
    int() will not convert or a zero denominator."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isdigit() and (not slash or den.isdigit()):
        try:
            p, q = int(num), int(den) if slash else 1
        except ValueError:
            return None
        if q:
            g = math.gcd(p, q)
            return p // g, q // g
    return None


def frac(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to Fraction. Floats are refused.

    A string that is not a plain literal is left to Fraction's own parser, so
    the two accept, value and reject the same strings: frac("0.5") is 1/2.
    Decimal notation is refused at the boundary only, by serialize's reader
    of instance files and of the command line's --schedule entries."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            pair = plain_pair(text)
            return Fraction(*pair) if pair is not None else Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {value!r}: {exc}") from None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def frac_str(value: Fraction) -> str:
    """'p/q', or 'p' for an integral value; a Fraction or int prints as is."""
    if type(value) is not Fraction and type(value) is not int:
        value = Fraction(value)
    try:
        return str(value)
    except ValueError:   # an integer past sys.get_int_max_str_digits() digits
        raise PreconditionError(f"an exact result has an integer of more than "
                                f"{sys.get_int_max_str_digits()} digits") from None


def ratio_str(num: int, den: int) -> str:
    """frac_str(Fraction(num, den)) for ints num and den > 0, reduced by one gcd."""
    g = math.gcd(num, den)
    return frac_str(num // g) if g == den else f"{frac_str(num // g)}/{frac_str(den // g)}"


def point(coords: Iterable) -> Point:
    return tuple(frac(c) for c in coords)


def point_str(pt: Sequence[Fraction]) -> str:
    return "(" + ", ".join(frac_str(c) for c in pt) + ")"

