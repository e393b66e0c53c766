"""Tiny exact planar linear algebra over Fractions."""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple


def cross2(o: Sequence[Fraction], a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Signed area Fraction of the triangle o,a,b times two."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def solve2x2(a11: Fraction, a12: Fraction, a21: Fraction, a22: Fraction,
             b1: Fraction, b2: Fraction) -> Optional[Tuple[Fraction, Fraction]]:
    det = a11 * a22 - a12 * a21
    if det == 0:
        return None
    return ((b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det)
