"""Tiny exact planar linear algebra over ints or Fractions."""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def cross2(o: Sequence[Fraction], a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Signed area of the triangle o,a,b times two."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

