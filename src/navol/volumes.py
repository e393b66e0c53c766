"""Non-archimedean volumes via lattice-length sums.

The volume of a metric pair is the large-m limit of n!/m^(n+1) times the
lattice length at level m: the sum over the integer points u of mP of
ceil(m g2(u/m)) - ceil(m g1(u/m)), where g_i is the Legendre transform
(roof) of metric i. The points come as rows of consecutive integers from
Polytope.lattice_rows. On a row, m*g_i is the upper envelope of a few integer
lines over a common denominator L; each piece of that envelope is one
arithmetic progression, whose ceilings over L one Euclid-like floor_sum adds
in O(log m) steps. A level costs O(m*K*log m) in the plane and O(K*log m) on
the line for K roof pieces, and every length is an exact integer. The exact
limit equals the energy of the pair of convex envelopes; the series rows
exist to demonstrate this and to power the finite-level Lipschitz and
proportionality checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .measures import energy
from .plmetric import (IntegerRoof, PLMetric, distance, envelope, is_semipositive,
                       legendre, metric_shift)
from .polytope import Polytope
from .rational import ZERO, ceil_frac, frac, lcm_of


def default_schedule(dim: int) -> List[int]:
    if dim <= 1:
        return list(range(1, 21)) + [50, 100, 200]
    return list(range(1, 11)) + [20, 40]


def _integer_roof(metric: PLMetric) -> IntegerRoof:
    """Common-denominator form of the metric's roof: returns (L, pieces) with
    integer slope/constant data so that max_k(<A_k,u> + m*B_k) = L * m * roof(u/m)
    for integer u. Cached on the metric, like its conjugate."""
    if metric._integer_roof is None:
        roof = legendre(metric)
        scale = lcm_of(c.denominator for slope, const in roof.pieces
                       for c in slope + (const,))
        metric._integer_roof = scale, [
            (tuple(int(c * scale) for c in slope), int(const * scale))
            for slope, const in roof.pieces]
    return metric._integer_roof


def _floor_sum(n: int, mod: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / mod) for n >= 0, mod >= 1 and any
    integers a, b, in O(log) steps (the Euclid-like reduction of the AtCoder
    Library; Python's floor division reduces negative a and b as well)."""
    total = 0
    while n:
        qa, a = divmod(a, mod)
        qb, b = divmod(b, mod)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < mod:
            break
        n, b = divmod(top, mod)
        mod, a = a, mod
    return total


def _ceil_sum(roof: IntegerRoof, rows: Sequence[Tuple[int, int, int]], m: int) -> int:
    """Sum of ceil(m * roof(u/m)) over the integer points u of the rows.

    On a row the roof is the upper envelope of the integer lines
    a0*x + (a1*y + m*b), over L. The walk keeps the line that is maximal at
    x (the steepest on ties) up to the last x before a steeper line strictly
    overtakes it, and sums the ceilings along that piece with one floor sum.
    """
    scale, pieces = roof
    lines = [(a[0], a[1] if len(a) > 1 else 0, m * b) for a, b in pieces]
    total = 0
    for y, lo, hi in rows:
        row = [(a0, a1 * y + mb) for a0, a1, mb in lines]
        x = lo
        while x <= hi:
            a, c = max(row, key=lambda line: (line[0] * x + line[1], line[0]))
            end = min([hi] + [(c - c2) // (a2 - a) for a2, c2 in row if a2 > a])
            # ceil(v / L) == floor((v + L - 1) / L)
            total += _floor_sum(end - x + 1, scale, a, a * x + c + scale - 1)
            x = end + 1
    return total


def _check_pair(m1: PLMetric, m2: PLMetric) -> None:
    if m1.polytope != m2.polytope:
        raise PreconditionError("lattice_length needs metrics on the same polytope")


def _level_rows(P: Polytope, m: int) -> List[Tuple[int, int, int]]:
    if m < 1:
        raise PreconditionError("lattice_length needs a positive level m")
    return P.lattice_rows(m)


def lattice_length(m1: PLMetric, m2: PLMetric, m: int) -> int:
    """Total lattice length at level m of the norm quotient of the pair."""
    _check_pair(m1, m2)
    rows = _level_rows(m1.polytope, m)
    return _ceil_sum(_integer_roof(m2), rows, m) - _ceil_sum(_integer_roof(m1), rows, m)


def _point_count(rows: Sequence[Tuple[int, int, int]]) -> int:
    return sum(hi - lo + 1 for _, lo, hi in rows)


@dataclass
class SeriesRow:
    m: int
    length: int
    normalized: Fraction  # n! * length / m^(n+1)


@dataclass
class VolumeResult:
    rows: List[SeriesRow]
    exact: Fraction
    dim: int
    semipositive_pair: bool
    max_gap: Fraction = ZERO  # max |normalized - exact| over the schedule tail

    @property
    def estimate(self) -> Fraction:
        return self.rows[-1].normalized if self.rows else ZERO


def navol_series(m1: PLMetric, m2: PLMetric,
                 schedule: Optional[Sequence[int]] = None) -> List[SeriesRow]:
    n = m1.dim
    factorial = math.factorial(n)
    if schedule is None:
        schedule = default_schedule(n)
    rows = []
    for m in schedule:
        length = lattice_length(m1, m2, m)
        rows.append(SeriesRow(m, length, Fraction(factorial * length, m ** (n + 1))))
    return rows


def navol(m1: PLMetric, m2: PLMetric,
          schedule: Optional[Sequence[int]] = None) -> VolumeResult:
    """Non-archimedean volume of a metric pair: lattice-length series plus the
    exact limit, which is the energy of the pair of convex envelopes."""
    rows = navol_series(m1, m2, schedule)
    exact = energy(envelope(m1), envelope(m2))
    semi = is_semipositive(m1) and is_semipositive(m2)
    tail = rows[len(rows) // 2:] if rows else []
    gap = max((abs(r.normalized - exact) for r in tail), default=ZERO)
    return VolumeResult(rows=rows, exact=exact, dim=m1.dim,
                        semipositive_pair=semi, max_gap=gap)


@dataclass
class LipschitzReport:
    distance: Fraction
    rows: List[Tuple[int, int, int]]  # (m, |delta length|, integer bound)
    limit_lhs: Fraction
    limit_rhs: Fraction
    passed: bool


def lipschitz_check(m1: PLMetric, m1_alt: PLMetric, m2: PLMetric,
                    schedule: Optional[Sequence[int]] = None) -> LipschitzReport:
    """Stability of volumes under sup-distance perturbation of one argument.

    Finite level: replacing m1 by m1_alt moves each lattice length by at most
    ceil(m*d) with d the sup distance, so the total moves by at most
    N_m * ceil(m*d). In the limit: |vol' - vol| <= n!vol(P) * d.
    """
    d = distance(m1, m1_alt)
    _check_pair(m1, m2)
    if schedule is None:
        schedule = default_schedule(m1.dim)
    roof1, roof_alt, roof2 = (_integer_roof(x) for x in (m1, m1_alt, m2))
    rows: List[Tuple[int, int, int]] = []
    ok = True
    for m in schedule:
        level = _level_rows(m1.polytope, m)
        top = _ceil_sum(roof2, level, m)
        base = top - _ceil_sum(roof1, level, m)
        alt = top - _ceil_sum(roof_alt, level, m)
        bound = _point_count(level) * int(ceil_frac(m * d))
        delta = abs(alt - base)
        rows.append((m, delta, bound))
        ok = ok and delta <= bound
    vol_base = energy(envelope(m1), envelope(m2))
    vol_alt = energy(envelope(m1_alt), envelope(m2))
    limit_lhs = abs(vol_alt - vol_base)
    limit_rhs = math.factorial(m1.dim) * m1.polytope.volume() * d
    ok = ok and limit_lhs <= limit_rhs
    return LipschitzReport(distance=d, rows=rows, limit_lhs=limit_lhs,
                           limit_rhs=limit_rhs, passed=ok)


@dataclass
class ProportionalityReport:
    shift: Fraction
    rows: List[Tuple[int, int, int, int]]  # (m, delta, lower, upper)
    exact_rows: int
    passed: bool


def proportionality_check(m1: PLMetric, m2: PLMetric, t: Fraction,
                          schedule: Optional[Sequence[int]] = None) -> ProportionalityReport:
    """Shifting a metric by the constant t shifts each lattice length by
    exactly t*m when t*m is an integer, and by a value in
    [floor(t*m), ceil(t*m)] otherwise; summed over the N_m lattice points.
    The ceiling sums of m2 cancel in the difference of the two lengths."""
    t = frac(t)
    _check_pair(m1, m2)
    shifted = metric_shift(m1, t)
    if schedule is None:
        schedule = default_schedule(m1.dim)
    roof1, roof_shifted = _integer_roof(m1), _integer_roof(shifted)
    rows: List[Tuple[int, int, int, int]] = []
    exact_rows = 0
    ok = True
    for m in schedule:
        level = _level_rows(m1.polytope, m)
        n_pts = _point_count(level)
        delta = _ceil_sum(roof1, level, m) - _ceil_sum(roof_shifted, level, m)
        tm = t * m
        if tm.denominator == 1:
            lower = upper = int(tm) * n_pts
            exact_rows += 1
        else:
            lower = (tm.numerator // tm.denominator) * n_pts
            upper = int(ceil_frac(tm)) * n_pts
        rows.append((m, delta, lower, upper))
        ok = ok and lower <= delta <= upper
    return ProportionalityReport(shift=t, rows=rows, exact_rows=exact_rows, passed=ok)
