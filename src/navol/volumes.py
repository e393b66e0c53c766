"""Non-archimedean volumes via lattice-length sums.

The volume of a metric pair is the large-m limit of n!/m^(n+1) times the
lattice length at level m: the sum over the integer points u of mP of
ceil(m g2(u/m)) - ceil(m g1(u/m)), where g_i is the Legendre transform
(roof) of metric i. The points come as rows of consecutive integers from
Polytope.lattice_rows. On a row, m*g_i is the upper envelope of the K integer
roof lines over a common denominator L, one stack pass over the lines sorted by
slope; each of its k pieces is one arithmetic progression, whose ceilings over
L one Euclid-like floor_sum adds in O(log m) steps. A level costs
O(m*(K + k*log m)) in the plane and O(K + k*log m) on the line, and every
length is an exact integer. The exact limit, the energy of the pair of convex
envelopes, is read from the two conjugates (measures.envelope_energy); the
series rows show it and power the Lipschitz and proportionality checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .measures import envelope_energy
from .plmetric import IntegerRows, PLMetric, distance, is_semipositive, legendre
from .polytope import Polytope
from .rational import ZERO, frac


def default_schedule(dim: int) -> List[int]:
    if dim <= 1:
        return list(range(1, 21)) + [50, 100, 200]
    return list(range(1, 11)) + [20, 40]


def _floor_sum(n: int, mod: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / mod) for n >= 0, mod >= 1 and any
    integers a, b, in O(log) steps (the Euclid-like reduction of the AtCoder
    Library; Python's floor division reduces negative a and b as well)."""
    total = 0
    while n:
        total += a // mod * (n * (n - 1) // 2) + b // mod * n
        a %= mod
        b %= mod
        top = a * n + b
        if top < mod:
            break
        n, b = top // mod, top % mod
        mod, a = a, mod
    return total


def _ceil_sum(roof: IntegerRows, rows: Sequence[Tuple[int, int, int]], m: int) -> int:
    """Sum of ceil(m * roof(u/m)) over the integer points u of the rows,
    for the roof's integer rows L * (a, b) over their common denominator L.

    On a row the roof is the upper envelope of the lines a*x + c, c = a1*y + m*b,
    over L. Each row pushes the lines, sorted by x-slope once, onto a stack of
    (a, c, start) whose entries are maximal on the nonempty integer runs
    [start, next start - 1], the last one up to hi. A line starts at the first
    x where it is strictly above the top, (pc - c) // (a - pa) + 1, and at lo
    or never for an equal slope with a larger or no larger c; a top whose run
    that empties is popped, a line starting after hi is dropped, and each run
    is then one floor sum.
    """
    scale, pieces = roof
    lines = sorted((r[0], r[1] if len(r) > 2 else 0, m * r[-1]) for r in pieces)
    total = 0
    for y, lo, hi in rows:
        hull = []  # (a, c, start)
        for a, a1, mb in lines:
            c = a1 * y + mb
            start = lo
            while hull:
                pa, pc, ps = hull[-1]
                start = (pc - c) // (a - pa) + 1 if a > pa else (lo if c > pc else hi + 1)
                if start > ps:
                    break
                hull.pop()
                start = lo
            if start <= hi:
                hull.append((a, c, start))
        end = hi
        for a, c, start in reversed(hull):
            # ceil(v / L) == floor((v + L - 1) / L)
            total += _floor_sum(end - start + 1, scale, a, a * start + c + scale - 1)
            end = start - 1
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
    return (_ceil_sum(legendre(m2).integer_rows(), rows, m)
            - _ceil_sum(legendre(m1).integer_rows(), rows, m))


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
    exact limit, the envelopes' energy read from the two conjugates."""
    rows = navol_series(m1, m2, schedule)
    exact = envelope_energy(m1, m2)
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
    The ceiling sums of m2 cancel in the difference of the two lengths.
    """
    d = distance(m1, m1_alt)
    _check_pair(m1, m2)
    if schedule is None:
        schedule = default_schedule(m1.dim)
    roof1, roof_alt = legendre(m1).integer_rows(), legendre(m1_alt).integer_rows()
    rows: List[Tuple[int, int, int]] = []
    ok = True
    for m in schedule:
        level = _level_rows(m1.polytope, m)
        bound = _point_count(level) * math.ceil(m * d)
        delta = abs(_ceil_sum(roof1, level, m) - _ceil_sum(roof_alt, level, m))
        rows.append((m, delta, bound))
        ok = ok and delta <= bound
    vol_base = envelope_energy(m1, m2)
    vol_alt = envelope_energy(m1_alt, m2)
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
    The ceiling sums of m2 cancel in the difference of the two lengths. The
    roof of psi + t is psi* - t: for t = p/q, the rows q*(a, b) - (0, p*D)
    over D*q from psi*'s rows (a, b) over D."""
    t = frac(t)
    _check_pair(m1, m2)
    if schedule is None:
        schedule = default_schedule(m1.dim)
    roof1 = legendre(m1).integer_rows()
    scale, pieces = roof1
    p, q = t.numerator, t.denominator
    roof_shifted = scale * q, [(*(q * x for x in r[:-1]), q * r[-1] - p * scale) for r in pieces]
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
            upper = math.ceil(tm) * n_pts
        rows.append((m, delta, lower, upper))
        ok = ok and lower <= delta <= upper
    return ProportionalityReport(shift=t, rows=rows, exact_rows=exact_rows, passed=ok)
