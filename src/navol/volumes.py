"""Non-archimedean volumes via lattice-length sums.

The volume of a metric pair is the large-m limit of n!/m^(n+1) times the
lattice length at level m: the sum over the integer points u of mP of
ceil(m g2(u/m)) - ceil(m g1(u/m)), where g_i is the Legendre transform
(roof) of metric i. The points come as Polytope.row_bands: on rows y0..y1,
x_lo and x_hi are floors of fixed linear functions of y. On a row, m*g_i
is the upper envelope of the K integer roof lines a*x + c, c = a1*y + m*b,
over a common denominator L; each of its pieces on [x_lo, x_hi] is an
arithmetic progression, whose ceilings over L one Euclid-like floor_sum adds
in O(log m) steps. The envelope is built over the whole x-line once per
stretch of a band on which it holds. With its lines l_j by increasing
x-slope a_j, crossing at x_j = (c_j - c_(j+1)) / (a_(j+1) - a_j), it holds
on a row iff
  (i)   x_j <= x_(j+1) for each j: l_j is the max exactly on [x_(j-1), x_j];
  (ii)  every line a*x + c off it with a_j < a < a_(j+1) is at most l_j at
        x_j, the kink where the envelope minus that line is least;
  (iii) every line off it with slope a_j has c <= c_j.
(The extreme slopes are always on it.) Cleared of the positive denominators,
each condition is an integer inequality alpha*y + beta >= 0 that holds on the
row the envelope is built on, so the stretch ends at the band's last row or
the least floor(beta / -alpha) with alpha < 0. A level with R rows (about m
in the plane, 1 on the line), S stretches (the bands plus the rows where the
roof's cells change) and k runs a row costs O(K log K + S*K + R*k*log m).
Every length is an exact integer. The exact limit, the energy of the pair of
convex envelopes, is read from the two conjugates (measures.envelope_energy);
the series rows show it and power the Lipschitz and proportionality checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import PreconditionError
from .measures import envelope_energy
from .plmetric import (IntegerRows, PLMetric, distance, is_semipositive, legendre,
                       metric_shift)
from .polytope import Band
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


def _envelope(lines: Sequence[Tuple[int, ...]], y: int, last: int) -> Tuple[list, tuple, int]:
    """The upper envelope over the whole x-line, on row y, of the sorted
    lines (a, a1, mb), that is a*x + a1*y + mb, and the last row up to
    `last` on which it stays the envelope ((i)-(iii) of the module
    docstring). Each envelope line (a, a1, mb, na, nb, den) but the last,
    (a, a1, mb), is the max up to x = (na*y + nb) // den."""
    hull: List[Tuple[int, int, int, int]] = []   # (a, a1, mb, c)
    for a, a1, mb in lines:
        c = a1 * y + mb
        if hull and hull[-1][0] == a:
            if c <= hull[-1][3]:
                continue
            hull.pop()
        while len(hull) > 1:
            (pa, _, _, pc), (qa, _, _, qc) = hull[-2], hull[-1]
            if (pc - qc) * (a - qa) < (qc - c) * (qa - pa):
                break
            hull.pop()
        hull.append((a, a1, mb, c))
    end = last
    if y < last:   # conditions (alpha, beta): alpha*row + beta >= 0 on row y
        conditions = [((q1 - r1) * (qa - pa) - (p1 - q1) * (ra - qa),
                       (qb - rb) * (qa - pa) - (pb - qb) * (ra - qa))
                      for (pa, p1, pb, _), (qa, q1, qb, _), (ra, r1, rb, _)
                      in zip(hull, hull[1:], hull[2:])]
        j = 0
        for a, a1, mb in lines:
            while hull[j][0] < a and hull[j + 1][0] <= a:
                j += 1
            ha, h1, hb, _ = hull[j]
            if a == ha:
                conditions.append((h1 - a1, hb - mb))
            else:
                na, n1, nb, _ = hull[j + 1]
                conditions.append(((ha - a) * (h1 - n1) + (h1 - a1) * (na - ha),
                                   (ha - a) * (hb - nb) + (hb - mb) * (na - ha)))
        end = min([last] + [beta // -alpha for alpha, beta in conditions if alpha < 0])
    env = [(a, a1, mb, a1 - n1, mb - nb, na - a)
           for (a, a1, mb, _), (na, n1, nb, _) in zip(hull, hull[1:])]
    return env, hull[-1][:3], end


def _ceil_sum(roof: IntegerRows, bands: Sequence[Band], m: int) -> int:
    """Sum of ceil(m * roof(u/m)) over the integer points u of the row bands,
    for the roof's integer rows L * (a, b) over their common denominator L:
    one envelope per stretch (_envelope), and one floor sum per run of an
    envelope line clamped to [x_lo, x_hi] on each row."""
    scale, pieces = roof
    # ceil(v / L) == floor((v + L - 1) / L): each line carries the L - 1
    lines = sorted((r[0], r[1] if len(r) > 2 else 0, m * r[-1] + scale - 1) for r in pieces)
    total = 0
    for y, y1, (d, e, f), (d2, e2, f2) in bands:
        while y <= y1:
            env, last, end = _envelope(lines, y, y1)
            for y in range(y, end + 1):
                start, hi = -((e * y + f) // d), (e2 * y + f2) // d2
                for a, a1, mb, na, nb, den in env:
                    stop = (na * y + nb) // den
                    if stop >= start:
                        if stop >= hi:
                            break
                        total += _floor_sum(stop - start + 1, scale, a, a * start + a1 * y + mb)
                        start = stop + 1
                else:
                    a, a1, mb = last
                if start <= hi:
                    total += _floor_sum(hi - start + 1, scale, a, a * start + a1 * y + mb)
            y = end + 1
    return total


def _check_pair(m1: PLMetric, m2: PLMetric) -> None:
    if m1.polytope != m2.polytope:
        raise PreconditionError("lattice_length needs metrics on the same polytope")


def lattice_length(m1: PLMetric, m2: PLMetric, m: int) -> int:
    """Total lattice length at level m of the norm quotient of the pair."""
    _check_pair(m1, m2)
    if m < 1:
        raise PreconditionError("lattice_length needs a positive level m")
    bands = m1.polytope.row_bands(m)
    return (_ceil_sum(legendre(m2).integer_rows(), bands, m)
            - _ceil_sum(legendre(m1).integer_rows(), bands, m))


def _point_count(bands: Sequence[Band]) -> int:
    """Lattice points of the bands: two floor sums a band, as x_hi >= x_lo - 1."""
    return sum(y1 - y0 + 1 + _floor_sum(y1 - y0 + 1, d2, e2, e2 * y0 + f2)
               + _floor_sum(y1 - y0 + 1, d, e, e * y0 + f)
               for y0, y1, (d, e, f), (d2, e2, f2) in bands)


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


def navol(m1: PLMetric, m2: PLMetric, schedule: Sequence[int]) -> VolumeResult:
    """Non-archimedean volume of a metric pair: lattice-length series plus the
    exact limit, the envelopes' energy read from the two conjugates."""
    n = m1.dim
    factorial = math.factorial(n)
    rows = []
    for m in schedule:
        length = lattice_length(m1, m2, m)
        rows.append(SeriesRow(m, length, Fraction(factorial * length, m ** (n + 1))))
    exact = envelope_energy(m1, m2)
    semi = is_semipositive(m1) and is_semipositive(m2)
    tail = rows[len(rows) // 2:]
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
                    schedule: Sequence[int]) -> LipschitzReport:
    """Stability of volumes under sup-distance perturbation of one argument.

    Finite level: replacing m1 by m1_alt moves each lattice length by at most
    ceil(m*d) with d the sup distance, so the total moves by at most
    N_m * ceil(m*d). In the limit: |vol' - vol| <= n!vol(P) * d.
    Each row is one lattice_length, of m1_alt against m1.
    """
    d = distance(m1, m1_alt)
    _check_pair(m1, m2)
    rows: List[Tuple[int, int, int]] = []
    ok = True
    for m in schedule:
        delta = abs(lattice_length(m1_alt, m1, m))
        bound = _point_count(m1.polytope.row_bands(m)) * math.ceil(m * d)
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
                          schedule: Sequence[int]) -> ProportionalityReport:
    """Shifting a metric by the constant t shifts each lattice length by
    exactly t*m when t*m is an integer, and by a value in
    [floor(t*m), ceil(t*m)] otherwise; summed over the N_m lattice points.
    Each row is one lattice_length, of m1 + t (metric_shift) against m1; m2
    only pins the polytope, which it must share with m1."""
    t = frac(t)
    _check_pair(m1, m2)
    shifted = metric_shift(m1, t)
    rows: List[Tuple[int, int, int, int]] = []
    exact_rows = 0
    ok = True
    for m in schedule:
        delta = lattice_length(shifted, m1, m)
        n_pts = _point_count(m1.polytope.row_bands(m))
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
