"""Non-archimedean volumes via lattice-length sums.

The volume of a metric pair is the large-m limit of n!/m^(n+1) times the
lattice length at level m: the sum over the integer points u of mP of
ceil(m g2(u/m)) - ceil(m g1(u/m)), where g_i is the Legendre transform
(roof) of metric i. The points come as Polytope.row_bands: on rows y0..y1,
x_lo and x_hi are floors of fixed linear functions of y. On a row, m*g_i is
the max of the integer lines a*x + c, c = a1*y + m*b, over a common
denominator L, of the pieces whose linearity cells
(RoofFunction.integer_cells) meet the row; each piece's run on [x_lo, x_hi]
is an arithmetic progression, whose ceilings over L one Euclid-like
floor_sum adds in O(log m) steps. A cell with corners (x, y, w) meets the
rows from ceil(m*y/w) at its lowest corner to floor(m*y/w) at its highest
(every cell meets the one row of a body on the line), so the pieces change
only at corner rows, and the rows between two are a stretch.

Why that is exact. The cells are closed, convex and tile P, so every row of
mP meets at least one of them. Every piece whose cell meets a row is the max
somewhere on that row, so along the row these pieces follow increasing
x-slope, each the max up to its crossing with the next. Two with equal
x-slope would, on a multi-row stretch, agree on two parallel lines and be
one piece; so they meet only on a one-row stretch, a horizontal wall where
they agree, and either one is kept (their crossing would divide by 0). A
level with R rows (about m in the plane, 1 on the line), S stretches, K
cells and k runs a row costs O(K log K + S*K + R*k*log m). Every length is
an exact integer. The exact limit, the energy of the pair of convex
envelopes, is read from the two conjugates (measures.envelope_energy); the
series rows show it and power the Lipschitz and proportionality checks.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import PreconditionError
from .measures import envelope_energy
from .plmetric import (PLMetric, RoofFunction, distance, is_semipositive, legendre,
                       metric_shift)
from .polytope import Band
from .rational import frac, frac_str

# the most rows of m*P one lattice_length sums, about a second (2-core VM); the
# top planar vol-is-energy level, 40,000, spans 80,001 on the lattice hexagon
LATTICE_ROW_BUDGET = 200_000


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


def _ceil_sum(roof: RoofFunction, bands: Sequence[Band], m: int) -> int:
    """Sum of ceil(m * roof(u/m)) over the integer points u of the row bands,
    for the roof's integer rows L * (a, b) over their common denominator L:
    a stretch's cell pieces by x-slope, one floor sum per run on each row."""
    scale, rows = roof.integer_rows()
    spans = []   # (line, r0, r1): the line a*x + a1*y + mb of a cell's rows r0..r1
    for i, corners in roof.integer_cells():
        r = rows[i]
        # ceil(v / L) == floor((v + L - 1) / L): each line carries the L - 1
        if len(r) == 2:   # a body on the line: every cell is on its one row, y = 0
            spans.append(((r[0], 0, m * r[1] + scale - 1), 0, 0))
        else:
            spans.append(((r[0], r[1], m * r[2] + scale - 1),
                          min([-(-m * y // w) for _, y, w in corners]),
                          max([m * y // w for _, y, w in corners])))
    spans.sort()
    cuts = sorted({s[1] for s in spans} | {s[2] + 1 for s in spans}) if len(rows[0]) > 2 else []
    total = 0
    for y, y1, (d, e, f), (d2, e2, f2) in bands:
        while y <= y1:
            i = bisect.bisect_right(cuts, y)
            end = min(y1, cuts[i] - 1) if i < len(cuts) else y1
            active: list = []
            for line, r0, r1 in spans:
                if r0 <= y <= r1:
                    if active and active[-1][0] == line[0]:
                        continue   # equal x-slopes: a one-row wall where they agree
                    active.append(line)
            env = [(a, a1, mb, a1 - n1, mb - nb, na - a)
                   for (a, a1, mb), (na, n1, nb) in zip(active, active[1:])]
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
                    a, a1, mb = active[-1]
                if start <= hi:
                    total += _floor_sum(hi - start + 1, scale, a, a * start + a1 * y + mb)
            y = end + 1
    return total


def _same_polytope(name: str, m: PLMetric, *others: PLMetric) -> None:
    for o in others:
        if o.polytope != m.polytope:
            raise PreconditionError(f"{name} needs metrics on the same polytope")


def lattice_length(m1: PLMetric, m2: PLMetric, m: int) -> int:
    """Total lattice length at level m of the norm quotient of the pair; a
    level whose m*P spans over LATTICE_ROW_BUDGET rows is refused unsummed."""
    _same_polytope("lattice_length", m1, m2)
    if m < 1:
        raise PreconditionError("lattice_length needs a positive level m")
    bands = m1.polytope.row_bands(m)
    rows = bands[-1][1] - bands[0][0] + 1 if bands else 0
    if rows > LATTICE_ROW_BUDGET:
        raise PreconditionError(f"lattice_length at level {frac_str(m)} spans {frac_str(rows)} "
                                f"rows, above the row budget {LATTICE_ROW_BUDGET}")
    return _ceil_sum(legendre(m2), bands, m) - _ceil_sum(legendre(m1), bands, m)


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
    max_gap: Fraction  # max |normalized - exact| over the schedule tail

    @property
    def estimate(self) -> Fraction:
        return self.rows[-1].normalized


def navol(m1: PLMetric, m2: PLMetric, schedule: Sequence[int]) -> VolumeResult:
    """Non-archimedean volume of a metric pair: lattice-length series plus the
    exact limit, the envelopes' energy read from the two conjugates."""
    _same_polytope("navol", m1, m2)
    if not schedule:
        raise PreconditionError("navol needs at least one level")
    n = m1.dim
    factorial = math.factorial(n)
    rows = []
    for m in schedule:
        length = lattice_length(m1, m2, m)
        rows.append(SeriesRow(m, length, Fraction(factorial * length, m ** (n + 1))))
    exact = envelope_energy(m1, m2)
    semi = is_semipositive(m1) and is_semipositive(m2)
    tail = rows[len(rows) // 2:]
    gap = max(abs(r.normalized - exact) for r in tail)
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
    _same_polytope("lipschitz_check", m1, m1_alt, m2)
    if not schedule:
        raise PreconditionError("lipschitz_check needs at least one level")
    d = distance(m1, m1_alt)
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
    _same_polytope("proportionality_check", m1, m2)
    if not schedule:
        raise PreconditionError("proportionality_check needs at least one level")
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
