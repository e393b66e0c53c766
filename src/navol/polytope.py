"""Exact rational polytopes in ambient dimension 1 or 2.

A Polytope is the convex hull of finitely many rational points: an interval
or a polygon. There are no tolerances anywhere: hulls, lattice rows and
points, and volumes are computed with exact arithmetic only.
Other ambient dimensions are refused with PreconditionError. The
lower-dimensional bodies, a point or a segment in the plane, are supported
(their volume is 0).

A polytope is its hull's vertex cycle, stored in canonical order:
counterclockwise starting from the lexicographic minimum for
full-dimensional planar polytopes, lexicographically sorted otherwise. The
hull is taken on the input points as integer rows over their lcm, by the
one monotone chain (plmetric's lower chains along a line use it too). Lattice
rows come as row bands, read from the bounding box and the integer
half-planes to the left of the cycle's edges; no facet or equation list is
stored.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import PreconditionError
from .rational import Point, ZERO, frac, point

IntVector = Tuple[int, ...]
Band = Tuple[int, int, Tuple[int, int, int], Tuple[int, int, int]]   # see row_bands


def _integer_rows(points: Sequence[Point]) -> Tuple[int, List[IntVector]]:
    """(V, rows): the points as integer rows V * p over the lcm V of their denominators."""
    scale = math.lcm(*(c.denominator for p in points for c in p))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]


def _homogeneous(u: Point) -> IntVector:
    """The rational point u as the integer row (x, w), u = x / w, in lowest
    terms (w is the lcm of u's denominators)."""
    w = math.lcm(*(c.denominator for c in u))
    return (*[c.numerator * (w // c.denominator) for c in u], w)


def _hull_1d(points: Sequence[Point]) -> List[Point]:
    lo = min(points)
    hi = max(points)
    return [lo] if lo == hi else [lo, hi]


def _monotone_chain(points: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Andrew's monotone chain of sorted integer points: pop while the cross
    product of the last two points and the next is <= 0. The lower chain on
    increasing points, the upper one on their reverse."""
    chain: List[Tuple[int, int]] = []
    for p in points:
        x, y = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _hull_2d(points: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The hull counterclockwise, collinear boundary points dropped, starting
    at the lexicographic minimum: the lower and then the upper chain."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    hull = _monotone_chain(pts)[:-1] + _monotone_chain(pts[::-1])[:-1]
    if len(hull) < 3:  # all points collinear
        return [min(pts), max(pts)]
    return hull


class Polytope:
    """Convex hull of rational points; construct with Polytope.from_points.

    The hull's vertex cycle is the whole description. The vertices are also
    kept as integer rows over the lcm V of their denominators
    (integer_vertices) and each as its homogeneous row (x, w), v = x / w in
    lowest terms (homogeneous_vertices); every edge a -> b of the cycle gives
    the integer half-plane to its left, c0*x + c1*y + k >= 0 on V-scaled
    points, with (c0, c1) = (a_y - b_y, b_x - a_x) and
    k = -(c0*a_x + c1*a_y). A polygon's edges bound x, one edge of each chain
    on a band of rows (row_bands, which lattice_rows expands); a segment's
    two opposite edges pin it to its line. A point, a horizontal segment and
    an interval have no edge that bounds x, and are one band, their bounding
    box.
    """

    def __init__(self, vertices: Sequence[Point], ambient_dim: int, affine_dim: int):
        self.vertices: Tuple[Point, ...] = tuple(vertices)
        self.ambient_dim = ambient_dim
        self.affine_dim = affine_dim
        self._vertex_set = frozenset(self.vertices)
        self._integer = _integer_rows(self.vertices)
        self.homogeneous_vertices: List[IntVector] = [_homogeneous(v) for v in self.vertices]
        rows = self._integer[1]
        self._extent = [(min(c), max(c)) for c in zip(*rows)]   # V-scaled box
        self._edges: List[IntVector] = []
        if ambient_dim == 2 and len(rows) > 1:
            for (ax, ay), (bx, by) in zip(rows, rows[1:] + rows[:1]):
                c0, c1 = ay - by, bx - ax
                self._edges.append((c0, c1, -(c0 * ax + c1 * ay)))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[Sequence]) -> "Polytope":
        pts = [point(p) for p in points]
        if not pts:
            raise PreconditionError("a polytope needs at least one point")
        n = len(pts[0])
        if n not in (1, 2):
            raise PreconditionError(f"ambient dimension {n} unsupported (need 1 or 2)")
        if any(len(p) != n for p in pts):
            raise PreconditionError("points of mixed dimension")
        # Hull integer rows over the points' lcm: a positive scaling keeps the
        # order and the orientation, so the vertex cycle is the Fraction one.
        by_row = dict(zip(_integer_rows(pts)[1], pts))
        hull = (_hull_1d if n == 1 else _hull_2d)(list(by_row))
        return cls([by_row[r] for r in hull], n, min(len(hull) - 1, n))

    # -- queries ----------------------------------------------------------

    def integer_vertices(self) -> Tuple[int, List[IntVector]]:
        """(V, rows): the vertices as integer rows V * v over the lcm V of
        their denominators, in vertex order."""
        return self._integer

    def row_bands(self, m: int = 1) -> List[Band]:
        """Rows of m*P as bands (y0, y1, lower, upper), by increasing y: on
        rows y0..y1 the points are x_lo <= x <= x_hi, x_lo = -((e*y + f) // d)
        for lower = (d, e, f) and x_hi = (e'*y + f') // d' for upper, d and
        d' > 0, and x_hi >= x_lo - 1. On a row, x is bounded by the edge of
        each chain whose rows [r0, r1] cover it; taken in (r0, r1) order,
        each edge covers the rows from the first untaken one to r1."""
        if m < 0:
            raise PreconditionError("dilation factor must be nonnegative")
        scale, rows = self._integer
        # m*P's box: ceil(m*min/V) .. floor(m*max/V) per coordinate
        box = [(-(-m * lo // scale), m * hi // scale) for lo, hi in self._extent]
        (x_lo, x_hi), (y_lo, y_hi), *_ = box + [(0, 0)]
        if y_lo > y_hi:
            return []
        # An integer point (x, y) of m*P has V*(c0*x + c1*y) + m*k >= 0 for
        # every edge: a lower bound on x if c0 > 0, an upper one if c0 < 0.
        chains: Tuple[list, list] = ([], [])
        for (c0, c1, k), (_, ay), (_, by) in zip(self._edges, rows, rows[1:] + rows[:1]):
            if c0:
                r0, r1 = -(-m * min(ay, by) // scale), m * max(ay, by) // scale
                chains[c0 < 0].append((r0, r1, (scale * abs(c0), scale * c1, m * k)))
        if not chains[0]:
            return [(y_lo, y_hi, (1, 0, -x_lo), (1, 0, x_hi))]
        runs = []
        for chain in chains:
            taken, run = y_lo - 1, []
            for r0, r1, bound in sorted(chain):
                if r1 > taken:
                    taken = r1
                    run.append((r1, bound))
            runs.append(run)
        bands, y = [], y_lo
        (lows, highs), i, j = runs, 0, 0
        while y <= y_hi:
            end = min(lows[i][0], highs[j][0])
            bands.append((y, end, lows[i][1], highs[j][1]))
            i, j = i + (lows[i][0] == end), j + (highs[j][0] == end)
            y = end + 1
        return bands

    def lattice_rows(self, m: int = 1) -> List[Tuple[int, int, int]]:
        """Integer points of m*P as the nonempty rows (y, x_lo, x_hi) of
        row_bands(m): the points (x, y) with x_lo <= x <= x_hi. In ambient
        dimension 1 there is at most one row, y = 0, for the points (x,)."""
        out = []
        for y0, y1, (d, e, f), (d2, e2, f2) in self.row_bands(m):
            for y in range(y0, y1 + 1):
                lo, hi = -((e * y + f) // d), (e2 * y + f2) // d2
                if lo <= hi:
                    out.append((y, lo, hi))
        return out

    def lattice_points(self, m: int = 1) -> List[IntVector]:
        """Integer points of m*P in lexicographic order (m >= 0)."""
        rows = self.lattice_rows(m)
        if self.ambient_dim == 1:
            return [(x,) for _, lo, hi in rows for x in range(lo, hi + 1)]
        return sorted((x, y) for y, lo, hi in rows for x in range(lo, hi + 1))

    def volume(self) -> Fraction:
        """Euclidean volume (length or area); 0 if not full-dimensional."""
        if self.affine_dim < self.ambient_dim:
            return ZERO
        v = self.vertices
        if self.ambient_dim == 1:
            return v[-1][0] - v[0][0]
        acc = ZERO
        for a, b in zip(v, v[1:] + v[:1]):
            acc += a[0] * b[1] - b[0] * a[1]
        return abs(acc) / 2

    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.ambient_dim

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polytope)
                and self.ambient_dim == other.ambient_dim
                and self._vertex_set == other._vertex_set)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._vertex_set))

    def __repr__(self) -> str:
        verts = ", ".join(str(tuple(map(str, v))) for v in self.vertices)
        return f"Polytope[{verts}]"


def unit_box(n: int) -> Polytope:
    """The cube [0,1]^n."""
    corners = list(itertools.product((0, 1), repeat=n))
    return Polytope.from_points(corners)


def simplex(n: int, size: int = 1) -> Polytope:
    """size times the standard simplex conv(0, e_1, ..., e_n)."""
    pts = [tuple(0 for _ in range(n))]
    for i in range(n):
        pts.append(tuple(size if j == i else 0 for j in range(n)))
    return Polytope.from_points(pts)


def segment(a, b) -> Polytope:
    """1-dimensional polytope [a, b] in the line."""
    return Polytope.from_points([(frac(a),), (frac(b),)])
