"""Exact rational polytopes in ambient dimension 1 or 2.

A Polytope is the convex hull of finitely many rational points: an interval
or a polygon. There are no tolerances anywhere: hulls, membership, lattice
rows and points, and volumes are computed with exact arithmetic only.
Other ambient dimensions are refused with PreconditionError. The
lower-dimensional bodies, a point or a segment in the plane, are supported
(their volume is 0) with their constraints in closed form.

Vertices are stored in canonical order: counterclockwise starting from the
lexicographic minimum for full-dimensional planar polytopes, lexicographically
sorted otherwise. Facets are half-spaces <a, x> <= b with primitive integer
normal a; lower-dimensional polytopes additionally carry affine-hull equations
<c, x> = d.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import PreconditionError
from .rational import (Point, ZERO, dot, frac, point, primitive_integer_vector,
                       primitive_same_direction, vadd, vsub)

IntVector = Tuple[int, ...]
HalfSpace = Tuple[IntVector, Fraction]   # <a, x> <= b
Equation = Tuple[IntVector, Fraction]    # <a, x> = b


def cross2(o: Sequence[Fraction], a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Signed area of the triangle o,a,b times two (ints or Fractions)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_1d(points: Sequence[Point]) -> List[Point]:
    lo = min(points)
    hi = max(points)
    return [lo] if lo == hi else [lo, hi]


def _hull_2d(points: Sequence[Point]) -> List[Point]:
    """Andrew's monotone chain; returns the hull counterclockwise, collinear
    boundary points dropped, starting at the lexicographic minimum."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: List[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        return [min(pts), max(pts)]
    return hull


class Polytope:
    """Convex hull of rational points; construct with Polytope.from_points."""

    def __init__(self, vertices: Sequence[Point], ambient_dim: int,
                 affine_dim: int, inequalities: Sequence[HalfSpace],
                 equalities: Sequence[Equation]):
        self.vertices: Tuple[Point, ...] = tuple(vertices)
        self.ambient_dim = ambient_dim
        self.affine_dim = affine_dim
        self.inequalities: Tuple[HalfSpace, ...] = tuple(inequalities)
        self.equalities: Tuple[Equation, ...] = tuple(equalities)
        self._vertex_set = frozenset(self.vertices)

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
        hull = _hull_1d(pts) if n == 1 else _hull_2d(pts)

        if len(hull) == 1:
            base = hull[0]
            equalities = [(tuple(1 if j == i else 0 for j in range(n)), base[i])
                          for i in range(n)]
            return cls(hull, n, 0, [], equalities)
        if n == 1:
            lo, hi = hull[0][0], hull[1][0]
            return cls(hull, 1, 1, [((1,), hi), ((-1,), -lo)], [])
        if len(hull) == 2:
            # segment in the plane: bounded along its direction u, pinned
            # to its line by the primitive normal
            a, b = hull
            u, _ = primitive_same_direction(vsub(b, a))
            minus_u = tuple(-c for c in u)
            normal, _ = primitive_integer_vector((a[1] - b[1], b[0] - a[0]))
            return cls(hull, 2, 1, [(u, dot(u, b)), (minus_u, dot(minus_u, a))],
                       [(normal, dot(normal, a))])
        ineqs = []
        for a, b in zip(hull, hull[1:] + hull[:1]):
            d = vsub(b, a)
            normal, _ = primitive_same_direction((d[1], -d[0]))
            ineqs.append((normal, dot(normal, a)))
        return cls(hull, 2, 2, ineqs, [])

    # -- queries ----------------------------------------------------------

    def contains(self, pt: Sequence) -> bool:
        """Exact membership of pt in P."""
        x = point(pt)
        for a, b in self.equalities:
            if dot(a, x) != b:
                return False
        for a, b in self.inequalities:
            if dot(a, x) > b:
                return False
        return True

    def lattice_rows(self, m: int = 1) -> List[Tuple[int, int, int]]:
        """Integer points of m*P as rows (y, x_lo, x_hi), by increasing y:
        the points (x, y) with x_lo <= x <= x_hi. In ambient dimension 1
        there is at most one row, with y = 0, standing for the points (x,)."""
        if m < 0:
            raise PreconditionError("dilation factor must be nonnegative")
        if self.ambient_dim == 1:
            y_lo = y_hi = 0
        else:
            ys = [m * v[1] for v in self.vertices]
            y_lo, y_hi = math.ceil(min(ys)), math.floor(max(ys))
        # Scaled by the denominator of b, each constraint reads
        # a0*x + a1*y <= rhs in integers; an equation is two opposite ones.
        # Those with a0 == 0 bound y only, so they hold on every row of the
        # y-span; the rest bound x from above (a0 > 0) or below (a0 < 0).
        halves = list(self.inequalities)
        for a, b in self.equalities:
            halves += [(a, b), (tuple(-c for c in a), -b)]
        upper, lower = [], []
        for a, b in halves:
            a0, a1 = a[0] * b.denominator, (a[1] if len(a) > 1 else 0) * b.denominator
            if a0 > 0:
                upper.append((a0, a1, m * b.numerator))
            elif a0 < 0:
                lower.append((-a0, a1, m * b.numerator))
        rows = []
        for y in range(y_lo, y_hi + 1):
            lo = max(-((rhs - a1 * y) // d) for d, a1, rhs in lower)
            hi = min((rhs - a1 * y) // d for d, a1, rhs in upper)
            if lo <= hi:
                rows.append((y, lo, hi))
        return rows

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

    def minkowski_sum(self, other: "Polytope") -> "Polytope":
        if self.ambient_dim != other.ambient_dim:
            raise PreconditionError("Minkowski sum needs equal ambient dimension")
        sums = [vadd(a, b) for a in self.vertices for b in other.vertices]
        return Polytope.from_points(sums)

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
