"""Piecewise-linear metrics on a rational polytope and their transforms.

A metric on the polytope P is the function psi(v) = min over branches of
max over pieces of <slope, v> + const, with rational data. Under the ordering
convention used throughout, a larger psi means a smaller metric, semipositive
metrics are exactly the convex psi, and the canonical metric corresponds to
the support function of P (slopes at the vertices of P, constants 0).

Two exact finite reductions carry everything. For convex max-of-affines
blocks, the lower hull of the lifted slopes gives minimal representations
and conjugates directly: the conjugate of a min of blocks is the max of the
block conjugates, each the block's lower-hull pieces (facets, a chain along
a line from polytope's one monotone chain, or a constant), on every
supported P, points and segments in the plane included. And one cell engine,
_dominance_cells, cuts a convex region into the sub-cells on which one
affine row is the max (or the min). Inside P it gives the linearity cells of
the conjugate, a RoofFunction, which yield integrals, Monge-Ampere measures,
lattice lengths (volumes) and the double-conjugate envelope, whose own
conjugate is that roof cut down to the pieces owning a cell. And one
pruned walk (_gap_maxima) gives every sup of a metric difference: it refines
a box of v-space depth-first for psi, splits each cell by every block of a
second metric, reads the gap at the corners, and drops every part on which a
row of psi and a row of each block already bound psi minus the second
metric by the running maximum. The gap to the envelope, the semipositivity
check (which stops at the first positive gap) and the sup-distance, two
walks one way and the other, all read it. A region that one row owns at
every corner is that row's one cell, with nothing clipped.

Metrics and roofs store only integer rows D * (slope, const) over their
lowest common denominator D, and build their Fraction blocks or pieces on
first access. The outputs of metric_deformations and metric_shift write
their conjugate's rows at once and their own integer rows only on first
read, as the differentiability and proportionality checks read only the
conjugate. Rational data is scaled once, by one common denominator, in
the PLMetric constructor; every kernel after that (the lifted lower hull and
the pruning by it, the conjugate's rows written from the hull planes, the
recession check, evaluation, the cells, distances, the envelope gap and
metric_deformations' Minkowski blocks, re-offset planes and translations)
computes with Python ints only. A schedule of deformations hulls each
Minkowski block once for all its positive eps: the lower facets of
conv A + eps conv B have the same normals at every eps > 0, so only their
offsets move. Each hull plane gives the deformation's conjugate one row:
of its translates to the pieces of the subtracted metric, the one whose
roof row has the largest constant. Points are homogeneous integer rows
(x, w) standing for x / w, in lowest terms with w > 0, so equal points have
equal rows. Rows have 2 entries on the line and 3 in the plane, and the
cells, walks and integrals read them by unpacking (_values). The hull
kernels return planes only, and one rule decides which rows a block keeps
(_on_hull): those whose lifted point lies on one of its hull planes. Stored
rows are divided by their gcd, which is read row by row, only when it is
above 1 (_lowest).

The recession check runs in the PLMetric constructor only, where rational
data enters; envelope, metric_deformations and metric_shift keep the
identity by theorem (see each), so every PLMetric satisfies it. When every branch has
the same slope hull, the check is one comparison of that hull with P; only
distinct hulls, or one hull that is not P, are probed direction by direction.
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from .errors import PreconditionError
from .polytope import Polytope, _homogeneous, _hull_1d, _hull_2d, _monotone_chain
from .rational import Point, ZERO, frac, frac_str, point, point_str

Piece = Tuple[Point, Fraction]          # v -> <slope, v> + const
Block = Tuple[Piece, ...]               # max over pieces
IntPlane = Tuple[int, ...]              # n.x + nz*z = d on scaled lifted points (x, z)
IntegerRows = Tuple[int, List[Tuple[int, ...]]]  # (D, [D * (slope, const)])
IntegerBlocks = Tuple[int, Tuple[Tuple[Tuple[int, ...], ...], ...]]  # (D, blocks of rows)
IntegerCells = List[Tuple[int, List[Tuple[int, ...]]]]  # [(piece index, corner rows)]


def _dedupe_rows(rows: Iterable[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """One row per slope, the one with the largest constant (the first of
    equal ones), in order of first occurrence; the rows are (slope, const)
    over one denominator."""
    best: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for r in rows:
        s = r[:-1]
        old = best.get(s)
        if old is None or r[-1] > old[-1]:
            best[s] = r
    return list(best.values())


def _lowest(scale: int, blocks: Sequence[Sequence[Tuple[int, ...]]]) -> IntegerBlocks:
    """Integer blocks over scale, both divided by their gcd: lowest terms.
    The gcd is read row by row and stops at 1, and the rows are rebuilt
    only when it is above 1 (else the row tuples are returned as they are)."""
    g = scale
    for b in blocks:
        for r in b:
            g = math.gcd(g, *r)
            if g == 1:
                return scale, tuple(map(tuple, blocks))
    return scale // g, tuple(tuple(tuple([x // g for x in r]) for r in b) for b in blocks)


def _piece(row: Sequence[int], scale: int) -> Piece:
    """The integer row over scale as a Fraction piece (slope, const)."""
    return tuple(Fraction(x, scale) for x in row[:-1]), Fraction(row[-1], scale)


# ---------------------------------------------------------------------------
# metric


class PLMetric:
    """min-of-max piecewise-linear metric on a reference polytope P.

    Any rational branches are accepted exactly when psi stays within bounded
    distance of the canonical metric, i.e. its recession function is the
    support function of P; otherwise PreconditionError, as for a slope with
    other than P's ambient number of coordinates. This constructor is the
    only place that checks the identity (against P's vertex cycle when every
    branch shares one slope hull, since then the recession is that hull's
    support function): envelope, metric_deformations and metric_shift,
    which build their outputs without it, keep the identity by theorem. The input is
    scaled once, to integer rows over one common denominator. Each branch
    keeps one row per slope (the largest constant) and only the rows on its
    lower hull (_on_hull), so pieces that never reach the branch's max are
    dropped. Those hulls are the conjugate, whose rows come straight from the
    hull planes and are stored on the metric. Every metric stores only its kept
    rows in lowest terms (integer_rows) and builds the Fraction blocks on
    first access. Those rows are one lazily filled attribute (_rows): the
    constructor and envelope fill it at once, and the outputs of
    metric_deformations and metric_shift, whose checks read only the
    conjugate, on first read, with the same rows as an eager build.
    """

    def __init__(self, polytope: Polytope, blocks: Sequence[Sequence[Piece]]):
        if not blocks or any(not b for b in blocks):
            raise PreconditionError("a metric needs at least one piece per branch")
        blocks = [[(*map(frac, s), frac(c)) for s, c in b] for b in blocks]
        n = polytope.ambient_dim
        for bi, b in enumerate(blocks):
            for pi, r in enumerate(b):
                if len(r) != n + 1:
                    raise PreconditionError(f"branch {bi}, piece {pi}: slope "
                                            f"{point_str(r[:-1])} needs {n} coordinates")
        scale = math.lcm(*{x.denominator for b in blocks for r in b for x in r})
        kept, planes = [], []
        for block in blocks:
            rows = _dedupe_rows([tuple([x.numerator * (scale // x.denominator) for x in r])
                                 for r in block])
            hull = _lower_hull(rows)
            kept.append([rows[i] for i in _on_hull(hull, rows)])
            planes += hull
        rows = _lowest(scale, kept)
        mismatch = _recession_mismatch(rows, polytope)
        if mismatch is not None:
            w, rec, sup = mismatch
            raise PreconditionError(
                "metric is not within bounded distance of the canonical metric: "
                f"rec(w) = {frac_str(rec)} but h_P(w) = {frac_str(sup)} "
                f"at w = {point_str(w)}")
        self._build(polytope, rows, _plane_roof(polytope, planes, scale))

    def _build(self, polytope: Polytope,
               rows: Union[IntegerBlocks, Callable[[], IntegerBlocks]],
               conjugate: "RoofFunction", semipositive: Optional[bool] = None) -> "PLMetric":
        """Set the metric from its blocks' integer rows in lowest terms, its
        conjugate and its semipositivity where a theorem gives it (None:
        is_semipositive decides on first call), all keeping the recession
        identity, and return it. The rows are given as they are, or as a
        function that builds them on first read (_rows)."""
        self.polytope = polytope
        if callable(rows):
            self._make_rows = rows
        else:
            self._rows = rows
        self._conjugate = conjugate
        self._envelope: Optional["PLMetric"] = None
        self._semipositive = semipositive
        return self

    @functools.cached_property
    def _rows(self) -> IntegerBlocks:
        """The blocks' integer rows of a metric built lazily, on first read."""
        return self._make_rows()

    @functools.cached_property
    def blocks(self) -> Tuple[Block, ...]:
        """The pruned blocks as Fraction pieces, built on first access."""
        scale, rows = self._rows
        return tuple(tuple(_piece(r, scale) for r in b) for b in rows)

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.polytope.ambient_dim

    def integer_rows(self) -> IntegerBlocks:
        """(D, blocks of rows D * (slope, const)) over the lowest common D."""
        return self._rows

    def evaluate(self, v: Sequence) -> Fraction:
        """min over blocks of max over rows of <row, (x, w)> / (D w) at v = x / w."""
        x = _homogeneous(point(v))
        scale, rows = self._rows
        return Fraction(min(max(sum(map(operator.mul, r, x)) for r in b) for b in rows),
                        scale * x[-1])

    __call__ = evaluate

    def is_convex_representation(self) -> bool:
        return len(self._rows[1]) == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, PLMetric)
                and self.polytope == other.polytope
                and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash((self.polytope, self._rows))

    def __repr__(self) -> str:
        return f"PLMetric({len(self._rows[1])} branch(es), dim {self.dim})"


def _recession_mismatch(rows: IntegerBlocks, P: Polytope
                        ) -> Optional[Tuple[Tuple[int, ...], Fraction, Fraction]]:
    """Exact directional check that the recession function equals the support
    function of P, i.e. psi stays within bounded distance of the canonical
    metric. A block's recession is the support function h_H of its slope hull
    H, which is linear between the normals of H's edges. So on each sector
    between angularly consecutive edge normals (both signs) of the blocks'
    hulls, rec = min_b h_H_b is concave and h_P convex, so rec - h_P is
    concave; it vanishes on the sector iff it vanishes on both rays and at
    one interior probe, and P's own edge normals add nothing. The slopes are
    the rows' over their D, and P's vertices its integer rows over their lcm
    V (integer_vertices), so rec(w) V is compared with h_P(w) D.

    The sectors come from the distinct hulls only, and when every block has
    the same hull H the answer is read off H: then rec = h_H, and two compact
    convex sets with equal support functions are equal, so the identity holds
    exactly when H is P (vertex cycles compared as D-scaled against
    V-scaled; the hulls list them in one canonical order, which a positive
    scaling keeps).

    Returns None when the two agree, else the first integer direction w
    probed where they differ, with rec(w) and h_P(w)."""
    n = P.ambient_dim
    hull = _hull_1d if n == 1 else _hull_2d
    scale, blocks = rows
    v_scale, verts = P.integer_vertices()
    hulls = list(dict.fromkeys([tuple(hull([r[:-1] for r in b])) for b in blocks]))
    if len(hulls) == 1 and [tuple([x * v_scale for x in s]) for s in hulls[0]] \
            == [tuple([x * scale for x in v]) for v in verts]:
        return None

    def rec(w: Tuple[int, ...]) -> int:
        return min(max(sum(map(operator.mul, s, w)) for s in h) for h in hulls)

    def sup(w: Tuple[int, ...]) -> int:
        return max(sum(map(operator.mul, v, w)) for v in verts)

    if n == 1:
        test: List[Tuple[int, ...]] = [(1,), (-1,)]
    else:
        dirs: Dict[Tuple[int, int], None] = {}
        for h in hulls:
            for a, b in zip(h, h[1:] + h[:1]):
                if a != b:
                    nx, ny = a[1] - b[1], b[0] - a[0]
                    g = math.gcd(nx, ny)
                    dirs.setdefault((nx // g, ny // g), None)
                    dirs.setdefault((-nx // g, -ny // g), None)
        ordered = _sort_by_angle(list(dirs) or [(1, 0), (0, 1), (-1, 0), (0, -1)])
        test = list(ordered)
        for a, b in zip(ordered, ordered[1:] + ordered[:1]):
            s = (a[0] + b[0], a[1] + b[1])
            test.append(s if s != (0, 0) else (-a[1], a[0]))
    for w in test:
        rec_w, sup_w = rec(w), sup(w)
        if rec_w * v_scale != sup_w * scale:
            return w, Fraction(rec_w, scale), Fraction(sup_w, v_scale)
    return None


def _sort_by_angle(dirs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Distinct directions by angle from (1, 0): the upper half-plane first,
    each half from its ray on the x axis by decreasing cotangent x / y."""
    return sorted(dirs, key=lambda d: (d[1] < 0 or (d[1] == 0 and d[0] < 0),
                                       d[1] != 0, Fraction(-d[0], d[1]) if d[1] else 0))


# ---------------------------------------------------------------------------
# roof functions (Legendre transforms)


class RoofFunction:
    """Convex PL function on the polytope, stored as a max of affine pieces.

    Evaluation outside the polytope is not meaningful. The pieces are stored
    only as integer rows (D*s, D*c), one per slope, over their lowest common
    denominator D (integer_rows); the Fraction pieces are built on first
    access. The linearity cells (dominance region of each piece inside P)
    are computed exactly on integers and feed integrals, envelopes, lattice
    lengths and Monge-Ampere measures, each cell corner u = x / w a
    homogeneous row (x, w) in lowest terms with w > 0.
    """

    def __init__(self, polytope: Polytope, scale: int, rows: Sequence[Tuple[int, ...]],
                 cells: Optional[IntegerCells] = None):
        """The roof of integer rows (slope, const) over scale with distinct
        slopes, stored in lowest terms; cells, when known, are its linearity
        cells (integer_cells)."""
        self.polytope = polytope
        scale, (rows,) = _lowest(scale, [rows])
        self._rows = scale, list(rows)
        self._integer_cells = cells
        self._integral: Optional[Fraction] = None

    @functools.cached_property
    def pieces(self) -> Block:
        """The pieces as Fractions (slope, const), built on first access."""
        scale, rows = self._rows
        return tuple(_piece(r, scale) for r in rows)

    def evaluate(self, u: Sequence) -> Fraction:
        """max over rows of <row, (x, w)> / (D w) at u = x / w."""
        x = _homogeneous(point(u))
        scale, rows = self._rows
        return Fraction(max(sum(map(operator.mul, r, x)) for r in rows), scale * x[-1])

    __call__ = evaluate

    def integer_rows(self) -> IntegerRows:
        """(D, rows): the pieces as integer rows D * (slope, const) over their
        lowest common denominator D."""
        return self._rows

    def integer_cells(self) -> IntegerCells:
        """The linearity cells of P's own dimension as (piece index, corner
        rows): a one-corner cell on a point, a two-corner cycle on a segment
        (in the line or in the plane), a CCW polygon on a polygon. Cached.

        They are P's sub-cells on which each piece is the max
        (_dominance_cells)."""
        if self._integer_cells is None:
            self._integer_cells = _dominance_cells(
                self.polytope.homogeneous_vertices, self.integer_rows()[1],
                self.polytope.affine_dim, 1)
        return self._integer_cells

    def integral(self) -> Fraction:
        """Exact integral over the polytope (0 for lower-dimensional P), cached.

        Over a cell's corners scaled to their lcm W, the piece takes
        F_k / (D W) at corner k, and a fan simplex with n! W^n times its
        volume A contributes A (sum of its F_k) / ((n+1)! D W^(n+1)). The
        numerators are summed per W, one Fraction each."""
        if self._integral is None and self.polytope.is_full_dimensional():
            scale, rows = self.integer_rows()
            n = self.polytope.ambient_dim
            sums: Dict[int, int] = {}
            for i, region in self.integer_cells():
                w, corners = _over_lcm(region)
                vals = _values(rows[i], corners)
                sums[w] = sums.get(w, 0) + sum(a * sum([vals[k] for k in simplex])
                                               for a, simplex in _fan(corners, n))
            self._integral = sum((Fraction(acc, math.factorial(n + 1) * scale * w ** (n + 1))
                                  for w, acc in sums.items()), ZERO)
        return self._integral or ZERO

    def cell_masses(self) -> List[Tuple[int, Fraction]]:
        """(piece index, n! times the cell volume) for every linearity cell
        (none on a lower-dimensional P, whose volume is 0)."""
        if not self.polytope.is_full_dimensional():
            return []
        n = self.polytope.ambient_dim
        out = []
        for i, region in self.integer_cells():
            w, corners = _over_lcm(region)
            out.append((i, Fraction(sum(a for a, _ in _fan(corners, n)), w ** n)))
        return out

    def __repr__(self) -> str:
        return f"RoofFunction({len(self._rows[1])} pieces)"


def _values(r: Sequence[int], corners: Sequence[Tuple[int, ...]]) -> List[int]:
    """<r, x> at each corner row x, for rows of 2 entries (the line) or 3
    (the plane), read by unpacking."""
    if len(r) == 3:
        a, b, c = r
        return [a * x + b * y + c * w for x, y, w in corners]
    a, c = r
    return [a * x + c * w for x, w in corners]


def _clip_cycle(cycle: List[Tuple[int, ...]], h: Sequence[int]) -> List[Tuple[int, ...]]:
    """Clip a convex cycle of homogeneous corner rows by <h, row> <= 0.

    The values <h, row> are read by unpacking (_values), rows of 2 or 3
    entries. The crossing on an edge p -> q is val_q * p - val_p * q, which
    has value 0; its last entry is negated to be positive and the row
    reduced by its gcd, so equal points have equal rows. Consecutive repeats
    are dropped. The output starts where the clip first keeps a corner or
    crosses an edge, walking the cycle from its first corner."""
    vals = _values(h, cycle)
    if max(vals) <= 0:
        return cycle
    out: List[Tuple[int, ...]] = []
    for p, q, vp, vq in zip(cycle, cycle[1:] + cycle[:1], vals, vals[1:] + vals[:1]):
        if vp <= 0:
            if not out or out[-1] != p:
                out.append(p)
            if vq <= 0:
                continue
        elif vq > 0:
            continue
        row = [vq * a - vp * b for a, b in zip(p, q)]
        g = math.gcd(*row) if row[-1] > 0 else -math.gcd(*row)
        x = tuple([c // g for c in row])
        if not out or out[-1] != x:
            out.append(x)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _dominance_cells(region: List[Tuple[int, ...]], rows: Sequence[Sequence[int]],
                     dim: int, sign: int) -> IntegerCells:
    """(row index, corner rows) for each sub-cell of dimension dim of the
    convex homogeneous cycle region on which that row is the max (sign 1) or
    the min (sign -1) of all rows: region clipped by the half-space where the
    row beats each other row, one integer dot product per corner (an interval
    of the line goes by the rows' crossings instead, _interval_cells).

    A row alone at the (signed) max on every corner owns all of region: the
    max of affine rows is convex, and every other row is strictly below it
    at some corner, so has no interior. Ties at every corner are clipped."""
    if len(rows) > 1:
        vals = [_values(r, region) for r in rows]
        top = list(map(max if sign > 0 else min, *vals))
        owners = [i for i, v in enumerate(vals) if v == top]
        if len(owners) == 1:
            return [(owners[0], region)]
    if len(region) == 2 and len(region[0]) == 2:
        return _interval_cells(region, rows, sign)
    cells: IntegerCells = []
    for i, own in enumerate(rows):
        cell = region
        for j, other in enumerate(rows):
            if j != i:
                pair = (other, own) if sign > 0 else (own, other)
                cell = _clip_cycle(cell, tuple(map(operator.sub, *pair)))
                if len(cell) <= dim:
                    break
        else:
            cells.append((i, cell))
    return cells


def _interval_cells(region: List[Tuple[int, ...]], rows: Sequence[Sequence[int]],
                    sign: int) -> IntegerCells:
    """_dominance_cells on an interval p -> q of the line, cut as its clips
    cut it: a row's cell runs from its last crossing with a row of smaller
    signed slope along p -> q to its first crossing with one of larger."""
    (px, pw), (qx, qw) = region
    o = 1 if px * qw < qx * pw else -1
    cells: IntegerCells = []
    for i, (s, c) in enumerate(rows):
        lo, hi = region
        for ds, dc in [(sign * (s - s2) * o, sign * (c - c2)) for s2, c2 in rows]:
            if ds == 0:   # the row itself, or one parallel to it
                if dc < 0:
                    break
                continue
            g = math.gcd(dc, ds) if ds > 0 else -math.gcd(dc, ds)
            t = (-dc * o // g, ds // g)   # the crossing, with w > 0
            if ds > 0 and (t[0] * lo[1] - lo[0] * t[1]) * o > 0:
                lo = t
            elif ds < 0 and (t[0] * hi[1] - hi[0] * t[1]) * o < 0:
                hi = t
        else:
            if (hi[0] * lo[1] - lo[0] * hi[1]) * o > 0:
                cells.append((i, [lo, hi]))
    return cells


def _over_lcm(region: List[Tuple[int, ...]]) -> Tuple[int, List[Tuple[int, ...]]]:
    """A cell's corner rows rescaled to the lcm W of their last entries."""
    w = math.lcm(*[r[-1] for r in region])
    return w, [tuple([x * (w // r[-1]) for x in r]) for r in region]


def _fan(corners: List[Tuple[int, ...]], n: int) -> Iterable[Tuple[int, Tuple[int, ...]]]:
    """The simplices of a cell fanned from its first corner, for corners
    over one common W: (n! W^n times the volume, corner indices)."""
    if n == 1:
        return [(abs(corners[1][0] - corners[0][0]), (0, 1))]
    x0, y0, _ = corners[0]
    return [(abs((p[0] - x0) * (q[1] - y0) - (p[1] - y0) * (q[0] - x0)), (0, k, k + 1))
            for k, (p, q) in enumerate(zip(corners[1:], corners[2:]), 1)]


# ---------------------------------------------------------------------------
# lifted lower hulls: exact conjugates of convex max-of-affines blocks


def _lower_facet_planes(points: Sequence[Tuple[int, int, int]]) -> List[IntPlane]:
    """Lower-hull facet planes of integer lifted points (x, y, z), of the
    lowest z per (x, y): primitive (nx, ny, nz, d) with nz < 0, every point
    satisfying nx*x + ny*y + nz*z <= d with equality on a full-dimensional
    contact set; empty when the base points are all collinear.

    Incremental convex hull; each facet, keyed by its oriented vertex triple,
    keeps its outward integer plane, so the visibility test is one integer
    dot product. Only downward-facing planes are reported, deduplicated, with
    vertical facets skipped, in the order their facets were made."""
    best: Dict[Tuple[int, int], int] = {}
    for x, y, z in points:
        if (x, y) not in best or z < best[(x, y)]:
            best[(x, y)] = z
    pts = [(x, y, z) for (x, y), z in best.items()]

    def plane(i: int, j: int, k: int) -> IntPlane:
        # outward normal (b - a) x (c - a) of the oriented facet (a, b, c);
        # a point p lies on its outward side when <n, p> > d
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = pts[i], pts[j], pts[k]
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        return nx, ny, nz, nx * ax + ny * ay + nz * az

    def above(pl: IntPlane, p: Tuple[int, int, int]) -> int:
        return pl[0] * p[0] + pl[1] * p[1] + pl[2] * p[2] - pl[3]

    i2 = next((k for k in range(2, len(pts)) if plane(0, 1, k)[:3] != (0, 0, 0)), None)
    if i2 is None:
        return []
    base = plane(0, 1, i2)
    i3 = next((k for k in range(2, len(pts)) if k != i2 and above(base, pts[k]) != 0),
              None)
    if i3 is None:
        return [_primitive_plane(base)] if base[2] != 0 else []

    order = [0, 1, i2, i3]
    order += [k for k in range(2, len(pts)) if k not in (i2, i3)]
    a, b, c, d = order[:4]
    if above(plane(a, b, c), pts[d]) > 0:
        b, c = c, b
    # Facets are oriented vertex triples mapped to their planes, in creation
    # order; each oriented edge maps to the last facet made with it, which
    # for an edge of the current hull is the facet that has it.
    facets: Dict[Tuple[int, int, int], IntPlane] = {}
    edges: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    # initial tetrahedron, all facets oriented outward
    for f in ((a, b, c), (a, c, d), (c, b, d), (b, a, d)):
        facets[f] = plane(*f)
        edges[f[0], f[1]] = edges[f[1], f[2]] = edges[f[2], f[0]] = f
    for m in order[4:]:
        x, y, z = pts[m]
        visible = {f: None for f, (nx, ny, nz, dd) in facets.items()
                   if nx * x + ny * y + nz * z > dd}
        horizon = [(u, v) for i, j, k in visible for u, v in ((i, j), (j, k), (k, i))
                   if edges[v, u] not in visible]
        for f in visible:
            del facets[f]
        for u, v in horizon:
            f = (u, v, m)
            facets[f] = plane(u, v, m)
            edges[u, v] = edges[v, m] = edges[m, u] = f
    # nz >= 0: vertical or upward-facing facet
    return list(dict.fromkeys(_primitive_plane(pl) for pl in facets.values() if pl[2] < 0))


def _primitive_plane(pl: IntPlane) -> IntPlane:
    """The plane scaled to coprime integers with nz < 0 (nz must be nonzero)."""
    g = math.gcd(*pl)
    if pl[2] > 0:
        g = -g
    return tuple([x // g for x in pl])


def _lower_hull(rows: Sequence[Tuple[int, ...]]) -> List[IntPlane]:
    """Lower hull of a convex block's lifted slopes (s, -c), for the block
    given as integer rows (L*s, L*c) with distinct slopes.

    Returns its planes (n, nz, d), n.x + nz*z = d on the lifted points
    (x, z) = (L*s, -L*c), whose pieces u -> <-n, u>/nz + d/(nz L)
    (_plane_roof) have as max the block's conjugate on the affine hull of its
    slopes; the rows on them are the ones the block keeps (_on_hull). The
    planes are the facet planes when the slopes span the plane, the lines of
    the lower chain along the line (with n along it) when they are
    collinear, and the constant -c for a single slope. Every test is an
    integer sign."""
    dim = len(rows[0]) - 1
    lifted = [(*r[:-1], -r[-1]) for r in rows]
    planes = _lower_facet_planes(lifted) if dim == 2 else []
    if planes:
        return planes
    e = (1,) if dim == 1 else tuple(a - b for a, b in zip(max(lifted), min(lifted)[:2]))
    ts = _values((*e, 0), lifted)   # positions along the line
    chain = _monotone_chain(sorted(zip(ts, [p[-1] for p in lifted])))
    return [(*[(z1 - z2) * k for k in e], t2 - t1, z1 * t2 - z2 * t1)
            for (t1, z1), (t2, z2) in zip(chain, chain[1:])] or [(0,) * dim + (1, chain[0][1])]


def _on_hull(planes: Sequence[IntPlane], rows: Sequence[Tuple[int, ...]]) -> List[int]:
    """The indices, in row order, of the integer rows (s, c) whose lifted
    point (s, -c) lies on one of a block's hull planes (_lower_hull,
    _reoffset): the rows the block keeps. The others lie strictly above its
    lower hull, so they never reach the block's max and change no value.
    This is the only kept-row rule; every test is an integer equality."""
    kept = []
    if len(rows[0]) == 2:
        for i, (s, c) in enumerate(rows):
            for a, b, d in planes:
                if a * s - b * c == d:
                    kept.append(i)
                    break
        return kept
    for i, (x, y, c) in enumerate(rows):
        for a, b, nz, d in planes:
            if a * x + b * y - nz * c == d:
                kept.append(i)
                break
    return kept


def _plane_roof(P: Polytope, planes: Sequence[IntPlane], scale: int) -> RoofFunction:
    """The roof on P that is the max of the hull planes' pieces. The piece
    of a plane n.x + nz*z = d over lifted points scaled by scale is the row
    (-k*scale*n, k*d) over N*scale, for N the lcm of the planes' nz and
    k = N/nz."""
    lcm = math.lcm(*{pl[-2] for pl in planes})
    rows = []
    for pl in planes:
        k = lcm // pl[-2]
        rows.append((*[-k * scale * x for x in pl[:-2]], k * pl[-1]))
    return RoofFunction(P, lcm * scale, _dedupe_rows(rows))


# ---------------------------------------------------------------------------
# public operations


def canonical_metric(P: Polytope) -> PLMetric:
    """The metric whose psi is the support function of P."""
    return PLMetric(P, [[(v, ZERO) for v in P.vertices]])


def legendre(metric: PLMetric) -> RoofFunction:
    """Exact Legendre conjugate psi*(u) = sup_v(<u,v> - psi(v)) on P.

    The conjugate of a min of convex blocks is the max of the block
    conjugates, and each block conjugate is the lower hull of its lifted
    slopes (valid on all of P because the recession identity makes every
    block's slope hull contain P). Every metric stores its conjugate as
    integer rows, so it is read from the metric: the constructor writes the
    rows of the hull planes it builds while pruning each block,
    metric_deformations one row per moved hull plane, and an envelope
    takes its metric's roof rows cut down to the pieces that own a cell (see
    envelope).
    """
    return metric._conjugate


def envelope(metric: PLMetric) -> PLMetric:
    """Largest convex (semipositive) metric below psi: the double conjugate.

    The second conjugation runs over P only, and its sup is attained at a
    corner of a linearity cell of the roof (the contact set is a face of the
    roof's cell complex, and every face of a finite subdivision of P contains
    a cell corner). A cell is closed, so the piece that owns it attains the
    roof's max at each of its corners: a corner's value is that one piece's
    integer row at the corner's row. The same holds on points and segments in
    the plane, whose cells tile P with one or two corners each.

    Nothing is hulled: by Jensen every lifted corner (u, roof(u)) lies on
    the graph of the convex roof, so their lower hull is the roof on P. Every
    corner is kept, the envelope's conjugate is the roof cut down to the
    pieces that own a cell, in cell order, as their rows in lowest terms, and
    its cells are the roof's, re-indexed. The corners are stored as integer
    rows over their lowest common denominator. The recession identity needs
    no check: the single block holds every vertex of P, so its slope hull is
    P.
    """
    if metric._envelope is not None:
        return metric._envelope
    P, roof = metric.polytope, legendre(metric)
    scale, rows = roof.integer_rows()
    cells = roof.integer_cells()
    owner: Dict[Tuple[int, ...], int] = {}
    for i, region in cells:
        for r in region:
            owner.setdefault(r, i)
    w, points = _over_lcm(list(owner))
    corners = [(*[scale * x for x in r[:-1]], -sum(map(operator.mul, rows[i], r)))
               for r, i in zip(points, owner.values())]
    conjugate = RoofFunction(P, scale, [rows[i] for i, _ in cells],
                             [(k, region) for k, (_, region) in enumerate(cells)])
    env = PLMetric.__new__(PLMetric)._build(P, _lowest(scale * w, [corners]), conjugate, True)
    metric._envelope = env._envelope = env
    return env


def distance(m1: PLMetric, m2: PLMetric) -> Fraction:
    """Exact sup-norm distance sup_v |psi1 - psi2| (finite: equal recessions)
    between two arbitrary metrics, for volumes.lipschitz_check: the larger of
    sup(psi1 - psi2) and sup(psi2 - psi1), two walks of _gap_maxima, the
    second from the first's maximum (which it keeps if it finds none higher)."""
    if m1.polytope != m2.polytope:
        raise PreconditionError("distance needs metrics on the same polytope")
    return _gap_sup(m2, m1, _gap_sup(m1, m2))


def envelope_gap(metric: PLMetric) -> Fraction:
    """Exact sup_v (psi - P(psi))(v) for the envelope P(psi): the walk of
    _gap_maxima for psi against P(psi). As P(psi) <= psi, it is also
    distance(metric, envelope(metric)); it is >= 0, and 0 exactly when psi
    is semipositive."""
    return _gap_sup(metric, envelope(metric))


def _box(dim: int, *metrics: Sequence[Sequence[Tuple[int, ...]]]) -> List[Tuple[int, ...]]:
    """The box |v_i| <= R of _gap_maxima for metrics given as blocks of
    integer rows, as a cycle of homogeneous corner rows."""
    m = max([abs(c) for blocks in metrics for b in blocks for r in b for c in r])
    r = 8 * m * m + 1 if dim == 2 else 2 * m + 1
    return [(-r, 1), (r, 1)] if dim == 1 else [(-r, -r, 1), (r, -r, 1), (r, r, 1), (-r, r, 1)]


def _branch_cells(region: List[Tuple[int, ...]], blocks: Sequence[Sequence[Tuple[int, ...]]],
                  dim: int, cut: Callable[..., bool]
                  ) -> Iterator[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]]:
    """The sub-cells of region on which the min over blocks of the max over
    each block's rows is one row, as (that row, corner rows): region split
    by each block's max, then by the min of the blocks' active rows.

    The parts are walked depth-first, one block deeper at a time, and each
    cell is yielded as soon as it is cut. A part on which cut(row, part)
    holds for the row of the block last refined on it is dropped with all
    its cells, and so is a cell on which cut(row, cell) holds for its own
    row; cut is read as each part is reached, so it may depend on the cells
    yielded before."""
    stack: List[Tuple[Tuple[Tuple[int, ...], ...], List[Tuple[int, ...]]]] = [((), region)]
    while stack:
        active, part = stack.pop()
        if active and cut(active[-1], part):
            continue
        if len(active) < len(blocks):
            block = blocks[len(active)]
            stack += [(active + (block[i],), cell)
                      for i, cell in _dominance_cells(part, block, dim, 1)]
            continue
        for i, cell in _dominance_cells(part, active, dim, -1):
            if not cut(active[i], cell):
                yield active[i], cell


def _gap_sup(psi: PLMetric, other: PLMetric, floor: Fraction = ZERO) -> Fraction:
    """max(floor, sup_v (psi - other)(v)): the last of _gap_maxima."""
    for floor in _gap_maxima(psi, other, floor):
        pass
    return floor


def _gap_maxima(psi: PLMetric, other: PLMetric, floor: Fraction = ZERO) -> Iterator[Fraction]:
    """Each new running maximum above floor of psi - other at the corners of
    the walk's cells, increasing, the last one sup_v (psi - other)(v).

    psi's blocks are walked by _branch_cells in the _box of both metrics,
    and each cell left, on which psi is one row a, is split by each block b
    of other; where b is its row f, a - f is read at the corners. As other
    is the min of its blocks, psi - other is the max over b of psi - b, and
    an affine function on a convex cell peaks at a corner. With psi's rows
    over D and other's over E, the gap at a corner (x, w) is
    (a.x E - f.x D) / (D E w).

    The cut drops a part, or a cell of the min stage, when for its row r
    (of the block last refined on the part, or the cell's) every block of
    other has a row f with (r - f)(x) <= best, the running maximum, at every
    corner x. There psi <= r, each block is >= its row f, and r - f peaks at
    a corner, so psi - other <= best on the whole part.

    The box |v_i| <= R, R = 8M^2 + 1 in the plane and 2M + 1 on the line for
    the largest entry M of either metric's rows, loses nothing. Every vertex
    of the refinement of v-space by the rows of psi and of each block of
    other crosses two walls (r - r').(v, 1) = 0, each between rows of one
    metric, with entries at most 2M and a nonzero integer determinant, so it
    lies strictly inside the box. An affine function bounded above on a cell
    (psi - b <= psi - other) peaks at a vertex of the cell; on a cell with no
    vertex it is constant along the cell's lines and peaks on a wall, and
    every wall has a point with one coordinate at most 2M and the other 0."""
    (d, blocks), (e, others) = psi.integer_rows(), other.integer_rows()
    dim = psi.dim
    best, best_w = floor.numerator * d * e, floor.denominator

    def cut(row: Tuple[int, ...], part: List[Tuple[int, ...]]) -> bool:
        """Every block of other has a row f with row - f <= best at each corner."""
        tops = [v * e for v in _values(row, part)]
        for block in others:
            for low in block:
                for top, v, x in zip(tops, _values(low, part), part):
                    if (top - v * d) * best_w > best * x[-1]:
                        break
                else:
                    break       # low bounds this block
            else:
                return False    # no row of this block bounds it
        return True

    for a, cell in _branch_cells(_box(dim, blocks, others), blocks, dim, cut):
        for block in others:
            for i, piece in _dominance_cells(cell, block, dim, 1):
                for x, va, vf in zip(piece, _values(a, piece), _values(block[i], piece)):
                    gap = va * e - vf * d
                    if gap * best_w > best * x[-1]:
                        best, best_w = gap, x[-1]
                        yield Fraction(best, best_w * d * e)


def is_semipositive(metric: PLMetric) -> bool:
    """Exact convexity check, cached on the metric: psi equals its envelope,
    i.e. psi - P(psi) is positive at no corner of the walk's cells
    (_gap_maxima). It reads the walk's first running maximum only, so it stops at the first
    positive gap; a single-branch metric is convex by shape and walks
    nothing."""
    if metric._semipositive is None:
        metric._semipositive = (metric.is_convex_representation()
                                or next(_gap_maxima(metric, envelope(metric)), None) is None)
    return metric._semipositive


def metric_shift(metric: PLMetric, t) -> PLMetric:
    """psi + t, i.e. the metric scaled by e^{-t}. Every hull and its order
    stay: for t = p/q, a kept row r over D becomes q*r + (0, ..., p*D) over
    q*D and a roof row r over E becomes q*r - (0, ..., p*E) over q*E. Nothing
    is hulled, and semipositivity and the recession identity carry over. The
    roof keeps its cells: a constant shift moves no cell. The roof rows are
    written at once and the kept rows on first read (_shifted_rows), since
    lattice lengths read only the roof."""
    t = frac(t)
    p, q = t.numerator, t.denominator
    e, roof = legendre(metric).integer_rows()
    moved = RoofFunction(metric.polytope, q * e,
                         [(*[q * x for x in r[:-1]], q * r[-1] - p * e) for r in roof],
                         metric._conjugate.integer_cells())
    return PLMetric.__new__(PLMetric)._build(
        metric.polytope, functools.partial(_shifted_rows, metric, p, q), moved,
        metric._semipositive)


def _shifted_rows(metric: PLMetric, p: int, q: int) -> IntegerBlocks:
    """metric_shift's kept rows for t = p/q, in lowest terms."""
    d, blocks = metric.integer_rows()
    return _lowest(q * d, [[(*[q * x for x in r[:-1]], q * r[-1] + p * d) for r in b]
                           for b in blocks])


def _reoffset(planes: Sequence[IntPlane], rows: Sequence[Tuple[int, ...]]) -> List[IntPlane]:
    """_lower_hull(rows) read from the planes of the same branch pair's hull
    at another positive eps (see metric_deformations): each plane keeps its
    normal and takes as offset the supporting value over rows' lifted points,
    the max for a facet plane (nz < 0, every point on or below it) and the
    min for a line of a chain or the constant (nz > 0, every point on or
    above it)."""
    lifted = [(*r[:-1], -r[-1]) for r in rows]
    return [pl[:-1] + ((max if pl[-2] < 0 else min)(_values(pl[:-1], lifted)),) for pl in planes]


def metric_deform(psi: PLMetric, eps, pos: PLMetric, neg: PLMetric) -> PLMetric:
    """psi + eps*(pos - neg) on the same polytope, exact min-of-max form: the
    one output of metric_deformations for the schedule [eps], so every branch
    pair is hulled at eps itself and the roof rows follow that hull."""
    return metric_deformations(psi, [eps], pos, neg)[0]


def metric_deformations(psi: PLMetric, eps_values: Iterable, pos: PLMetric,
                        neg: PLMetric) -> List[PLMetric]:
    """psi + eps*(pos - neg) on the same polytope for each eps of eps_values,
    in order, exact min-of-max form. Every eps (nonnegative), the three
    polytopes and neg's semipositivity are checked before anything is hulled.

    pos may be any metric; neg must be semipositive (its convex single-branch
    envelope is subtracted, which is what makes the min-of-max normal form
    close under the difference). All three are taken as integer rows, and
    with eps = p/q everything below is over the one denominator
    L = lcm(D_psi, q D_pos, q D_neg). Each branch pair of psi and pos gives
    one Minkowski block B = {L (s1 + eps*s2, c1 + eps*c2)}, deduped by
    integer slope (largest constant); the branch for the piece (s_l, c_l) of
    neg is B moved by (T, T_c) = L eps (s_l, c_l), which translates B's
    lifted points (x, z) = (L s, -L c) by (-T, T_c) and so their lower hull:
    kept rows move by -(T, T_c), and a hull plane n.x + nz*z = d (a facet,
    or a line of a chain) moves to d - n.T + nz*T_c = d - L eps v_l for
    v_l = n.s_l - nz*c_l. The conjugate's rows are written from the moved
    planes (_plane_roof), with no Fraction built. All translates of a plane
    share its normal, so their roof rows share a slope, and _plane_roof's
    dedupe keeps the one with the largest constant, k d' for k = N/nz of
    nz's sign: the smallest moved offset d' for a facet (nz < 0), the
    largest for a chain line or the constant (nz > 0). So each plane is
    moved once, by the piece of neg with the largest v_l for a facet and the
    smallest for a chain line, which depends on the normal only and is
    found once per normal for the whole schedule; the planes keep the order
    of their first translates, so the roof rows are the ones, in the order,
    that every translate would give. Each output keeps every branch pair's
    (rows, hull planes) and builds its kept rows on first read
    (_translated_rows), so a schedule that reads only the conjugate tests no
    row against a plane. The recession identity needs no check: recession is
    additive on PL functions, so rec = h_P + eps*h_P - eps*h_P.

    Each branch pair is hulled once for all positive eps, at the first of
    them (_lower_hull), and once more at eps = 0, where B is psi's branch
    alone. B's lifted points are L (a + eps*b) for the lifted points a of
    psi's branch and b of pos's, and a linear form takes its max (or min)
    over the sums a + eps*b exactly at the sums of an a and a b that each
    take the form's max (min) over their own branch, whatever eps > 0, since
    max (a + eps*b) = max a + eps * max b. So a point a + eps*b lies on the
    lower facet (or chain segment) with normal (n, nz) exactly when a and b
    each lie on their branch's face of that normal. The faces of
    conv A + eps conv B are the sums of A's and B's faces of one normal,
    whose dimension does not depend on eps > 0, so its lower facets (the
    segments of its lower chain, for collinear slopes) have the same normals
    at every eps > 0, and only their offsets move (the Cayley trick;
    Huber-Sturmfels 1995). Deduplication changes nothing: where two slopes
    collide at some eps, the two rows either tie, or the one with the
    smaller constant lifts strictly higher and lies on no lower facet. A
    later positive eps therefore keeps the first hull's normals and takes
    each offset as the supporting value over its own lifted points
    (_reoffset).

    A later output equals a fresh hull's in its blocks, its roof function
    and every value; only the order of its roof rows is the first hull's
    plane order, which can differ from a fresh hull's (metric_deform hulls
    at its own eps, so its roof rows keep _lower_hull's order)."""
    eps_values = [frac(eps) for eps in eps_values]
    if any(eps < 0 for eps in eps_values):
        raise PreconditionError("deformation parameter must be nonnegative")
    P = psi.polytope
    if pos.polytope != P or neg.polytope != P:
        raise PreconditionError("direction metrics must live on the same polytope")
    if not is_semipositive(neg):
        raise PreconditionError("the subtracted part of a direction must be semipositive")
    d3, (rows3,) = (neg if neg.is_convex_representation() else envelope(neg)).integer_rows()
    (d1, rows1), (d2, rows2) = psi.integer_rows(), pos.integer_rows()
    pairs = [(b1, b2) for b1 in rows1 for b2 in rows2]
    first: List[List[IntPlane]] = []   # the first positive eps's planes, per pair
    far: Dict[Tuple[int, ...], int] = {}   # per hull normal, its extreme over neg's rows
    out = []
    for eps in eps_values:
        p, q = eps.numerator, eps.denominator
        scale = math.lcm(d1, q * d2, q * d3)
        f1, f2, f3 = scale // d1, p * (scale // (q * d2)), p * (scale // (q * d3))
        hulls, planes = [], []
        for k, (b1, b2) in enumerate(pairs):
            rows = _dedupe_rows([tuple([f1 * x + f2 * y for x, y in zip(r1, r2)])
                                 for r1 in b1 for r2 in b2])
            hull = _reoffset(first[k], rows) if p and first else _lower_hull(rows)
            hulls.append((rows, hull))
            for pl in hull:
                n = pl[:-1]
                if n not in far:
                    vals = _values((*n[:-1], -n[-1]), rows3)
                    far[n] = max(vals) if n[-1] < 0 else min(vals)
                planes.append(n + (pl[-1] - f3 * far[n],))
        if p and not first:
            first = [hull for _, hull in hulls]
        out.append(PLMetric.__new__(PLMetric)._build(
            P, functools.partial(_translated_rows, scale, hulls, rows3, f3),
            _plane_roof(P, planes, scale)))
    return out


def _translated_rows(scale: int, hulls: Sequence[Tuple[Sequence[Tuple[int, ...]], List[IntPlane]]],
                     rows3: Sequence[Tuple[int, ...]], f3: int) -> IntegerBlocks:
    """metric_deformations' kept rows over scale, in lowest terms: for each
    branch pair's (rows, hull planes), its rows on the hull (_on_hull, once
    per pair) and one block per row of neg, those rows moved by
    -(T, T_c) = -f3 times neg's row."""
    shifts = [([f3 * x for x in row[:-1]], f3 * row[-1]) for row in rows3]
    kept = [[rows[i] for i in _on_hull(hull, rows)] for rows, hull in hulls]
    return _lowest(scale, [[tuple(map(operator.sub, r, t)) + (r[-1] - tc,) for r in b]
                           for b in kept for t, tc in shifts])
