"""Piecewise-linear metrics on a rational polytope and their transforms.

A metric on the polytope P is the function psi(v) = min over branches of
max over pieces of <slope, v> + const, with rational data. Under the ordering
convention used throughout, a larger psi means a smaller metric, semipositive
metrics are exactly the convex psi, and the canonical metric corresponds to
the support function of P (slopes at the vertices of P, constants 0).

Two exact finite reductions carry everything. For min-of-max functions,
arrangement candidate points (pairwise wall crossings plus representatives)
meet the closure of every linearity cell, so suprema and distances reduce to
finitely many evaluations. For convex max-of-affines blocks, the lower hull
of the lifted slopes gives minimal representations and conjugates directly:
the conjugate of a min of blocks is the max of the block conjugates, each
the block's lower-hull pieces (facets, a chain along a line, or a constant),
on every supported P, points and segments in the plane included. The
Legendre conjugate is stored as a RoofFunction (max of affine pieces
restricted to P) whose exact linearity cells inside P yield integrals, the
double-conjugate envelope and Monge-Ampere measures.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .linalg import solve2x2
from .polytope import Polytope, _hull_1d, _hull_2d
from .rational import (Point, ZERO, dot, frac, point, primitive_same_direction,
                       vadd, vscale, vsub)

Piece = Tuple[Point, Fraction]          # v -> <slope, v> + const
Block = Tuple[Piece, ...]               # max over pieces
Wall = Tuple[Tuple[int, ...], Fraction]  # <a, v> = b, canonical form


# ---------------------------------------------------------------------------
# piece arrangements


def _canonical_wall(normal: Sequence[Fraction], rhs: Fraction) -> Wall:
    prim, s = primitive_same_direction(normal)
    rhs = rhs * s
    for c in prim:
        if c != 0:
            if c < 0:
                prim = tuple(-x for x in prim)
                rhs = -rhs
            break
    return prim, rhs


def _walls(pieces: Sequence[Piece]) -> List[Wall]:
    seen: Dict[Wall, None] = {}
    for (s1, c1), (s2, c2) in itertools.combinations(pieces, 2):
        if s1 == s2:
            continue
        wall = _canonical_wall(vsub(s1, s2), c2 - c1)
        seen.setdefault(wall, None)
    return list(seen.keys())


def _wall_representative(wall: Wall) -> Point:
    a, b = wall
    if len(a) == 1:
        return (b / a[0],)
    if a[0] != 0:
        return (b / a[0], ZERO)
    return (ZERO, b / a[1])


def arrangement_points(walls: Sequence[Wall], dim: int) -> List[Point]:
    """Candidate points meeting the closure of every cell of the arrangement
    of the given walls: for dim 2 all pairwise wall crossings, one
    representative point per wall (covers all-parallel arrangements), and a
    base point. A function linear on every cell attains a finite sup here.
    """
    pts: Dict[Point, None] = {}
    pts.setdefault(tuple(ZERO for _ in range(dim)), None)
    for wall in walls:
        pts.setdefault(_wall_representative(wall), None)
    if dim == 1:
        return list(pts.keys())
    for (a1, b1), (a2, b2) in itertools.combinations(walls, 2):
        sol = solve2x2(frac(a1[0]), frac(a1[1]), frac(a2[0]), frac(a2[1]), b1, b2)
        if sol is not None:
            pts.setdefault(sol, None)
    return list(pts.keys())


def _segment_wall_crossings(wall: Wall, edge: Tuple[Point, Point]) -> List[Point]:
    (a, b), (p, q) = wall, edge
    d = vsub(q, p)
    denom = dot(a, d)
    lhs = b - dot(a, p)
    if denom == 0:
        if lhs == 0:
            return [p, q]
        return []
    t = lhs / denom
    if 0 <= t <= 1:
        return [vadd(p, vscale(t, d))]
    return []


def _eval_pieces(pieces: Sequence[Piece], v: Sequence[Fraction]) -> Fraction:
    best = None
    for s, c in pieces:
        val = dot(s, v) + c
        if best is None or val > best:
            best = val
    assert best is not None
    return best


def _dedupe_block(block: Iterable[Piece]) -> Block:
    by_slope: Dict[Point, Fraction] = {}
    order: List[Point] = []
    for s, c in block:
        if s not in by_slope:
            by_slope[s] = c
            order.append(s)
        elif c > by_slope[s]:
            by_slope[s] = c
    return tuple((s, by_slope[s]) for s in order)


# ---------------------------------------------------------------------------
# metric


class PLMetric:
    """min-of-max piecewise-linear metric on a reference polytope."""

    def __init__(self, polytope: Polytope, blocks: Sequence[Sequence[Piece]],
                 validate: str = "strict"):
        if not blocks or any(not b for b in blocks):
            raise PreconditionError("a metric needs at least one piece per branch")
        self.polytope = polytope
        clean = tuple(_dedupe_block(
            ((point(s), frac(c)) for s, c in block)) for block in blocks)
        self._conjugate: Optional["RoofFunction"] = None
        if validate == "strict":
            self._validate_strict(clean)
            self.blocks: Tuple[Block, ...] = clean
        elif validate == "recession":
            # Each block keeps the pieces whose lifted point lies on its lower
            # hull, which changes no value. The recession identity makes every
            # block's slope hull contain P, so the hulls are the conjugate on P.
            hulls = [_lower_hull(block) for block in clean]
            self.blocks = tuple(
                tuple(p for p in block if -p[1] == _eval_pieces(hull, p[0]))
                for block, hull in zip(clean, hulls))
            if not _recession_matches_support(self.blocks, polytope):
                raise PreconditionError(
                    "metric is not within bounded distance of the canonical metric")
            self._conjugate = RoofFunction(polytope, [p for h in hulls for p in h])
        else:
            raise ValueError(f"unknown validation mode {validate!r}")
        self._envelope: Optional["PLMetric"] = None
        self._semipositive: Optional[bool] = None

    def _validate_strict(self, blocks: Tuple[Block, ...]) -> None:
        P = self.polytope
        for block in blocks:
            slopes = {s for s, _ in block}
            for s in slopes:
                if not P.contains(s):
                    raise PreconditionError(
                        f"slope {tuple(map(str, s))} lies outside the polytope")
            for v in P.vertices:
                if v not in slopes:
                    raise PreconditionError(
                        "each branch needs every polytope vertex among its slopes "
                        f"(missing {tuple(map(str, v))})")

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.polytope.ambient_dim

    def all_pieces(self) -> List[Piece]:
        return [p for block in self.blocks for p in block]

    def evaluate(self, v: Sequence) -> Fraction:
        x = point(v)
        return min(_eval_pieces(block, x) for block in self.blocks)

    __call__ = evaluate

    def is_convex_representation(self) -> bool:
        return len(self.blocks) == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, PLMetric)
                and self.polytope == other.polytope
                and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.polytope, self.blocks))

    def __repr__(self) -> str:
        return f"PLMetric({len(self.blocks)} branch(es), dim {self.dim})"


def _recession_matches_support(blocks: Tuple[Block, ...], P: Polytope) -> bool:
    """Exact directional check that the recession function equals the support
    function of P, i.e. psi stays within bounded distance of the canonical
    metric. A block's recession is the support function of its slope hull, so
    only hull vertices enter. Directions: all wall directions of both
    homogeneous fans plus a perpendicular/interior probe per sector."""
    n = P.ambient_dim
    hull = _hull_1d if n == 1 else _hull_2d
    hulls = [hull([s for s, _ in b]) for b in blocks]
    slopes = list(dict.fromkeys(s for h in hulls for s in h))
    verts = list(P.vertices)

    def rec(w: Point) -> Fraction:
        return min(max(dot(s, w) for s in h) for h in hulls)

    def sup(w: Point) -> Fraction:
        return max(dot(v, w) for v in verts)

    if n == 1:
        return all(rec(w) == sup(w) for w in [(frac(1),), (frac(-1),)])

    dirs: Dict[Point, None] = {}
    for group in (slopes, verts):
        for a, b in itertools.combinations(group, 2):
            d = vsub(a, b)
            for signed in (d, vscale(frac(-1), d)):
                prim, _ = primitive_same_direction((-signed[1], signed[0]))
                dirs.setdefault(tuple(frac(c) for c in prim), None)
    axis = [point((1, 0)), point((0, 1)), point((-1, 0)), point((0, -1))]
    test: List[Point] = list(dirs.keys()) + axis
    ordered = _sort_by_angle(list(dirs.keys()) or axis)
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        s = vadd(a, b)
        if s == (ZERO, ZERO):
            s = point((-a[1], a[0]))
        test.append(s)
    return all(rec(w) == sup(w) for w in test)


def _sort_by_angle(dirs: List[Point]) -> List[Point]:
    def quadrant(d: Point) -> int:
        x, y = d
        if y > 0 or (y == 0 and x > 0):
            return 0
        return 1

    def cmp(a: Point, b: Point) -> int:
        qa, qb = quadrant(a), quadrant(b)
        if qa != qb:
            return -1 if qa < qb else 1
        cr = a[0] * b[1] - a[1] * b[0]
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        return 0

    return sorted(dirs, key=functools.cmp_to_key(cmp))


# ---------------------------------------------------------------------------
# roof functions (Legendre transforms)


class RoofFunction:
    """Convex PL function on the polytope, stored as a max of affine pieces.

    Evaluation outside the polytope is not meaningful. The linearity cells
    (dominance region of each piece inside P) are computed exactly and feed
    integrals, envelopes and Monge-Ampere measures.
    """

    def __init__(self, polytope: Polytope, pieces: Sequence[Piece]):
        self.polytope = polytope
        self.pieces: Block = _dedupe_block(
            (point(s), frac(c)) for s, c in pieces)
        if not self.pieces:
            raise PreconditionError("a roof function needs at least one piece")
        self._cells: Optional[List[Tuple[int, List[Point]]]] = None

    def evaluate(self, u: Sequence) -> Fraction:
        return _eval_pieces(self.pieces, point(u))

    __call__ = evaluate

    def cells(self) -> List[Tuple[int, List[Point]]]:
        """Full-dimensional linearity cells inside P as (piece index, vertex
        list); 1-d cells are endpoint pairs, 2-d cells CCW polygons. Cached."""
        if self._cells is not None:
            return self._cells
        P = self.polytope
        out: List[Tuple[int, List[Point]]] = []
        if not P.is_full_dimensional():
            self._cells = out
            return out
        if P.ambient_dim == 1:
            xs = [v[0] for v in P.vertices]
            lo, hi = min(xs), max(xs)
            for i, (si, ci) in enumerate(self.pieces):
                a, b = lo, hi
                ok = True
                for j, (sj, cj) in enumerate(self.pieces):
                    if i == j:
                        continue
                    dv = si[0] - sj[0]
                    rhs = cj - ci
                    if dv == 0:
                        if rhs > 0:
                            ok = False
                            break
                        continue
                    bound = rhs / dv
                    if dv > 0:
                        a = max(a, bound)
                    else:
                        b = min(b, bound)
                if ok and a < b:
                    out.append((i, [(a,), (b,)]))
        else:
            base = list(P.vertices)
            for i, (si, ci) in enumerate(self.pieces):
                region = base
                for j, (sj, cj) in enumerate(self.pieces):
                    if i == j:
                        continue
                    normal = vsub(sj, si)
                    if normal == (ZERO, ZERO):
                        if cj - ci > 0:
                            region = []
                            break
                        continue
                    region = clip_polygon(region, normal, ci - cj)
                    if len(region) < 3:
                        region = []
                        break
                if len(region) >= 3:
                    out.append((i, region))
        self._cells = out
        return out

    def integral(self) -> Fraction:
        """Exact integral over the polytope (0 for lower-dimensional P)."""
        P = self.polytope
        total = ZERO
        if P.ambient_dim == 1:
            for i, (a, b) in self.cells():
                si, ci = self.pieces[i]
                fa = si[0] * a[0] + ci
                fb = si[0] * b[0] + ci
                total += (b[0] - a[0]) * (fa + fb) / 2
            return total
        for i, region in self.cells():
            si, ci = self.pieces[i]
            p0 = region[0]
            f0 = dot(si, p0) + ci
            for p1, p2 in zip(region[1:], region[2:]):
                area2 = (p1[0] - p0[0]) * (p2[1] - p0[1]) \
                    - (p1[1] - p0[1]) * (p2[0] - p0[0])
                f1 = dot(si, p1) + ci
                f2 = dot(si, p2) + ci
                total += abs(area2) * (f0 + f1 + f2) / 6
        return total

    def __repr__(self) -> str:
        return f"RoofFunction({len(self.pieces)} pieces)"


def clip_polygon(poly: List[Point], a: Sequence[Fraction], b: Fraction) -> List[Point]:
    """Clip a convex polygon (vertex cycle) by the half-plane <a, u> <= b."""
    if not poly:
        return []
    out: List[Point] = []
    vals = [dot(a, p) for p in poly]
    for i, p in enumerate(poly):
        j = (i + 1) % len(poly)
        q = poly[j]
        inside_p = vals[i] <= b
        inside_q = vals[j] <= b
        if inside_p:
            out.append(p)
        if inside_p != inside_q:
            t = (b - vals[i]) / (vals[j] - vals[i])
            out.append(vadd(p, vscale(t, vsub(q, p))))
    deduped: List[Point] = []
    for p in out:
        if not deduped or deduped[-1] != p:
            deduped.append(p)
    if deduped and len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


# ---------------------------------------------------------------------------
# lifted lower hulls: exact conjugates of convex max-of-affines blocks


def _lower_hull_chain(points: List[Tuple[Fraction, Fraction]]
                      ) -> List[Tuple[Fraction, Fraction]]:
    """Lower convex chain of planar points sorted by x (distinct x values)."""
    pts = sorted(points)
    chain: List[Tuple[Fraction, Fraction]] = []
    for x, z in pts:
        while len(chain) >= 2:
            (x1, z1), (x2, z2) = chain[-2], chain[-1]
            if (z2 - z1) * (x - x1) >= (z - z1) * (x2 - x1):
                chain.pop()
            else:
                break
        chain.append((x, z))
    return chain


def _plane_through(p1: Tuple[Point, Fraction], p2: Tuple[Point, Fraction],
                   p3: Tuple[Point, Fraction]) -> Optional[Piece]:
    """Affine map u -> <a,u> + b through three lifted 2-d points, if the base
    points are affinely independent."""
    d1 = vsub(p2[0], p1[0])
    d2 = vsub(p3[0], p1[0])
    if d1[0] * d2[1] - d1[1] * d2[0] == 0:
        return None
    sol = solve2x2(d1[0], d1[1], d2[0], d2[1], p2[1] - p1[1], p3[1] - p1[1])
    if sol is None:
        return None
    a = (sol[0], sol[1])
    return (a, p1[1] - dot(a, p1[0]))


def _orient3d(a, b, c, d) -> Fraction:
    """Signed volume determinant of rows b-a, c-a, d-a (points as xyz
    triples); positive when d lies on the outward side of oriented (a,b,c)."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    return (ux * (vy * wz - vz * wy) - uy * (vx * wz - vz * wx)
            + uz * (vx * wy - vy * wx))


def _lower_hull_facets_2d(points: List[Tuple[Point, Fraction]]) -> List[Piece]:
    """Lower-hull facet affines of lifted points ((x, y), z): every returned
    (a, b) satisfies z_k >= <a, s_k> + b with equality on a full-dimensional
    contact set; empty when the base points are all collinear.

    Incremental convex hull over the lifted point set; only downward-facing
    facet planes are reported, deduplicated, with vertical facets skipped."""
    best: Dict[Tuple[Fraction, Fraction], Fraction] = {}
    for s, z in points:
        key = (s[0], s[1])
        if key not in best or z < best[key]:
            best[key] = z
    pts = [(x, y, z) for (x, y), z in best.items()]
    if len(pts) < 3:
        return []

    def cross_nonzero(p, q, r):
        ux, uy, uz = q[0] - p[0], q[1] - p[1], q[2] - p[2]
        vx, vy, vz = r[0] - p[0], r[1] - p[1], r[2] - p[2]
        return (uy * vz - uz * vy, uz * vx - ux * vz,
                ux * vy - uy * vx) != (0, 0, 0)

    def facet_plane(i, j, k) -> Optional[Piece]:
        return _plane_through(((pts[i][0], pts[i][1]), pts[i][2]),
                              ((pts[j][0], pts[j][1]), pts[j][2]),
                              ((pts[k][0], pts[k][1]), pts[k][2]))

    i2 = next((k for k in range(2, len(pts))
               if cross_nonzero(pts[0], pts[1], pts[k])), None)
    if i2 is None:
        return []
    i3 = next((k for k in range(2, len(pts))
               if k != i2 and _orient3d(pts[0], pts[1], pts[i2], pts[k]) != 0),
              None)
    if i3 is None:
        plane = facet_plane(0, 1, i2)
        return [plane] if plane is not None else []

    order = [0, 1, i2, i3]
    order += [k for k in range(2, len(pts)) if k not in (i2, i3)]
    a, b, c, d = order[:4]
    if _orient3d(pts[a], pts[b], pts[c], pts[d]) > 0:
        b, c = c, b
    facets: Dict[int, Tuple[int, int, int]] = {}
    edge_to_facet: Dict[Tuple[int, int], int] = {}
    next_id = 0

    def add_facet(i, j, k):
        nonlocal next_id
        facets[next_id] = (i, j, k)
        for u, v in ((i, j), (j, k), (k, i)):
            edge_to_facet[(u, v)] = next_id
        next_id += 1

    def drop_facet(fid):
        i, j, k = facets.pop(fid)
        for u, v in ((i, j), (j, k), (k, i)):
            if edge_to_facet.get((u, v)) == fid:
                del edge_to_facet[(u, v)]

    # initial tetrahedron, all facets oriented outward
    add_facet(a, b, c)
    add_facet(a, c, d)
    add_facet(c, b, d)
    add_facet(b, a, d)
    for m in order[4:]:
        p = pts[m]
        visible = [fid for fid, (i, j, k) in facets.items()
                   if _orient3d(pts[i], pts[j], pts[k], p) > 0]
        if not visible:
            continue
        horizon: List[Tuple[int, int]] = []
        visible_set = set(visible)
        for fid in visible:
            i, j, k = facets[fid]
            for u, v in ((i, j), (j, k), (k, i)):
                if edge_to_facet.get((v, u)) not in visible_set:
                    horizon.append((u, v))
        for fid in visible:
            drop_facet(fid)
        for u, v in horizon:
            add_facet(u, v, m)

    planes: Dict[Piece, None] = {}
    for i, j, k in facets.values():
        ux, uy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
        vx, vy = pts[k][0] - pts[i][0], pts[k][1] - pts[i][1]
        if ux * vy - uy * vx >= 0:
            continue  # vertical or upward-facing facet
        plane = facet_plane(i, j, k)
        if plane is not None:
            planes[plane] = None
    return list(planes.keys())


def _lower_hull(block: Block) -> List[Piece]:
    """Lower-hull pieces of a convex block's lifted slopes (s, -c): affine
    maps u -> <a, u> + b whose max is the block's conjugate on the affine
    hull of its slopes. These are the facet planes when the slopes span the
    plane, the lower chain along the line (with a along it) when they are
    collinear, and the constant -c for a single slope."""
    slopes = [s for s, _ in block]
    lifted = [(s, -c) for s, c in block]
    if len(block) == 1:
        return [(vscale(ZERO, slopes[0]), lifted[0][1])]
    if len(slopes[0]) == 2:
        facets = _lower_hull_facets_2d(lifted)
        if facets:
            return facets
        d = vsub(max(slopes), min(slopes))
        chain = _lower_hull_chain([(dot(d, s), z) for s, z in lifted])
    else:
        d = (Fraction(1),)
        chain = _lower_hull_chain([(s[0], z) for s, z in lifted])
    pieces = []
    for (t1, z1), (t2, z2) in zip(chain, chain[1:]):
        lam = (z2 - z1) / (t2 - t1)
        pieces.append((vscale(lam, d), z1 - lam * t1))
    return pieces


# ---------------------------------------------------------------------------
# public operations


def canonical_metric(P: Polytope) -> PLMetric:
    """The metric whose psi is the support function of P."""
    return PLMetric(P, [[(v, ZERO) for v in P.vertices]])


def legendre(metric: PLMetric) -> RoofFunction:
    """Exact Legendre conjugate psi*(u) = sup_v(<u,v> - psi(v)) on P.

    The conjugate of a min of convex blocks is the max of the block
    conjugates, and each block conjugate is the lower hull of its lifted
    slopes (valid on all of P because every block's slope hull contains P
    for a validated metric). The same route serves every supported P,
    points and segments in the plane included.
    """
    if metric._conjugate is None:
        metric._conjugate = RoofFunction(
            metric.polytope, [p for block in metric.blocks for p in _lower_hull(block)])
    return metric._conjugate


def envelope(metric: PLMetric) -> PLMetric:
    """Largest convex (semipositive) metric below psi: the double conjugate.

    The second conjugation runs over P only, and its sup is attained at a
    corner of a linearity cell of the roof (the contact set is a face of the
    roof's cell complex, and every face of a finite subdivision of P contains
    a cell corner). On a point or a segment the corners are its ends and the
    crossings of the roof's walls with it. The corner set also contains every
    vertex of P, which keeps the recession identity intact; redundant corners
    are pruned by the lower-hull test inside the constructor.
    """
    if metric._envelope is not None:
        return metric._envelope
    P = metric.polytope
    roof = legendre(metric)
    if P.is_full_dimensional():
        corners = dict.fromkeys(u for _, region in roof.cells() for u in region)
    else:
        ends = (P.vertices[0], P.vertices[-1])
        corners = dict.fromkeys(P.vertices)
        for wall in _walls(roof.pieces):
            corners.update(dict.fromkeys(_segment_wall_crossings(wall, ends)))
    pieces = [(u, -roof.evaluate(u)) for u in corners]
    env = PLMetric(P, [pieces], validate="recession")
    metric._envelope = env
    if env._envelope is None:
        env._envelope = env
    env._semipositive = True
    return env


def distance(m1: PLMetric, m2: PLMetric) -> Fraction:
    """Exact sup-norm distance sup_v |psi1 - psi2| (finite: equal recessions)."""
    if m1.polytope != m2.polytope:
        raise PreconditionError("distance needs metrics on the same polytope")
    # psi1 - psi2 is linear on every cell of the refinement of the two
    # arrangements; walls between a piece of m1 and a piece of m2 never break it
    walls = dict.fromkeys(_walls(m1.all_pieces()) + _walls(m2.all_pieces()))
    cands = arrangement_points(list(walls), m1.dim)
    best = ZERO
    for v in cands:
        d = abs(m1.evaluate(v) - m2.evaluate(v))
        if d > best:
            best = d
    return best


def is_semipositive(metric: PLMetric) -> bool:
    """Exact convexity check (single-branch metrics are convex by shape)."""
    if metric._semipositive is None:
        if metric.is_convex_representation():
            metric._semipositive = True
        else:
            metric._semipositive = distance(metric, envelope(metric)) == 0
    return metric._semipositive


def metric_min(m1: PLMetric, m2: PLMetric) -> PLMetric:
    """Pointwise minimum of the metrics = pointwise max of psi's.

    max distributes over the min-of-max form: branches are pairwise unions of
    piece lists, so semipositivity is preserved when both inputs are convex.
    """
    if m1.polytope != m2.polytope:
        raise PreconditionError("metric_min needs metrics on the same polytope")
    blocks = [tuple(b1) + tuple(b2) for b1 in m1.blocks for b2 in m2.blocks]
    return PLMetric(m1.polytope, blocks, validate="strict")


def metric_shift(metric: PLMetric, t) -> PLMetric:
    """psi + t, i.e. the metric scaled by e^{-t}."""
    t = frac(t)
    blocks = [[(s, c + t) for s, c in b] for b in metric.blocks]
    out = PLMetric(metric.polytope, blocks, validate="strict")
    out._semipositive = metric._semipositive
    return out


def metric_sum(m1: PLMetric, m2: PLMetric) -> PLMetric:
    """Pointwise sum; the reference polytope is the Minkowski sum."""
    if m1.dim != m2.dim:
        raise PreconditionError("metric_sum needs equal ambient dimension")
    P = m1.polytope.minkowski_sum(m2.polytope)
    blocks = []
    for b1 in m1.blocks:
        for b2 in m2.blocks:
            blocks.append([(vadd(s1, s2), c1 + c2) for s1, c1 in b1 for s2, c2 in b2])
    return PLMetric(P, blocks, validate="strict")


def metric_scale(metric: PLMetric, t) -> PLMetric:
    """Scale the underlying line bundle: psi_t(v) = t*psi(v), polytope t*P."""
    t = frac(t)
    if t < 0:
        raise PreconditionError("scaling factor must be nonnegative")
    P = metric.polytope.dilate(t)
    blocks = [[(vscale(t, s), t * c) for s, c in b] for b in metric.blocks]
    return PLMetric(P, blocks, validate="strict")


def metric_deform(psi: PLMetric, eps, pos: PLMetric, neg: PLMetric) -> PLMetric:
    """psi + eps*(pos - neg) on the same polytope, exact min-of-max form.

    pos may be any metric; neg must be semipositive (its convex single-branch
    envelope is subtracted, which is what makes the min-of-max normal form
    close under the difference). The result is validated by its recession
    identity; transient pieces with slopes outside P are pruned exactly.
    """
    eps = frac(eps)
    if eps < 0:
        raise PreconditionError("deformation parameter must be nonnegative")
    P = psi.polytope
    if pos.polytope != P or neg.polytope != P:
        raise PreconditionError("direction metrics must live on the same polytope")
    if not is_semipositive(neg):
        raise PreconditionError("the subtracted part of a direction must be semipositive")
    neg_block = envelope(neg).blocks[0] if not neg.is_convex_representation() \
        else neg.blocks[0]
    blocks = []
    for bp in psi.blocks:
        for bq in pos.blocks:
            for (sl, cl) in neg_block:
                blocks.append([
                    (vadd(vadd(s1, vscale(eps, s2)), vscale(-eps, sl)),
                     c1 + eps * c2 - eps * cl)
                    for s1, c1 in bp for s2, c2 in bq
                ])
    return PLMetric(P, blocks, validate="recession")
