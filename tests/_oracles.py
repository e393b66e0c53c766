"""Independent brute-force oracles used to cross-check the exact kernel.

Everything here is deliberately written from scratch against the textbook
definitions (exhaustive subset search, direct enumeration, closed forms for
the classical surfaces) and never calls into the package internals, so the
library is not used to test itself.  The exceptions are
`energy_by_mixed_measures`, which polarizes the package's public mixed
Monge-Ampere measures, a route the package's own energy no longer takes,
`metric_deform_by_branches`, which hands the package's metric constructor
every raw branch of a deformation, a route `metric_deform` no longer takes,
`deformation_roof_by_translates`, which writes a deformation's roof from
every translate of the package's hull planes, one per piece of the
subtracted metric, a route `metric_deformations` no longer takes,
`lower_hull_facets_2d`, which reads the package's integer facet kernel
back as Fraction pieces so the brute-force hull can be compared with it,
`roof_cells`, which reads a roof's integer cells with rational corners,
`roof_function`, which builds the package's roof type from rational pieces,
`serialize_instance` and `instance_json`, which write the package's parsed
instance types back in the instance-file schema, `bump_metric`, which
reads the bundled `bump_segment.json` through the package's parser,
`h0_lengths_by_levels`, which runs the package's lattice kernel level by
level, a route the h0 check no longer takes,
`dilate` and `metric_scale`, which build the package's polytope and metric
types for t*P, `minkowski_sum` and `metric_sum`, which build them for P + Q
and psi1 + psi2 (mixed measures polarized over such sums are the tests'
reference, a route the package no longer takes), `metric_min`, which builds
the package's metric type from the pairwise unions of two metrics' branches,
`polytope_contains`, which reads membership from the box and edge
half-planes a package polytope stores for its lattice rows, `tree_edges`
and `tree_adjacency`, which read the integer edge rows a package tree
stores as Fraction lengths, `tree_rows_oracle`, which walks those edge rows
over neighbour lists to a package tree's order, parent and integer rows,
`with_subdivided_edge` and
`extend_to_subdivision`, which build the package's tree and tree-function
types for a subdivided edge.
All arithmetic is exact.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction
from importlib import resources

ZERO = Fraction(0)
ONE = Fraction(1)


# --------------------------------------------------------------------------
# planes through lifted points and brute-force lower hulls
# --------------------------------------------------------------------------

def common_scale(rows):
    """Scale rational rows by the lcm D of all their denominators: returns D
    and the integer rows. Over reduced Fractions, D and the rows have no
    common factor."""
    rows = [[Fraction(c) for c in row] for row in rows]
    scale = math.lcm(*(c.denominator for row in rows for c in row))
    return scale, [tuple(int(c * scale) for c in row) for row in rows]


def lower_hull_facets_2d(points):
    """Lower-hull facet affines of lifted points ((x, y), z) by the package's
    integer kernel: every returned (a, b) satisfies z_k >= <a, s_k> + b with
    equality on a full-dimensional contact set; empty when the base points
    are all collinear. A plane n.x + nz*z = d over the points scaled by D is
    the affine map a = -n/nz, b = d/(nz*D)."""
    from navol.plmetric import _lower_facet_planes
    scale, rows = common_scale([s[0], s[1], z] for s, z in points)
    return [((Fraction(-nx, nz), Fraction(-ny, nz)), Fraction(d, nz * scale))
            for nx, ny, nz, d in _lower_facet_planes(rows)]


def plane_through(p1, p2, p3):
    """Affine map (a, b) with z = a.s + b through three lifted points
    ((x, y), z), or None when the plan-view triangle is degenerate."""
    (x1, y1), z1 = p1
    (x2, y2), z2 = p2
    (x3, y3), z3 = p3
    det = (x1 - x3) * (y2 - y3) - (y1 - y3) * (x2 - x3)
    if det == 0:
        return None
    r1, r2 = z1 - z3, z2 - z3
    a1 = (r1 * (y2 - y3) - (y1 - y3) * r2) / det
    a2 = ((x1 - x3) * r2 - r1 * (x2 - x3)) / det
    b = z3 - a1 * x3 - a2 * y3
    return ((a1, a2), b)


def brute_lower_hull_facets(points):
    """All supporting planes through triples that lie below every lifted
    point; the definitive (slow) answer for the 2-d lower hull."""
    facets = set()
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                plane = plane_through(points[i], points[j], points[k])
                if plane is None or plane in facets:
                    continue
                (a1, a2), b = plane
                if all(z >= a1 * s[0] + a2 * s[1] + b for s, z in points):
                    facets.add(plane)
    return facets


# --------------------------------------------------------------------------
# convex hulls, areas, membership, lattice enumeration
# --------------------------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points):
    """Monotone-chain hull, counter-clockwise, no repeated endpoint."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_area(hull):
    """Shoelace area of a counter-clockwise simple polygon."""
    if len(hull) < 3:
        return ZERO
    acc = ZERO
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        acc += x1 * y2 - x2 * y1
    return acc / 2


def hull_contains_2d(points, p):
    """Membership in conv(points) by the area test, with exact handling of
    the collinear degenerate case."""
    hull = convex_hull_2d(points)
    base = polygon_area(hull)
    if base > 0:
        grown = polygon_area(convex_hull_2d(list(hull) + [tuple(p)]))
        return grown == base
    if not hull:
        return False
    if len(hull) == 1:
        return tuple(p) == hull[0]
    a, b = hull[0], hull[-1]
    if _cross(a, b, p) != 0:
        return False
    d = (b[0] - a[0], b[1] - a[1])
    t = (p[0] - a[0]) * d[0] + (p[1] - a[1]) * d[1]
    return 0 <= t <= d[0] * d[0] + d[1] * d[1]


def hull_contains(vertices, p):
    if len(p) == 1:
        xs = [v[0] for v in vertices]
        return min(xs) <= p[0] <= max(xs)
    return hull_contains_2d(vertices, p)


def polytope_contains(P, pt):
    """Exact membership of pt in the package's polytope P, read from the
    box and the integer edge half-planes it stores for its lattice rows:
    in the box and left of every edge, on P's V-scaled points."""
    from navol.errors import PreconditionError
    p = [P.integer_vertices()[0] * Fraction(c) for c in pt]
    if len(p) != P.ambient_dim:
        raise PreconditionError("point and polytope differ in dimension")
    return (all(lo <= c <= hi for c, (lo, hi) in zip(p, P._extent))
            and all(c0 * p[0] + c1 * p[1] + k >= 0 for c0, c1, k in P._edges))


def lattice_points_oracle(vertices, m=1):
    """Integer points of m * conv(vertices) by bounding-box enumeration."""
    scaled = [tuple(Fraction(c) * m for c in v) for v in vertices]
    dim = len(scaled[0])
    if dim == 1:
        xs = [v[0] for v in scaled]
        lo, hi = math.ceil(min(xs)), math.floor(max(xs))
        return [(x,) for x in range(lo, hi + 1)]
    xs = [v[0] for v in scaled]
    ys = [v[1] for v in scaled]
    out = []
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1):
            if hull_contains_2d(scaled, (Fraction(x), Fraction(y))):
                out.append((x, y))
    return out


# --------------------------------------------------------------------------
# piecewise-linear evaluation, conjugates, envelopes, curvature atoms
# --------------------------------------------------------------------------

def eval_min_max(blocks, v):
    """Value of a min-of-max-of-affine system at v, from the raw data."""
    best = None
    for block in blocks:
        top = max(sum(si * vi for si, vi in zip(s, v)) + c for s, c in block)
        best = top if best is None else min(best, top)
    return best


def _segment_coefficient(s1, s2, u):
    """t in [0, 1] with u = t*s1 + (1-t)*s2, or None."""
    d = tuple(a - b for a, b in zip(s1, s2))
    if all(c == 0 for c in d):
        return None
    i = next(k for k, c in enumerate(d) if c != 0)
    t = (u[i] - s2[i]) / d[i]
    if not (0 <= t <= 1):
        return None
    if any(s2[k] + t * d[k] != u[k] for k in range(len(u))):
        return None
    return t


def _triangle_coefficients(s1, s2, s3, u):
    """Barycentric coordinates of u in the triangle, or None."""
    ax, ay = s1[0] - s3[0], s1[1] - s3[1]
    bx, by = s2[0] - s3[0], s2[1] - s3[1]
    det = ax * by - ay * bx
    if det == 0:
        return None
    ux, uy = u[0] - s3[0], u[1] - s3[1]
    l1 = (ux * by - uy * bx) / det
    l2 = (ax * uy - ay * ux) / det
    l3 = 1 - l1 - l2
    if l1 < 0 or l2 < 0 or l3 < 0:
        return None
    return l1, l2, l3


def block_conjugate_oracle(block, u):
    """Value at u of the convex conjugate of max_j (s_j . v + c_j):
    minimize sum lam_j (-c_j) over barycentric representations of u by the
    slopes.  Linear programming by exhaustive basis search (the minimum is
    attained on at most dim+1 slopes).  None when u is outside the slope
    hull (the conjugate is +infinity there)."""
    u = tuple(Fraction(c) for c in u)
    dim = len(u)
    pts = [(tuple(Fraction(c) for c in s), Fraction(c0)) for s, c0 in block]
    best = None

    def consider(val):
        nonlocal best
        if best is None or val < best:
            best = val

    for s, c in pts:
        if s == u:
            consider(-c)
    for (s1, c1), (s2, c2) in itertools.combinations(pts, 2):
        t = _segment_coefficient(s1, s2, u)
        if t is not None:
            consider(t * (-c1) + (1 - t) * (-c2))
    if dim == 2:
        for (s1, c1), (s2, c2), (s3, c3) in itertools.combinations(pts, 3):
            bary = _triangle_coefficients(s1, s2, s3, u)
            if bary is not None:
                l1, l2, l3 = bary
                consider(l1 * (-c1) + l2 * (-c2) + l3 * (-c3))
    return best


def roof_oracle(blocks, u):
    """Conjugate of a min of convex blocks: the max of the block conjugates.
    Raises if some block cannot represent u (invalid input for a metric whose
    recession matches its polytope)."""
    vals = []
    for block in blocks:
        v = block_conjugate_oracle(block, u)
        if v is None:
            raise AssertionError(f"slope hull of a block misses {u}")
        vals.append(v)
    return max(vals)


def lattice_length_oracle(blocks1, blocks2, m, vertices):
    """Sum over u in mP of ceil(m g2(u/m)) - ceil(m g1(u/m)) with the g_i
    computed by the exhaustive conjugate oracle."""
    total = 0
    for pt in lattice_points_oracle(vertices, m):
        u = tuple(Fraction(c, m) for c in pt)
        g1 = roof_oracle(blocks1, u)
        g2 = roof_oracle(blocks2, u)
        total += math.ceil(m * g2) - math.ceil(m * g1)
    return total


def h0_lengths_by_levels(psi, other, levels):
    """The package's lattice_length of psi against other at each level: the
    h0 check read level by level, against which its corner identity, which
    covers every level at once, is compared."""
    from navol.volumes import lattice_length
    return [lattice_length(psi, other, m) for m in levels]


def lattice_length_by_points(pieces1, pieces2, m, points):
    """The per-point route: over the given integer points u of mP, the sum
    of ceil(max_k(<s_k, u> + m c_k)) for the roof pieces (s_k, c_k) of g2,
    minus the same for g1, with one max over all pieces at every point."""
    def ceil_roof(pieces, pt):
        return math.ceil(max(sum(s * x for s, x in zip(slope, pt)) + mc
                             for slope, mc in pieces))
    lines1 = [(slope, m * c) for slope, c in pieces1]
    lines2 = [(slope, m * c) for slope, c in pieces2]
    return sum(ceil_roof(lines2, pt) - ceil_roof(lines1, pt) for pt in points)


def ceil_sum_by_points(roof, rows, m):
    """Sum of ceil(max over the lines / L) at every integer point of the rows
    (y, lo, hi), for an integer roof (L, lines) whose line (a0, a1, b) is
    a0*x + a1*y + m*b at (x, y), and (a0, b) is a0*x + m*b."""
    scale, lines = roof
    total = 0
    for y, lo, hi in rows:
        for x in range(lo, hi + 1):
            top = max(l[0] * x + (l[1] * y if len(l) > 2 else 0) + m * l[-1]
                      for l in lines)
            total += -(-top // scale)
    return total


def breakpoints_1d(blocks, extra=()):
    """All pairwise crossing abscissae of the pieces plus any extras: a
    superset of the true kinks of the min-max function."""
    pieces = [p for b in blocks for p in b]
    xs = set(Fraction(e) for e in extra)
    for (s1, c1), (s2, c2) in itertools.combinations(pieces, 2):
        if s1[0] != s2[0]:
            xs.add((c2 - c1) / (s1[0] - s2[0]))
    return sorted(xs)


def envelope_1d_oracle(blocks, p_lo, p_hi, queries):
    """Convex envelope values of a 1-d min-max function at the query points.

    The function is affine between consecutive pairwise crossings and affine
    with slopes p_lo / p_hi beyond the extreme ones, so its convex envelope
    restricted to [p_lo-side, p_hi-side] is the lower convex chain through the
    graph points over all crossings (plus the interval ends)."""
    xs = breakpoints_1d(blocks, extra=(p_lo, p_hi))
    graph = [(x, eval_min_max(blocks, (x,))) for x in xs]
    chain = []
    for pt in graph:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], pt) <= 0:
            chain.pop()
        chain.append(pt)
    out = []
    for q in queries:
        q = Fraction(q)
        val = None
        for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
            if x1 <= q <= x2:
                t = (q - x1) / (x2 - x1)
                val = y1 + t * (y2 - y1)
                break
        if val is None:
            if q <= chain[0][0]:
                val = chain[0][1]
            else:
                val = chain[-1][1]
        out.append(val)
    return out


def curvature_atoms_1d_oracle(blocks):
    """Second-derivative atoms of a *convex* 1-d min-max function: the slope
    jumps across its kinks, located by interval slope scans."""
    xs = breakpoints_1d(blocks)
    if not xs:
        return {}
    intervals = [(xs[0] - 2, xs[0] - 1)]
    for a, b in zip(xs, xs[1:]):
        third = (b - a) / 3
        intervals.append((a + third, b - third))
    intervals.append((xs[-1] + 1, xs[-1] + 2))
    slopes = []
    for a, b in intervals:
        ya = eval_min_max(blocks, (a,))
        yb = eval_min_max(blocks, (b,))
        slopes.append((yb - ya) / (b - a))
    atoms = {}
    for i, x in enumerate(xs):
        jump = slopes[i + 1] - slopes[i]
        if jump != 0:
            atoms[(x,)] = atoms.get((x,), ZERO) + jump
    return {k: v for k, v in atoms.items() if v != 0}


def curvature_atoms_2d_convex_oracle(block):
    """Monge-Ampere atoms of a convex max-of-affine function on the plane:
    at each arrangement vertex, twice the area of the hull of the slopes of
    the pieces active there (the subdifferential). One piece is kept per
    slope, the one with the largest constant: a smaller constant at the same
    slope is never active, so the function is unchanged."""
    best = {}
    for s, c0 in block:
        s, c0 = tuple(Fraction(c) for c in s), Fraction(c0)
        if s not in best or c0 > best[s]:
            best[s] = c0
    pieces = list(best.items())
    lines = []
    for (s1, c1), (s2, c2) in itertools.combinations(pieces, 2):
        n = (s1[0] - s2[0], s1[1] - s2[1])
        if n != (ZERO, ZERO):
            lines.append((n, c2 - c1))
    vertices = set()
    for (n1, r1), (n2, r2) in itertools.combinations(lines, 2):
        det = n1[0] * n2[1] - n1[1] * n2[0]
        if det == 0:
            continue
        x = (r1 * n2[1] - n1[1] * r2) / det
        y = (n1[0] * r2 - r1 * n2[0]) / det
        vertices.add((x, y))
    atoms = {}
    for v in vertices:
        top = max(s[0] * v[0] + s[1] * v[1] + c for s, c in pieces)
        active = [s for s, c in pieces if s[0] * v[0] + s[1] * v[1] + c == top]
        area = polygon_area(convex_hull_2d(active))
        if area > 0:
            atoms[v] = 2 * area
    return atoms


# --------------------------------------------------------------------------
# roof linearity cells in Fractions: clipping, integrals, masses, corners
# --------------------------------------------------------------------------

def clip_polygon(poly, a, b):
    """Clip a convex polygon (vertex cycle) by the half-plane <a, u> <= b."""
    if not poly:
        return []
    out = []
    vals = [_dot(a, p) for p in poly]
    for i, p in enumerate(poly):
        j = (i + 1) % len(poly)
        q = poly[j]
        inside_p = vals[i] <= b
        inside_q = vals[j] <= b
        if inside_p:
            out.append(p)
        if inside_p != inside_q:
            t = (b - vals[i]) / (vals[j] - vals[i])
            out.append(tuple(x + t * (y - x) for x, y in zip(p, q)))
    deduped = []
    for p in out:
        if not deduped or deduped[-1] != p:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def roof_cells_oracle(pieces, vertices):
    """Linearity cells of max_k (<s_k, u> + c_k) of the polytope's own
    dimension over the polytope with the given vertices (ends in 1-d, a CCW
    cycle in 2-d, two ends or one point in the plane), as (piece index,
    corners): intervals cut by every piece's bound in 1-d, cycles clipped
    piece by piece in 2-d. Pieces have distinct slopes."""
    pieces = [(tuple(Fraction(x) for x in s), Fraction(c)) for s, c in pieces]
    vertices = [tuple(Fraction(x) for x in v) for v in vertices]
    out = []
    if len(vertices[0]) == 1:
        lo, hi = min(vertices)[0], max(vertices)[0]
        for i, ((si,), ci) in enumerate(pieces):
            a, b = lo, hi
            for j, ((sj,), cj) in enumerate(pieces):
                if j == i:
                    continue
                bound = (cj - ci) / (si - sj)
                if si > sj:
                    a = max(a, bound)
                else:
                    b = min(b, bound)
            if a < b:
                out.append((i, [(a,), (b,)]))
        return out
    for i, (si, ci) in enumerate(pieces):
        region = vertices
        for j, (sj, cj) in enumerate(pieces):
            if j != i:
                region = clip_polygon(region, tuple(y - x for x, y in zip(si, sj)), ci - cj)
        if len(region) > min(len(vertices) - 1, 2):
            out.append((i, region))
    return out


def roof_cells(roof):
    """The package's integer linearity cells of a roof with rational
    corners: (piece index, corners), each corner row (x, w) read as x / w."""
    return [(i, [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in region])
            for i, region in roof.integer_cells()]


def roof_function(P, pieces):
    """The package's roof on P that is the max of the rational pieces
    (slope, const): scaled by common_scale, one row per slope with the
    largest constant, in order of first occurrence."""
    from navol.plmetric import RoofFunction
    scale, rows = common_scale([tuple(s) + (c,) for s, c in pieces])
    best = {}
    for r in rows:
        best[r[:-1]] = max(best.get(r[:-1], r[-1]), r[-1])
    return RoofFunction(P, scale, [s + (c,) for s, c in best.items()])


def roof_integral_oracle(pieces, cells):
    """Integral of the roof over its cells: trapezoids in 1-d, fan
    triangles with the mean of the corner values in 2-d."""
    total = ZERO
    for i, region in cells:
        s, c = pieces[i]
        vals = [_dot(s, p) + c for p in region]
        if len(region[0]) == 1:
            total += (region[1][0] - region[0][0]) * (vals[0] + vals[1]) / 2
            continue
        p0 = region[0]
        for k in range(1, len(region) - 1):
            area2 = abs((region[k][0] - p0[0]) * (region[k + 1][1] - p0[1])
                        - (region[k][1] - p0[1]) * (region[k + 1][0] - p0[0]))
            total += area2 * (vals[0] + vals[k] + vals[k + 1]) / 6
    return total


def cell_mass_oracle(region):
    """n! times the volume of a cell: its length, or twice its shoelace area."""
    if len(region[0]) == 1:
        return region[1][0] - region[0][0]
    return abs(2 * polygon_area(region))


def clip_cycle(cycle, h):
    """Clip a convex cycle of homogeneous integer corner rows by
    <h, row> <= 0, with generic dot products. The crossing on an edge
    p -> q is val_q * p - val_p * q, which has value 0, with its last entry
    made positive and the row divided by its gcd; the output walks the cycle
    from its first corner, and consecutive repeats (and a last corner equal
    to the first) are dropped."""
    vals = [sum(map(operator.mul, h, p)) for p in cycle]
    if max(vals) <= 0:
        return cycle
    out = []
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
        x = tuple(c // g for c in row)
        if not out or out[-1] != x:
            out.append(x)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def dominance_cells_by_clipping(region, rows, dim, sign):
    """(row index, corner rows) for each sub-cell of dimension dim of a
    convex homogeneous cycle on which that row is the max (sign 1) or the
    min (sign -1) of all rows: the region clipped (clip_cycle) by the
    half-plane where the row beats each other row, and dropped once it has
    at most dim corners."""
    cells = []
    for i, own in enumerate(rows):
        cell = region
        for j, other in enumerate(rows):
            if j != i:
                pair = (other, own) if sign > 0 else (own, other)
                cell = clip_cycle(cell, tuple(a - b for a, b in zip(*pair)))
                if len(cell) <= dim:
                    break
        else:
            cells.append((i, cell))
    return cells


def envelope_corners_oracle(pieces, cells):
    """The envelope's raw pieces: every distinct cell corner u, in cell
    order, with minus the max of all pieces at u."""
    corners = dict.fromkeys(u for _, region in cells for u in region)
    return [(u, -max(_dot(s, u) + c for s, c in pieces)) for u in corners]


# --------------------------------------------------------------------------
# scaling a polytope and a metric
# --------------------------------------------------------------------------

def dilate(P, t):
    """The polytope t*P for a rational t >= 0."""
    from navol.errors import PreconditionError
    from navol.polytope import Polytope
    t = Fraction(t)
    if t < 0:
        raise PreconditionError("dilation factor must be nonnegative")
    return Polytope.from_points([tuple(t * x for x in v) for v in P.vertices])


def minkowski_sum(P, Q):
    """The polytope P + Q, the hull of the sums of their vertices."""
    from navol.errors import PreconditionError
    from navol.polytope import Polytope
    if P.ambient_dim != Q.ambient_dim:
        raise PreconditionError("Minkowski sum needs equal ambient dimension")
    return Polytope.from_points([vadd(a, b) for a in P.vertices for b in Q.vertices])


def metric_scale(metric, t):
    """The metric of the scaled line bundle: psi_t(v) = t*psi(v) on t*P,
    for a rational t >= 0."""
    from navol.errors import PreconditionError
    from navol.plmetric import PLMetric
    t = Fraction(t)
    if t < 0:
        raise PreconditionError("scaling factor must be nonnegative")
    return PLMetric(dilate(metric.polytope, t),
                    [[(tuple(t * x for x in s), t * c) for s, c in b] for b in metric.blocks])


def metric_min(m1, m2):
    """Pointwise minimum of the metrics = pointwise max of psi's.

    max distributes over the min-of-max form: branches are pairwise unions of
    piece lists, so semipositivity is preserved when both inputs are convex.
    """
    from navol.errors import PreconditionError
    from navol.plmetric import PLMetric
    if m1.polytope != m2.polytope:
        raise PreconditionError("metric_min needs metrics on the same polytope")
    return PLMetric(m1.polytope, [tuple(b1) + tuple(b2) for b1 in m1.blocks for b2 in m2.blocks])


def metric_sum(m1, m2):
    """Pointwise sum psi1 + psi2 on the Minkowski sum of the polytopes: min
    distributes over the sum, and the sum of two max-of-affines blocks is
    the max of the pairwise sums of their pieces."""
    from navol.errors import PreconditionError
    from navol.plmetric import PLMetric
    if m1.dim != m2.dim:
        raise PreconditionError("metric_sum needs equal ambient dimension")
    return PLMetric(minkowski_sum(m1.polytope, m2.polytope),
                    [[(vadd(s1, s2), c1 + c2) for s1, c1 in b1 for s2, c2 in b2]
                     for b1 in m1.blocks for b2 in m2.blocks])


# --------------------------------------------------------------------------
# energy, recession and sup-distance by the all-pairs routes
# --------------------------------------------------------------------------

def energy_by_mixed_measures(m1, m2):
    """Energy of two semipositive metrics by polarization: 1/(n+1) times the
    sum over j of the integral of psi1 - psi2 against the mixed measure with
    psi1 taken j times and psi2 taken n-j times."""
    from navol.measures import mixed_monge_ampere
    n = m1.dim
    total = ZERO
    for j in range(n + 1):
        mix = mixed_monge_ampere([m1] * j + [m2] * (n - j))
        total += mix.integrate(lambda v: m1.evaluate(v) - m2.evaluate(v))
    return total / (n + 1)


def deform_branches(psi, eps, pos, neg):
    """The raw branches of psi + eps*(pos - neg), before any pruning: one per
    branch of psi, branch of pos and piece (s_l, c_l) of neg's single branch
    (of its envelope when neg has several), holding every
    (s1 + eps*s2 - eps*s_l, c1 + eps*c2 - eps*c_l)."""
    from navol.plmetric import envelope
    neg_block = neg.blocks[0] if len(neg.blocks) == 1 else envelope(neg).blocks[0]
    return [[(tuple(a + eps * b - eps * x for a, b, x in zip(s1, s2, sl)),
              c1 + eps * c2 - eps * cl)
             for s1, c1 in bp for s2, c2 in bq]
            for bp in psi.blocks for bq in pos.blocks for sl, cl in neg_block]


def metric_deform_by_branches(psi, eps, pos, neg):
    """psi + eps*(pos - neg) with every raw branch deduped and hulled from
    scratch by the metric constructor."""
    from navol.plmetric import PLMetric
    return PLMetric(psi.polytope, deform_branches(psi, eps, pos, neg))


def deformation_roof_by_translates(psi, eps_values, pos, neg):
    """(D, roof rows) of each output of metric_deformations, written from
    every translate of every hull plane: each branch pair's hull (hulled at
    the first positive eps and at eps = 0, re-offset at the other eps, as the
    package does) is moved by each piece of neg's single branch (of its
    envelope when neg has several), and the package's _plane_roof turns all
    the translates into rows and keeps one per slope."""
    from navol import plmetric
    convex = neg if neg.is_convex_representation() else plmetric.envelope(neg)
    (d1, rows1), (d2, rows2) = psi.integer_rows(), pos.integer_rows()
    d3, (rows3,) = convex.integer_rows()
    first, out = [], []
    for eps in map(Fraction, eps_values):
        p, q = eps.numerator, eps.denominator
        scale = math.lcm(d1, q * d2, q * d3)
        f1, f2, f3 = scale // d1, p * (scale // (q * d2)), p * (scale // (q * d3))
        planes, hulls = [], []
        for k, (b1, b2) in enumerate(itertools.product(rows1, rows2)):
            rows = plmetric._dedupe_rows([tuple(f1 * x + f2 * y for x, y in zip(r1, r2))
                                          for r1 in b1 for r2 in b2])
            hull = (plmetric._reoffset(first[k], rows) if p and first
                    else plmetric._lower_hull(rows))
            hulls.append(hull)
            for row in rows3:
                t, tc = [f3 * x for x in row[:-1]], f3 * row[-1]
                planes += [pl[:-1] + (pl[-1] - _dot(pl, t) + pl[-2] * tc,) for pl in hull]
        if p and not first:
            first = hulls
        out.append(plmetric._plane_roof(psi.polytope, planes, scale).integer_rows())
    return out


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vadd(a, b):
    """The sum a + b of two points, coordinate by coordinate."""
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    """The difference a - b of two points, coordinate by coordinate."""
    return tuple(x - y for x, y in zip(a, b))


def _angle_order(dirs):
    """Nonzero plane directions sorted counter-clockwise from the +x axis."""
    def cmp(a, b):
        ha = 0 if a[1] > 0 or (a[1] == 0 and a[0] > 0) else 1
        hb = 0 if b[1] > 0 or (b[1] == 0 and b[0] > 0) else 1
        if ha != hb:
            return ha - hb
        cr = a[0] * b[1] - a[1] * b[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)
    return sorted(dirs, key=functools.cmp_to_key(cmp))


def recession_at(blocks, w):
    """rec(w): min over blocks of max over every slope s of <s, w>."""
    return min(max(_dot(s, w) for s, _ in b) for b in blocks)


def support_at(vertices, w):
    """h_P(w): max over the vertices v of <v, w>."""
    return max(_dot(v, w) for v in vertices)


def recession_by_all_slopes(blocks, vertices):
    """Whether recession_at(blocks, w) equals support_at(vertices, w) for all
    directions w.  Both sides are linear between the normals of all slope
    pairs and all vertex pairs, so they are compared on those normals (both
    signs), the axes and one probe inside each sector between angularly
    consecutive normals.  Slopes and vertices are first scaled by the lcm of
    their denominators, which scales both sides alike, so every probe is
    computed on integers."""
    scale = math.lcm(*(Fraction(c).denominator for b in blocks for s, _ in b for c in s),
                     *(Fraction(c).denominator for v in vertices for c in v))

    def scaled(p):
        return tuple(int(Fraction(c) * scale) for c in p)

    blocks = [[(scaled(s), c) for s, c in b] for b in blocks]
    verts = [scaled(v) for v in vertices]
    if len(verts[0]) == 1:
        return all(recession_at(blocks, w) == support_at(verts, w) for w in ((1,), (-1,)))
    dirs = set()
    for group in ({s for b in blocks for s, _ in b}, verts):
        for a, b in itertools.combinations(group, 2):
            dx, dy = a[0] - b[0], a[1] - b[1]
            if (dx, dy) == (0, 0):
                continue
            g = math.gcd(dx, dy)
            dirs.add((-dy // g, dx // g))
            dirs.add((dy // g, -dx // g))
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    probes = list(dirs) + axes
    ordered = _angle_order(dirs or axes)
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        mid = (a[0] + b[0], a[1] + b[1])
        probes.append(mid if mid != (0, 0) else (-a[1], a[0]))
    return all(recession_at(blocks, w) == support_at(verts, w) for w in probes)


def arrangement_candidates(*blocks_lists):
    """Rational points meeting the closure of every cell of the arrangement
    of the walls between every two pieces of the given metrics (1-d: the
    wall points; 2-d: every crossing of two walls, one point per wall and
    the origin). A function linear on every cell attains a finite sup here."""
    pieces = [(tuple(Fraction(c) for c in s), Fraction(c0))
              for blocks in blocks_lists for b in blocks for s, c0 in b]
    dim = len(pieces[0][0])
    walls = set()
    for (s1, c1), (s2, c2) in itertools.combinations(pieces, 2):
        normal = tuple(a - b for a, b in zip(s1, s2))
        lead = next((c for c in normal if c != 0), None)
        if lead is not None:
            walls.add((tuple(c / lead for c in normal), (c2 - c1) / lead))
    points = {(ZERO,) * dim}
    for normal, rhs in walls:
        k = next(i for i, c in enumerate(normal) if c != 0)
        pt = [ZERO] * dim
        pt[k] = rhs / normal[k]
        points.add(tuple(pt))
    if dim == 2:
        for (n1, r1), (n2, r2) in itertools.combinations(walls, 2):
            det = n1[0] * n2[1] - n1[1] * n2[0]
            if det != 0:
                points.add(((r1 * n2[1] - n1[1] * r2) / det,
                            (n1[0] * r2 - r1 * n2[0]) / det))
    return points


def distance_by_joint_arrangement(blocks1, blocks2):
    """sup |psi1 - psi2| over the arrangement candidates of both metrics'
    pieces together."""
    return max(abs(eval_min_max(blocks1, v) - eval_min_max(blocks2, v))
               for v in arrangement_candidates(blocks1, blocks2))


# --------------------------------------------------------------------------
# closed-form cohomology of the classical surfaces
# --------------------------------------------------------------------------

def line_h0(d):
    """Sections of a degree-d bundle on the projective line."""
    return d + 1 if d >= 0 else 0


def line_h1(d):
    return -d - 1 if d <= -2 else 0


def product_surface_hq(a, b, q):
    """h^q of the (a, b) bundle on the product of two projective lines, by
    the product formula."""
    if q == 0:
        return line_h0(a) * line_h0(b)
    if q == 1:
        return line_h0(a) * line_h1(b) + line_h1(a) * line_h0(b)
    if q == 2:
        return line_h1(a) * line_h1(b)
    return 0


def plane_hq(d, q):
    """h^q of the degree-d bundle on the projective plane."""
    if q == 0:
        return (d + 1) * (d + 2) // 2 if d >= 0 else 0
    if q == 2:
        e = -d - 3
        return (e + 1) * (e + 2) // 2 if e >= 0 else 0
    return 0


def ruled_surface_hq(a, p, f, q):
    """h^q of the class p*S + f*F on the ruled surface with S.S = a >= 0,
    S.F = 1, F.F = 0, for p >= -1, via the fibration over the line: the
    pushforward splits as the sum of degree (a*y + f) bundles, y = 0..p,
    and the first derived pushforward vanishes."""
    if p < -1:
        raise AssertionError("oracle only covers p >= -1; use duality below")
    if p == -1:
        return 0
    if q == 0:
        return sum(line_h0(a * y + f) for y in range(p + 1))
    if q == 1:
        return sum(line_h1(a * y + f) for y in range(p + 1))
    return 0


def divisor_polytope(family, cls):
    """Vertices of the section polytope of a nef rational class: [0, d] on
    the line, the triangle with legs d on the plane, and on the ruled
    surface with S.S = a the quadrilateral (0, 0), (f, 0), (f + a p, p),
    (0, p) of the class p*S + f*F, whose row y holds the degree a*y + f
    bundle's sections."""
    cls = tuple(Fraction(c) for c in cls)
    if any(c < 0 for c in cls):
        raise ValueError(f"class {cls} is not nef on {family.name}")
    if family.name == "P1":
        return [(ZERO,), cls]
    if family.name == "P2":
        return [(ZERO, ZERO), (cls[0], ZERO), (ZERO, cls[0])]
    p, f = cls
    return [(ZERO, ZERO), (f, ZERO), (f + family.hirzebruch_a * p, p), (ZERO, p)]


def ruled_surface_hq_any(a, p, f, q):
    """Extend the ruled-surface count to all integral classes with Serre
    duality against the canonical class -2S + (a-2)F."""
    if p >= -1:
        return ruled_surface_hq(a, p, f, q)
    kp, kf = -2 - p, (a - 2) - f
    return ruled_surface_hq(a, kp, kf, 2 - q)


# --------------------------------------------------------------------------
# twist-perturbation scan, one cell at a time
# --------------------------------------------------------------------------

def _round_up_terms(terms):
    """Integral class sum of ceil(c) * base over (coefficient, base) terms."""
    acc = [0] * len(terms[0][1])
    for coeff, base in terms:
        up = math.ceil(Fraction(coeff))
        for i, c in enumerate(base):
            acc[i] += up * c
    return tuple(acc)


def round_up_by_fractions(divisor, m):
    """The divisor's round-up at level m: ceil(m * a) * base summed over its
    (Fraction coefficient a, base) terms."""
    return _round_up_terms([(m * c, base) for c, base in divisor.terms])


def hq_by_closed_forms(family, cls, q):
    """h^q of an integral class on a supported family, by the classical
    formulas above."""
    if q > family.dim:
        return 0
    if family.name == "P1":
        return line_h0(cls[0]) if q == 0 else line_h1(cls[0])
    if family.name == "P2":
        return plane_hq(cls[0], q)
    if family.name == "P1xP1":
        return product_surface_hq(cls[0], cls[1], q)
    return ruled_surface_hq_any(family.hirzebruch_a, cls[0], cls[1], q)


def cohomology_rows_by_fractions(family, divisor, schedule, qs):
    """Rows (m, q, h^q(mD), n! h^q / m^n) of the cohomology table, one
    closed-form h^q per row."""
    n = family.dim
    return [(m, q, h, Fraction(math.factorial(n) * h, m ** n))
            for m in schedule for q in qs
            for h in [hq_by_closed_forms(family, round_up_by_fractions(divisor, m), q)]]


def morse_check_by_fractions(family, d, e, q, schedule):
    """(leading, fitted constant, rows, passed) of the Morse-type bound,
    computed on Fractions: the constant C of h^q(m(D-E)) <= leading m^n/n!
    + C m^(n-1) is the largest excess on the first half of the schedule,
    and the bound must hold on the second half."""
    n = family.dim
    factorial = math.factorial(n)
    leading = math.comb(n, q) * family.top_power(d.total(), e.total(), q)
    diff = type(d)(family, d.terms + tuple((-c, base) for c, base in e.terms))
    half = max(1, len(schedule) // 2)
    values = [(m, hq_by_closed_forms(family, round_up_by_fractions(diff, m), q))
              for m in schedule]
    fitted = max([(h - leading * m ** n / factorial) / m ** (n - 1)
                  for m, h in values[:half]] + [ZERO])
    rows = []
    for m, h in values:
        bound = leading * m ** n / factorial + fitted * m ** (n - 1)
        rows.append((m, h, bound, bound - h))
    passed = all(margin >= 0 for _, _, _, margin in rows[half:])
    return leading, fitted, rows, passed


def perturbation_rows_by_cells(hq_of, a_terms, b_terms, q, grid_max, dim):
    """Rows (m, p, |h^q(mA + pB) - h^q(pB)|, bound), the fitted constant and
    the verdict of the twist-stability scan, with every cell's divisor built
    from its scaled terms and rounded up on its own; hq_of(cls, q) is h^q of
    an integral class."""
    def left(m, p):
        combo = ([(m * c, base) for c, base in a_terms]
                 + [(p * c, base) for c, base in b_terms])
        plain = [(p * c, base) for c, base in b_terms]
        return abs(hq_of(_round_up_terms(combo), q)
                   - hq_of(_round_up_terms(plain), q))

    cells = [(m, p) for p in range(1, grid_max + 1)
             for m in range(grid_max + 1)]
    fitted = max([Fraction(left(m, p), m * (m + p) ** (dim - 1))
                  for m, p in cells if m and m + p <= grid_max], default=ZERO)
    rows = [(m, p, left(m, p), fitted * m * (m + p) ** (dim - 1))
            for m, p in cells]
    return rows, fitted, all(lhs <= bound for _, _, lhs, bound in rows)


# --------------------------------------------------------------------------
# trees and rational literals on Fractions
# --------------------------------------------------------------------------

def first_primes(count):
    """The first count primes, by trial division."""
    found = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


def tree_edges(tree):
    """The tree's edges (u, v, length) in input order, the lengths as
    Fractions of its integer edge rows."""
    return [(u, v, Fraction(p, q)) for u, v, p, q in tree._edge_rows]


def tree_adjacency(tree):
    """Each vertex's (neighbour, edge length) list, lengths as Fractions."""
    adjacency = {v: [] for v in tree.vertices}
    for u, v, length in tree_edges(tree):
        adjacency[u].append((v, length))
        adjacency[v].append((u, length))
    return adjacency


def tree_rows_oracle(tree):
    """The tree's (order, parent, length_scale, lengths, conductance_scale,
    conductances) from its edge rows: a stack walk from the root over
    neighbour lists in edge order, each edge's integer length pair kept as
    written, then the rows over the lcm of the denominators each one
    clears (0 at the root)."""
    position = {v: i for i, v in enumerate(tree.vertices)}
    neighbours = [[] for _ in tree.vertices]
    for u, v, p, q in tree._edge_rows:
        neighbours[position[u]].append((position[v], (p, q)))
        neighbours[position[v]].append((position[u], (p, q)))
    root = position[tree.root]
    order, parent = [], [-1] * len(tree.vertices)
    length = [(0, 1)] * len(tree.vertices)
    seen, stack = {root}, [root]
    while stack:
        i = stack.pop()
        order.append(i)
        for j, pq in neighbours[i]:
            if j not in seen:
                seen.add(j)
                parent[j], length[j] = i, pq
                stack.append(j)
    length_scale = math.lcm(*(q for _, q in length))
    conductance_scale = math.lcm(*(p for p, _ in length if p))
    return (order, parent, length_scale, [p * length_scale // q for p, q in length],
            conductance_scale, [q * conductance_scale // p if p else 0 for p, q in length])


def tree_laplacian_oracle(tree, f):
    """Nonzero atoms of the Laplacian of f on a metric tree: at each vertex,
    the sum over its edges of (f(w) - f(v)) / length."""
    atoms = {}
    adjacency = tree_adjacency(tree)
    for v in tree.vertices:
        acc = ZERO
        for w, length in adjacency[v]:
            acc += (f(w) - f(v)) / length
        if acc != 0:
            atoms[v] = acc
    return atoms


def ma_solve_oracle(tree, target, base):
    """Vertex values of the f with base + Laplacian(f) = target and
    f(root) = 0: summing the equation over the subtree below v fixes the
    slope of f on the edge into v as minus the subtree's net mass."""
    parent = {tree.root: None}
    order = [tree.root]
    adjacency = tree_adjacency(tree)
    for v in order:
        for w, length in adjacency[v]:
            if w not in parent:
                parent[w] = (v, length)
                order.append(w)
    subtree = {v: target.atoms.get(v, ZERO) - base.atoms.get(v, ZERO)
               for v in tree.vertices}
    for v in reversed(order[1:]):
        subtree[parent[v][0]] += subtree[v]
    values = {tree.root: ZERO}
    for v in order[1:]:
        p, length = parent[v]
        values[v] = values[p] - length * subtree[v]
    return values


def with_subdivided_edge(tree, u, v, new_id, at):
    """The tree with a vertex new_id inserted on its edge (u, v) at
    parameter at in (0, 1) from u."""
    from navol.trees import MetricTree
    assert 0 < at < 1 and new_id not in tree.vertices
    edges = []
    for a, b, length in tree_edges(tree):
        if {a, b} == {u, v}:
            edges += [(u, new_id, length * at), (new_id, v, length * (1 - at))]
        else:
            edges.append((a, b, length))
    assert len(edges) == len(tree.vertices), f"no edge between {u} and {v}"
    return MetricTree(tree.vertices + [new_id], edges, root=tree.root)


def extend_to_subdivision(tree, f, new_id, u, v, at):
    """The function f on tree, extended affinely to the vertex new_id that
    subdivides its edge (u, v) at parameter at from u."""
    from navol.trees import TreeFunction
    assert set(f.values) == set(tree.vertices)
    return TreeFunction({**f.values, new_id: f(u) + (f(v) - f(u)) * at})


def as_rational_oracle(value, path):
    """An instance file's rational field (a JSON integer or 'p/q' string) by
    Fraction's own string parser, with the instance parser's error texts."""
    from navol.errors import InstanceFormatError
    if isinstance(value, bool):
        raise InstanceFormatError(f"{path}: expected a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "." in value or "e" in value or "E" in value:
            raise InstanceFormatError(
                f"{path}: decimal notation {value!r} is not accepted; "
                "write rationals as 'p/q' strings")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(
                f"{path}: bad rational literal {value!r}: {exc}") from None
    raise InstanceFormatError(
        f"{path}: expected a rational as integer or 'p/q' string")


# --------------------------------------------------------------------------
# measures and instance files
# --------------------------------------------------------------------------

def is_nonnegative(mu):
    """Every atom of the discrete measure has positive mass."""
    return all(m > 0 for m in mu.atoms.values())


def _rat_out(x):
    """A rational as a JSON integer when integral, else a 'p/q' string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _metric_out(metric):
    return [[{"slope": [_rat_out(c) for c in slope], "constant": _rat_out(const)}
             for slope, const in block]
            for block in metric.blocks]


def tree_measures(inst):
    """A parsed tree instance's measures by name, as DiscreteMeasures of
    Fraction masses built from its atom rows."""
    from navol.measures import DiscreteMeasure
    names = inst.tree.vertices
    return {name: DiscreteMeasure([(names[i], Fraction(p, q)) for i, p, q in atoms])
            for name, atoms in inst.measure_atoms.items()}


def serialize_instance(inst):
    """A parsed instance back in the instance-file schema, normalized:
    explicit blocks, reduced fractions, the polytope's vertex order. Parsing
    and serializing again gives the same object."""
    from navol.serialize import SurfaceInstance, ToricInstance, TreeInstance
    if isinstance(inst, ToricInstance):
        out = {
            "kind": "toric",
            "polytope": [[_rat_out(c) for c in v] for v in inst.polytope.vertices],
            "metrics": {name: _metric_out(metric)
                        for name, metric in inst.metrics.items()},
        }
        if inst.schedule is not None:
            out["schedule"] = list(inst.schedule)
        if inst.eps_schedule is not None:
            out["eps_schedule"] = [_rat_out(e) for e in inst.eps_schedule]
    elif isinstance(inst, TreeInstance):
        out = {
            "kind": "tree",
            "tree": {
                "vertices": list(inst.tree.vertices),
                "edges": [{"ends": [u, v], "length": _rat_out(length)}
                          for u, v, length in tree_edges(inst.tree)],
                "root": inst.tree.root,
            },
        }
        if inst.measure_atoms:
            out["measures"] = {
                name: [{"vertex": k, "mass": _rat_out(mass)}
                       for k, mass in measure.items_sorted()]
                for name, measure in tree_measures(inst).items()}
    elif isinstance(inst, SurfaceInstance):
        out = {
            "kind": "surface",
            "family": inst.family.name,
            "divisors": {
                name: [{"coeff": _rat_out(coeff), "class": list(cls)}
                       for coeff, cls in div.terms]
                for name, div in inst.divisors.items()},
        }
        if inst.schedule is not None:
            out["schedule"] = list(inst.schedule)
        if inst.q is not None:
            out["q"] = inst.q
        if inst.scan is not None:
            out["scan"] = {"d": list(inst.scan.d_names),
                           "p": list(inst.scan.p_names),
                           "q": inst.scan.q,
                           "grid_max": inst.scan.grid_max}
    else:
        raise TypeError(f"not an instance: {inst!r}")
    return out


def instance_json(inst):
    """The instance as `serialize_instance` gives it, in indented JSON text."""
    import json
    return json.dumps(serialize_instance(inst), indent=2) + "\n"


def bump_metric():
    """The non-convex two-branch metric of the bundled `bump_segment.json` on
    [0, 1], read through the package's parser."""
    from navol.serialize import parse_instance_text
    text = resources.files("navol").joinpath("instances", "bump_segment.json").read_text(
        encoding="utf-8")
    return parse_instance_text(text, "bump_segment.json").single_metric("bump")
