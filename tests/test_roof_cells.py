"""Roof linearity cells on integer rows, checked against the Fraction
clipping route in _oracles: the cells themselves, the roof integral, the
Monge-Ampere cell masses and the envelope's corner pieces; the cell
engine's one-owner shortcut against clipping every pair of rows, on every
call the roofs, the gap walks and an unpruned two-metric box refinement
make; and the engine's half-plane clip against the oracle's generic one."""

import math
import random
from fractions import Fraction

from navol import plmetric
from navol.harness import random_convex_metric, random_direction, random_nonconvex_metric
from navol.measures import DiscreteMeasure, monge_ampere
from navol.plmetric import (PLMetric, distance, envelope, envelope_gap, is_semipositive,
                            legendre, metric_deform)
from navol.polytope import Polytope, segment, simplex, unit_box

from _oracles import (cell_mass_oracle, clip_cycle, dominance_cells_by_clipping,
                      envelope_corners_oracle, roof_cells, roof_cells_oracle, roof_function,
                      roof_integral_oracle)

F = Fraction
SEG = segment(0, 1)
BOX = unit_box(2)
HEXAGON = Polytope.from_points([(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)])
BODIES = (SEG, segment(F(-3, 2), 2), BOX, simplex(2), HEXAGON)
LINE = Polytope.from_points([(0, 0), (2, 1)])
DOT = Polytope.from_points([(1, 2)])
# coprime denominators near 10^6
PRIMES = (999983, 999979, 999961, 999959, 999953)


def _large_fraction(rng, bound):
    p = rng.choice(PRIMES)
    return F(rng.randint(-bound * p, bound * p), p)


def _check_roof(roof):
    """The integer cells, integral and cell masses equal the Fraction
    route's; returns the oracle cells."""
    cells = roof_cells_oracle(roof.pieces, roof.polytope.vertices)
    assert roof_cells(roof) == cells
    assert roof.integral() == roof_integral_oracle(roof.pieces, cells)
    assert roof.cell_masses() == [(i, cell_mass_oracle(region)) for i, region in cells]
    return cells


def _rotations(region):
    return [region[k:] + region[:k] for k in range(len(region))]


def _check_metric(psi):
    """The roof checks on psi and on its envelope; the envelope's pieces are
    the oracle corners valued on every roof piece, and its Monge-Ampere
    measure is made of the oracle cell masses.

    The envelope's conjugate is psi's roof restricted to the pieces that own
    a cell, with psi's cells re-indexed to them; they are the oracle's cells
    of those pieces up to the starting corner of each cycle."""
    roof = legendre(psi)
    cells = _check_roof(roof)
    env = envelope(psi)
    raw = envelope_corners_oracle(roof.pieces, cells)
    assert env.blocks == PLMetric(psi.polytope, [raw]).blocks
    env_roof = legendre(env)
    assert env_roof.pieces == tuple(roof.pieces[i] for i, _ in cells)
    assert env_roof.integer_cells() == [(k, region)
                                        for k, (_, region) in enumerate(roof.integer_cells())]
    env_cells = roof_cells_oracle(env_roof.pieces, psi.polytope.vertices)
    assert [i for i, _ in roof_cells(env_roof)] == [i for i, _ in env_cells]
    for (_, got), (_, want) in zip(roof_cells(env_roof), env_cells):
        assert got in _rotations(want)
    assert env_roof.integral() == roof_integral_oracle(env_roof.pieces, env_cells)
    assert env_roof.cell_masses() == [(i, cell_mass_oracle(region)) for i, region in env_cells]
    assert monge_ampere(env) == DiscreteMeasure(
        (env_roof.pieces[i][0], cell_mass_oracle(region)) for i, region in env_cells)


def test_seeded_metrics_match_the_fraction_cells():
    rng = random.Random(801)
    for P in BODIES:
        _check_metric(random_convex_metric(P, rng))
        for branches in (1, 2, 3):
            _check_metric(random_nonconvex_metric(P, rng, branches=branches, denom_bound=7))


def test_deformed_metrics_match_the_fraction_cells():
    rng = random.Random(802)
    for P in BODIES:
        for eps in (F(1), F(1, 3), F(2, 999983)):
            psi = random_nonconvex_metric(P, rng, branches=rng.randint(1, 2))
            pos, neg = random_direction(P, rng)
            _check_metric(metric_deform(psi, eps, pos, neg))


def test_prime_denominators_near_a_million():
    rng = random.Random(803)
    for P in BODIES:
        blocks = [[(v, _large_fraction(rng, 2)) for v in P.vertices]
                  for _ in range(rng.randint(1, 3))]
        _check_metric(PLMetric(P, blocks))
        # free pieces: slopes and constants over the primes, most of them
        # never reach the max
        for _ in range(3):
            pieces = [(tuple(_large_fraction(rng, 2) for _ in range(P.ambient_dim)),
                       _large_fraction(rng, 3)) for _ in range(rng.randint(1, 9))]
            _check_roof(roof_function(P, pieces))


def test_duplicate_and_parallel_slopes():
    # a repeated slope keeps its largest constant; slopes on one line give
    # parallel walls at u1 + u2 = 1/2, 1 and 2, so every cell is a strip (on
    # the hexagon the wall u1 + u2 = 1 runs along an edge, a zero-area clip)
    for P in BODIES[2:]:
        pieces = [((-1, -1), F(1, 2)), ((0, 0), F(0)), ((0, 0), F(-1, 3)),
                  ((1, 1), F(-1)), ((1, 1), F(-2)), ((2, 2), F(-3))]
        roof = roof_function(P, pieces)
        assert len(roof.pieces) == 4
        assert len(_check_roof(roof)) >= 2
    for P in BODIES[:2]:
        roof = roof_function(P, [((0,), F(1)), ((0,), F(0)), ((1,), F(-1, 2)),
                                 ((1,), F(1, 3)), ((2,), F(-1))])
        assert len(roof.pieces) == 3
        _check_roof(roof)


def test_cells_touching_at_a_point_and_zero_area_clips():
    # |u1 - 1/2| + |u2 - 1/2| on the square: four quadrant cells, opposite
    # ones meeting only at the centre; the constant 0 touches the roof only
    # there, u1 - 1/2 along a half line, so neither gets a cell
    half = F(1, 2)
    pieces = [((1, 1), -1), ((-1, -1), 1), ((1, -1), F(0)), ((-1, 1), F(0)),
              ((0, 0), F(0)), ((1, 0), -half)]
    roof = roof_function(BOX, pieces)
    cells = _check_roof(roof)
    assert sorted(i for i, _ in cells) == [0, 1, 2, 3]
    corners = {i: set(region) for i, region in cells}
    assert corners[0] & corners[1] == {(half, half)}
    assert corners[2] & corners[3] == {(half, half)}
    assert all(mass == half for _, mass in roof.cell_masses())
    # in 1-d: a piece that touches the roof at one point only
    roof = roof_function(SEG, [((-1,), F(0)), ((1,), F(-1)), ((0,), -half)])
    assert [i for i, _ in _check_roof(roof)] == [0, 1]


def test_segment_in_the_plane_is_tiled_by_its_cells():
    # each cell is a two-corner cycle along the segment, low end first, the
    # cells meet end to end from one vertex to the other, and each corner is
    # valued by the cell's own piece; the segment has no area, so there is
    # no integral and no cell mass
    rng = random.Random(804)
    for _ in range(3):
        blocks = [[(v, F(rng.randint(-5, 5), rng.randint(1, 4))) for v in LINE.vertices]
                  for _ in range(rng.randint(1, 3))]
        roof = legendre(PLMetric(LINE, blocks))
        cells = sorted(roof_cells(roof), key=lambda cell: cell[1])
        ends = [u for _, (lo, hi) in cells for u in (lo, hi)]
        assert ends[0] == LINE.vertices[0] and ends[-1] == LINE.vertices[-1]
        assert all(lo < hi for lo, hi in zip(ends[::2], ends[1::2]))
        assert ends[1:-1:2] == ends[2:-1:2]
        for i, region in cells:
            s, c = roof.pieces[i]
            for u in region:
                assert s[0] * u[0] + s[1] * u[1] + c == roof.evaluate(u)
        assert roof.integral() == 0 and roof.cell_masses() == []


def test_a_point_is_one_cell_with_no_volume():
    # the point is a one-corner cell of a piece reaching the max there; the
    # fan of a one-corner cell has no simplex, so integral and cell masses
    # must not reach it
    for P in (Polytope.from_points([(F(1, 3),)]), Polytope.from_points([(F(1, 2), F(-3, 2))])):
        n = P.ambient_dim
        roof = roof_function(P, [((F(0),) * n, F(1)), ((F(1),) * n, F(-1)),
                                 ((F(-2),) * n, F(5, 7))])
        cells = roof_cells(roof)
        assert [region for _, region in cells] == [list(P.vertices)]
        s, c = roof.pieces[cells[0][0]]
        u = P.vertices[0]
        assert sum(a * b for a, b in zip(s, u)) + c == roof.evaluate(u)
        assert roof.integral() == 0 and roof.cell_masses() == []


def _blocks(P, rng, branches):
    """Blocks of P's vertices and up to two convex combinations of them, with
    small rational constants; every such metric is accepted."""
    blocks = []
    for _ in range(branches):
        slopes = list(P.vertices)
        for _ in range(rng.randint(0, 2)):
            w = [rng.randint(0, 2) for _ in P.vertices]
            w[0] += 1
            slopes.append(tuple(F(sum(a * v[k] for a, v in zip(w, P.vertices)), sum(w))
                                for k in range(P.ambient_dim)))
        blocks.append([(s, F(rng.randint(-6, 6), rng.randint(1, 3))) for s in slopes])
    return blocks


def _refine_both(m1, m2):
    """Walk the box refinement of m1 and then m2 with nothing dropped: every
    cell of m1's branches split again by m2's, the most cells the engine
    meets on one pair."""
    (_, blocks1), (_, blocks2) = m1.integer_rows(), m2.integer_rows()
    dim = m1.dim

    def keep(row, part):
        return False

    box = plmetric._box(dim, blocks1, blocks2)
    for _, cell in plmetric._branch_cells(box, blocks1, dim, keep):
        for _ in plmetric._branch_cells(cell, blocks2, dim, keep):
            pass


def test_one_owner_cells_equal_clipping_every_pair(monkeypatch):
    # every call the roof cells, the pruned walks of distance, envelope_gap
    # and is_semipositive, and the unpruned two-metric box refinement make
    # returns the list of the full clip loop (indices, order and corner
    # cycles), on seeded metrics and on ties: repeated blocks put one row
    # twice in the min stage, two distinct rows agree on a segment in the
    # plane, and rows tie on a point P
    engine, calls = plmetric._dominance_cells, []

    def recorded(region, rows, dim, sign):
        out = engine(region, rows, dim, sign)
        calls.append((region, rows, dim, sign, out))
        return out

    monkeypatch.setattr(plmetric, "_dominance_cells", recorded)
    rng = random.Random(805)
    for P in BODIES + (LINE, DOT):
        for branches in (1, 2, 3):
            a, b = (PLMetric(P, _blocks(P, rng, branches)) for _ in range(2))
            twice = PLMetric(P, a.blocks[:1] * 2)
            for m1, m2 in ((a, b), (a, envelope(a)), (twice, b), (b, twice)):
                distance(m1, m2)
                _refine_both(m1, m2)
            for blocks in (a.blocks, b.blocks, twice.blocks):
                envelope_gap(PLMetric(P, blocks))
                is_semipositive(PLMetric(P, blocks))
    for P, pieces in ((LINE, [((0, 0), F(0)), ((1, -2), F(0)), ((-1, 0), F(-3))]),
                      (DOT, [((0, 0), F(0)), ((1, 0), F(-1)), ((0, 1), F(-3))])):
        assert [i for i, _ in roof_function(P, pieces).integer_cells()] == [0, 1]
    owned = tied = repeated = 0
    for region, rows, dim, sign, out in calls:
        assert out == dominance_cells_by_clipping(region, rows, dim, sign), (region, rows)
        owned += len(rows) > 1 and len(out) == 1 and out[0][1] is region
        tied += sum(cell == region for _, cell in out) > 1
        repeated += sign < 0 and len(set(rows)) < len(rows)
    assert owned > 1000 and tied > 100 and repeated > 100, (owned, tied, repeated)


def test_interval_cells_equal_clipping_every_pair():
    # intervals of the line, either way round, with rows that tie at a
    # corner, cross at one, repeat or run parallel: the crossing route gives
    # the clip loop's list
    rng = random.Random(806)
    crossed = 0
    for _ in range(3000):
        ends = []
        while len(ends) < 2:
            x, w = rng.randint(-12, 12), rng.randint(1, 4)
            g = math.gcd(x, w)
            if (x // g, w // g) not in ends and all(x * e[1] != e[0] * w for e in ends):
                ends.append((x // g, w // g))
        rows = [(rng.randint(-5, 5), rng.randint(-15, 15)) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.2:
            rows.append(rng.choice(rows))
        for sign in (1, -1):
            out = plmetric._interval_cells(ends, rows, sign)
            assert out == dominance_cells_by_clipping(ends, rows, 1, sign), (ends, rows, sign)
            crossed += len(out) > 1
    assert crossed > 2000, crossed


def _half_planes(cycle, rng):
    """Half-planes <h, row> <= 0 for a cycle of homogeneous rows: random ones,
    ones through a corner, along an edge (both sides), one that keeps every
    corner and one that empties the cycle."""
    n = len(cycle[0])
    out = [tuple(rng.randint(-6, 6) for _ in range(n - 1)) + (rng.randint(-30, 30),)
           for _ in range(4)]
    out += [(0,) * (n - 1) + (1,), (0,) * (n - 1) + (-1,)]
    for *x, w in rng.sample(cycle, min(2, len(cycle))):
        a = [rng.randint(-5, 5) for _ in x]
        out.append(tuple(k * w for k in a) + (-sum(k * c for k, c in zip(a, x)),))
    if n == 3 and len(cycle) > 1:
        k = rng.randrange(len(cycle))
        (px, py, pw), (qx, qy, qw) = cycle[k], cycle[(k + 1) % len(cycle)]
        edge = (py * qw - pw * qy, pw * qx - px * qw, px * qy - py * qx)
        out += [edge, tuple(-c for c in edge)]
    return out


def test_clip_cycle_equals_the_generic_clip():
    # convex cycles of 3-entry rows (polygons, segments and points in the
    # plane) and of 2-entry rows (intervals either way round, and points),
    # clipped by random half-planes and by ones through a corner, along an
    # edge, keeping all or emptying the cycle: the unrolled clip returns the
    # generic clip's list, corner order and start included
    rng = random.Random(807)
    crossed = emptied = 0
    for trial in range(1500):
        if trial % 3:
            pts = [tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
                   for _ in range(rng.choice((1, 2, 3, 5, 8)))]
        else:
            pts = [(F(rng.randint(-9, 9), rng.randint(1, 4)),) for _ in range(rng.randint(1, 2))]
        cycle = Polytope.from_points(pts).homogeneous_vertices
        if rng.random() < 0.5:
            cycle = cycle[::-1] if len(cycle[0]) == 2 else cycle[1:] + cycle[:1]
        for h in _half_planes(cycle, rng):
            out = plmetric._clip_cycle(cycle, h)
            assert out == clip_cycle(cycle, h), (cycle, h)
            crossed += any(p not in cycle for p in out)
            emptied += not out
    assert crossed > 1500 and emptied > 1500, (crossed, emptied)
