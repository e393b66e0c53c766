"""Metrics as min-of-max piecewise-linear data: evaluation, conjugates
(roofs), convex envelopes, and the exact lower-hull kernel behind them."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from navol import plmetric
from navol.errors import PreconditionError
from navol.harness import (random_convex_metric, random_nonconvex_metric, random_direction,
                           tent_metric)
from navol.measures import energy, envelope_energy, monge_ampere
from navol.plmetric import (PLMetric, canonical_metric,
                            distance, envelope, envelope_gap, is_semipositive, legendre,
                            metric_deform, metric_deformations, metric_shift)
from navol.polytope import Polytope, segment, simplex, unit_box
from navol.rational import frac

from navol.volumes import lattice_length

from _oracles import (arrangement_candidates, bump_metric, block_conjugate_oracle,
                      brute_lower_hull_facets, common_scale, deform_branches,
                      deformation_roof_by_translates, dilate,
                      distance_by_joint_arrangement, envelope_1d_oracle,
                      envelope_corners_oracle, eval_min_max, lattice_length_oracle,
                      lower_hull_facets_2d, metric_deform_by_branches, metric_min, metric_scale,
                      metric_sum, polygon_area, polytope_contains, recession_by_all_slopes,
                      roof_cells, roof_cells_oracle, roof_oracle, vadd, vsub)

F = Fraction
SEG = segment(0, 1)
BOX = unit_box(2)
HEXAGON = Polytope.from_points([(0, 0), (2, 0), (3, 1), (3, 2), (1, 2), (0, 1)])
LINE = Polytope.from_points([(0, 0), (2, 1)])
# A metric on a vertical segment whose envelope and h0 checks once hung.
STUCK_SEGMENT = Polytope.from_points([(0, 0), (0, 3)])
STUCK_BLOCKS = [[((0, 0), F(-1, 3)), ((0, 3), F(0))],
                [((0, 0), F(-7)), ((0, 3), F(7, 3)), ((0, F(9, 4)), F(-1)),
                 ((0, F(3, 4)), F(-1))]]
# coprime denominators near 10^6: their lcms overflow any fixed-width integer
PRIMES = (999983, 999979, 999961, 999959, 999953)


def _large_fraction(rng, bound):
    p = rng.choice(PRIMES)
    return F(rng.randint(-bound * p, bound * p), p)


def _grid(P, steps):
    if P.ambient_dim == 1 or not P.is_full_dimensional():
        a, b = P.vertices[0], P.vertices[-1]
        return list(dict.fromkeys(tuple(x + (y - x) * F(k, steps) for x, y in zip(a, b))
                                  for k in range(steps + 1)))
    pts = []
    xs = [v[0] for v in P.vertices]
    ys = [v[1] for v in P.vertices]
    for i in range(steps + 1):
        for j in range(steps + 1):
            p = (min(xs) + (max(xs) - min(xs)) * F(i, steps),
                 min(ys) + (max(ys) - min(ys)) * F(j, steps))
            if polytope_contains(P, p):
                pts.append(p)
    return pts


# --------------------------------------------------------------------------
# the lower-hull kernel
# --------------------------------------------------------------------------

def test_lower_hull_facets_match_brute_force():
    rng = random.Random(123)
    for trial in range(150):
        pts = []
        for _ in range(rng.randint(3, 12)):
            s = (F(rng.randint(-4, 4), rng.randint(1, 3)),
                 F(rng.randint(-4, 4), rng.randint(1, 3)))
            z = F(rng.randint(-6, 6), rng.randint(1, 3))
            pts.append((s, z))
        if trial % 5 == 0:
            pts += pts[:2]  # duplicated lifted points
        if trial % 7 == 0:
            pts = [((x, y), x + 2 * y + 1) for (x, y), _ in pts]  # coplanar
        if trial % 11 == 0:
            pts = [((x, x + 1), z) for (x, _), z in pts]  # collinear plan view
        got = set(lower_hull_facets_2d(pts))
        want = brute_lower_hull_facets(pts)
        assert got == want, (trial, pts)


def test_lower_hull_facets_with_large_denominators():
    # the kernel scales to the lcm of every denominator: coprime primes near
    # 10^6 and negative coordinates, with the same degenerate patterns; the
    # pieces the recession constructor keeps are those where the block's
    # exhaustive conjugate equals -c
    rng = random.Random(124)
    for trial in range(60):
        pts = [((_large_fraction(rng, 3), _large_fraction(rng, 3)), _large_fraction(rng, 5))
               for _ in range(rng.randint(3, 9))]
        if trial % 5 == 0:
            pts += pts[:2]  # duplicated lifted points
        if trial % 7 == 0:
            pts = [((x, y), x - 3 * y + F(2, 999983)) for (x, y), _ in pts]  # coplanar
        if trial % 11 == 0:
            pts = [((x, -2 * x + F(1, 999979)), z) for (x, _), z in pts]  # collinear plan view
        got = set(lower_hull_facets_2d(pts))
        assert got == brute_lower_hull_facets(pts), (trial, pts)

        block = _deduped([(s, -z) for s, z in pts])
        P = Polytope.from_points([s for s, _ in block])
        kept = PLMetric(P, [block]).blocks[0]
        assert kept == tuple((s, c) for s, c in block
                             if block_conjugate_oracle(block, s) == -c), trial


def test_lower_hull_vertical_stacks_keep_lowest_point():
    pts = [((F(0), F(0)), F(3)), ((F(0), F(0)), F(0)),
           ((F(1), F(0)), F(0)), ((F(0), F(1)), F(0))]
    facets = set(lower_hull_facets_2d(pts))
    assert facets == {((F(0), F(0)), F(0))}


# --------------------------------------------------------------------------
# construction and evaluation
# --------------------------------------------------------------------------

def test_evaluation_is_min_of_max():
    rng = random.Random(9)
    for P in (SEG, BOX):
        for _ in range(5):
            psi = random_nonconvex_metric(P, rng, branches=3)
            for v in _grid(P, 4) + [(F(7),) * P.ambient_dim, (F(-5),) * P.ambient_dim]:
                assert psi.evaluate(v) == eval_min_max(psi.blocks, v)


def test_slope_outside_polytope_rejected():
    with pytest.raises(PreconditionError):
        PLMetric(SEG, [[((F(0),), F(0)), ((F(2),), F(0)), ((F(1),), F(0))]])


@pytest.mark.parametrize("build", [
    lambda: frac(0.5),
    lambda: segment(0, 0.5),
    lambda: PLMetric(SEG, [[((F(0),), F(0)), ((0.5,), F(0)), ((F(1),), F(0))]]),
], ids=["frac", "segment", "slope"])
def test_a_float_is_refused_as_inexact(build):
    with pytest.raises(TypeError) as err:
        build()
    assert str(err.value) == "cannot interpret 0.5 as an exact rational"


def test_missing_vertex_slope_rejected():
    with pytest.raises(PreconditionError):
        PLMetric(SEG, [[((F(0),), F(0)), ((F(1, 2),), F(0))]])


@pytest.mark.parametrize("P, blocks, message", [
    (SEG, [[((0, 0), 0), ((1, 0), 0)]], "branch 0, piece 0: slope (0, 0) needs 1 coordinates"),
    (BOX, [[((0,), 0), ((1,), 0)]], "branch 0, piece 0: slope (0) needs 2 coordinates"),
    (BOX, [[(v, 0) for v in BOX.vertices], [((0, 0), 0), ((1,), 0), ((1, 1), 0)]],
     "branch 1, piece 1: slope (1) needs 2 coordinates"),
], ids=["plane-slopes-on-a-segment", "line-slopes-on-the-box", "mixed-block"])
def test_slopes_of_the_wrong_dimension_are_refused(P, blocks, message):
    # once silently accepted, an IndexError and a ValueError
    with pytest.raises(PreconditionError) as err:
        PLMetric(P, blocks)
    assert str(err.value) == message


def test_slopes_outside_the_polytope_with_the_right_recession_are_accepted():
    # max(-v, 2v) exceeds the support function of [0, 1] only where
    # max(0, v) is smaller, so the min of the two branches is canonical
    psi = PLMetric(SEG, [[((0,), 0), ((1,), 0)], [((-1,), 0), ((2,), 0)]])
    can = canonical_metric(SEG)
    for v in _grid(SEG, 4) + [(F(-9),), (F(-1, 3),), (F(5, 2),), (F(40),)]:
        assert psi.evaluate(v) == can.evaluate(v)
    assert distance(psi, can) == 0


def test_recession_check_rejects_a_branch_missing_a_vertex_direction():
    cases = [
        (SEG, [[((F(0),), F(0)), ((F(1),), F(0))],
               [((F(0),), F(1)), ((F(1, 2),), F(0))]]),
        (BOX, [[(v, F(0)) for v in BOX.vertices],
               [(v, F(1)) for v in BOX.vertices[1:]] + [((F(1, 2), F(1, 2)), F(0))]]),
    ]
    for P, blocks in cases:
        with pytest.raises(PreconditionError, match="bounded distance"):
            PLMetric(P, blocks)


def _interior_slope(P, rng):
    weights = [rng.randint(0, 3) for _ in P.vertices]
    weights[rng.randrange(len(weights))] += 1
    return tuple(sum(w * v[k] for w, v in zip(weights, P.vertices)) / sum(weights)
                 for k in range(P.ambient_dim))


def _random_blocks(P, rng, branches, extra, drop=0.0, spread=0):
    """Blocks of pieces: the vertices of P (each dropped with probability
    drop), then extra slopes inside P or, with spread > 0, in a box around it."""
    blocks = []
    for _ in range(branches):
        slopes = [v for v in P.vertices if rng.random() >= drop]
        for _ in range(rng.randint(0, extra)):
            if spread and rng.random() < 0.5:
                slopes.append(tuple(F(rng.randint(-4 * spread, 4 + 4 * spread), 4)
                                    for _ in range(P.ambient_dim)))
            else:
                slopes.append(_interior_slope(P, rng))
        if not slopes:
            slopes.append(_interior_slope(P, rng))
        blocks.append([(s, F(rng.randint(-6, 6), rng.randint(1, 3))) for s in slopes])
    return blocks


def _accepted(P, blocks):
    try:
        PLMetric(P, blocks)
    except PreconditionError:
        return False
    return True


def test_recession_check_matches_all_slopes_route():
    rng = random.Random(59)
    outcomes = {True: 0, False: 0}
    for P in (SEG, BOX, simplex(2), HEXAGON, LINE):
        for _ in range(40):
            blocks = _random_blocks(P, rng, rng.randint(1, 3), extra=3,
                                    drop=0.1, spread=1)
            want = recession_by_all_slopes(blocks, P.vertices)
            assert _accepted(P, blocks) == want, (P, blocks)
            outcomes[want] += 1
    assert min(outcomes.values()) >= 40, outcomes
    # constants over 3 and 7, which P's vertices (over 2 or 3) lack, so the
    # rows' denominator differs from the vertices'
    outcomes = {True: 0, False: 0}
    for P in (segment(0, F(1, 2)), Polytope.from_points([(F(1, 3), 0), (1, 1), (0, 1)])):
        for _ in range(30):
            blocks = [[(s, c + F(rng.randint(-6, 6), rng.choice((3, 7)))) for s, c in b]
                      for b in _random_blocks(P, rng, rng.randint(1, 3), extra=2, drop=0.1)]
            want = recession_by_all_slopes(blocks, P.vertices)
            assert _accepted(P, blocks) == want, (P, blocks)
            outcomes[want] += 1
    assert min(outcomes.values()) >= 15, outcomes


def test_recession_check_on_degenerate_slope_hulls():
    # collinear boundary slopes, duplicated slopes, single-slope blocks and
    # vertices moved by 1/p (p near 10^6) along an axis or a diagonal
    rng = random.Random(64)
    POINT = Polytope.from_points([(F(1, 2), F(-3, 2))])
    WIDE = Polytope.from_points([(F(-1, 999979), F(2, 999961)), (F(7, 3), F(-5, 999983)),
                                 (F(1, 999953), F(11, 4))])
    outcomes = {True: 0, False: 0}
    for P in (SEG, BOX, simplex(2), HEXAGON, LINE, POINT, WIDE):
        verts = list(P.vertices)
        for _ in range(24):
            blocks = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.15:
                    slopes = [rng.choice(verts)]
                else:
                    slopes = [v for v in verts if rng.random() >= 0.1]
                    for a, b in zip(verts, verts[1:] + verts[:1]):
                        if a != b and rng.random() < 0.5:
                            t = F(rng.randint(1, PRIMES[0] - 1), PRIMES[0])
                            slopes.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
                    if rng.random() < 0.4:
                        step = [F(rng.choice((-1, 0, 1)), rng.choice(PRIMES))
                                for _ in range(P.ambient_dim)]
                        slopes.append(tuple(x + d for x, d in zip(rng.choice(verts), step)))
                    slopes = slopes or [rng.choice(verts)]
                    slopes.append(rng.choice(slopes))  # a duplicated slope
                blocks.append([(s, _large_fraction(rng, 4)) for s in slopes])
            want = recession_by_all_slopes(blocks, verts)
            assert _accepted(P, blocks) == want, (P, blocks)
            outcomes[want] += 1
    assert min(outcomes.values()) >= 40, outcomes
    # each branch exceeds the support function of the square only inside the
    # open quadrant between the axes, so only a probe inside that sector sees
    # the min of the two exceed it as well
    for t in (F(1), F(1, PRIMES[0])):
        blocks = [[(v, F(0)) for v in BOX.vertices] + [((F(1), 1 + t), F(0))],
                  [(v, F(0)) for v in BOX.vertices] + [((1 + t, F(1)), F(0))]]
        assert not recession_by_all_slopes(blocks, BOX.vertices)
        assert not _accepted(BOX, blocks)


def _outside_slope(P, rng):
    """A slope outside P: a vertex maximizing <v, w> moved by w / k."""
    w = (0,) * P.ambient_dim
    while not any(w):
        w = tuple(rng.randint(-2, 2) for _ in range(P.ambient_dim))
    v = max(P.vertices, key=lambda v: sum(a * b for a, b in zip(v, w)))
    k = rng.randint(1, 3)
    return tuple(a + F(b, k) for a, b in zip(v, w))


def _shared_hull_blocks(hull, rng):
    """1-3 branches whose slope sets all have the hull of the points hull:
    those points plus convex combinations of them, shuffled, with random
    constants."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        slopes = list(hull)
        for _ in range(rng.randint(0, 2)):
            weights = [rng.randint(0, 3) for _ in hull]
            weights[rng.randrange(len(weights))] += 1
            slopes.append(tuple(sum(w * F(s[k]) for w, s in zip(weights, hull)) / sum(weights)
                                for k in range(len(hull[0]))))
        rng.shuffle(slopes)
        blocks.append([(s, F(rng.randint(-6, 6), rng.randint(1, 3))) for s in slopes])
    return blocks


def test_recession_check_on_one_shared_slope_hull(monkeypatch):
    # every branch shares one slope hull: P itself, P less a vertex, or P
    # with an outside slope; the constructor reads the first off the hull
    # with no probe (no sector is sorted), and its verdict on all three
    # matches the all-slopes route
    sorts = []
    sort = plmetric._sort_by_angle
    monkeypatch.setattr(plmetric, "_sort_by_angle", lambda dirs: sorts.append(1) or sort(dirs))
    rng = random.Random(71)
    bodies = (SEG, BOX, simplex(2), HEXAGON, LINE, Polytope.from_points([(F(1, 2), F(-3, 2))]))
    outcomes = {True: 0, False: 0}
    for P in bodies:
        verts = list(P.vertices)
        for trial in range(30):
            hull = verts[:]
            if trial % 3 == 1 and len(verts) > 1:
                hull.pop(rng.randrange(len(hull)))
            elif trial % 3 == 2:
                hull.append(_outside_slope(P, rng))
            blocks = _shared_hull_blocks(hull, rng)
            want = recession_by_all_slopes(blocks, verts)
            assert want == (hull == verts), (P, blocks)
            sorts.clear()
            assert _accepted(P, blocks) == want, (P, blocks)
            assert not (want and sorts), (P, blocks)
            outcomes[want] += 1
    assert min(outcomes.values()) >= 60, outcomes
    # the messages and witnesses of the direction probe
    pinned = [
        (SEG, [[((0,), 0), ((F(1, 2),), 0)], [((0,), 1), ((F(1, 2),), F(-1, 3))]],
         "rec(w) = 1/2 but h_P(w) = 1 at w = (1)"),
        (BOX, [[((0, 0), 0), ((1, 0), 0), ((1, 1), 0)],
               [((1, 1), F(1, 2)), ((0, 0), -1), ((1, 0), 2), ((F(1, 2), F(1, 3)), 0)]],
         "rec(w) = 0 but h_P(w) = 1 at w = (-1, 1)"),
        (BOX, [[(v, 0) for v in BOX.vertices] + [((2, 2), 0)],
               [(v, 1) for v in BOX.vertices] + [((2, 2), -3)]],
         "rec(w) = 2 but h_P(w) = 1 at w = (1, 0)"),
    ]
    for P, blocks, message in pinned:
        with pytest.raises(PreconditionError) as err:
            PLMetric(P, blocks)
        assert str(err.value) == ("metric is not within bounded distance of the canonical "
                                  "metric: " + message)


def _with_large_constants(blocks, rng):
    return [[(s, c + _large_fraction(rng, 1)) for s, c in b] for b in blocks]


def _point_blocks(p, e, rng):
    """Two branches on the point p of the plane, one with an extra slope at
    p + e and one at p - e: psi is <p, v> plus a bounded function of <e, v>,
    so every wall is parallel to e's normal and no two walls cross."""
    return [[(p, F(rng.randint(-6, 6), 2)), (vadd(p, e), F(rng.randint(-6, 6), 3))],
            [(p, F(rng.randint(-6, 6), 2)), (vsub(p, e), F(rng.randint(-6, 6), 3))]]


def test_distance_matches_joint_arrangement():
    rng = random.Random(60)
    for P in (SEG, BOX, simplex(2)):
        for _ in range(6):
            a = PLMetric(P, _random_blocks(P, rng, rng.randint(1, 2), extra=1))
            b = PLMetric(P, _random_blocks(P, rng, rng.randint(1, 2), extra=1))
            assert distance(a, b) == distance_by_joint_arrangement(a.blocks, b.blocks)
            assert distance(a, envelope(a)) == distance_by_joint_arrangement(
                a.blocks, envelope(a).blocks)
    # up to three branches and constants over primes near 10^6, so the
    # candidates mix small and large denominators; the oracle crosses every
    # two walls of all pieces, so the polygons get fewer slopes and cases
    rng = random.Random(65)
    for P, extra, trials in ((SEG, 2, 3), (LINE, 2, 3), (BOX, 0, 2), (simplex(2), 0, 2)):
        for _ in range(trials):
            a = PLMetric(P, _with_large_constants(
                _random_blocks(P, rng, rng.randint(2, 3), extra), rng))
            b = PLMetric(P, _with_large_constants(
                _random_blocks(P, rng, rng.randint(1, 3), extra), rng))
            for x, y in ((a, b), (a, envelope(a)), (envelope(b), b)):
                assert distance(x, y) == distance_by_joint_arrangement(x.blocks, y.blocks)
    # the sup is at v = 0, where psi1's two branches cross; the vertices of
    # the overlay of each block's linearity cells, -1, 1/2 and 1, give at most
    # 1/4, so the overlay must be cut by the wall between the branches
    psi1 = PLMetric(SEG, [[((0,), 0), ((1,), 1)], [((0,), 1), ((1,), 0)]])
    psi2 = PLMetric(SEG, [[((0,), 0), ((F(1, 2),), F(1, 2)), ((1,), F(1, 4))]])
    assert distance(psi1, psi2) == distance_by_joint_arrangement(
        psi1.blocks, psi2.blocks) == F(1, 2)
    assert abs(psi1.evaluate((0,)) - psi2.evaluate((0,))) == F(1, 2)
    assert max(abs(psi1.evaluate((v,)) - psi2.evaluate((v,)))
               for v in (F(-1), F(1, 2), F(1))) == F(1, 4)
    rng = random.Random(66)
    # the hexagon with three branches, each the canonical pieces with two
    # constants raised, so the oracle's walls stay few
    def hexagon_metric():
        return PLMetric(HEXAGON, [[(v, F(rng.randint(0, 6), 4) if k in raised else F(0))
                                   for k, v in enumerate(HEXAGON.vertices)]
                                  for raised in (rng.sample(range(6), 2) for _ in range(3))])
    for _ in range(2):
        a = hexagon_metric()
        for b in (canonical_metric(HEXAGON), hexagon_metric()):
            assert distance(a, b) == distance_by_joint_arrangement(a.blocks, b.blocks)
    # a segment in the plane with rational ends: its cells are strips
    tilted = Polytope.from_points([(F(1, 2), F(1, 3)), (F(5, 2), F(4, 3))])
    for _ in range(4):
        a, b = (PLMetric(tilted, _random_blocks(tilted, rng, rng.randint(1, 3), extra=2))
                for _ in range(2))
        for x, y in ((a, b), (a, envelope(a))):
            assert distance(x, y) == distance_by_joint_arrangement(x.blocks, y.blocks)
    # a point in the plane: with parallel extra slopes no two walls cross,
    # so the sup lies on a wall and not at a vertex; then two that cross
    p = (F(1, 2), F(-3, 2))
    for e1, e2 in (((F(1), F(2)), (F(2), F(4))), ((F(1), F(2)), (F(-1, 3), F(1)))):
        a = PLMetric(Polytope.from_points([p]), _point_blocks(p, e1, rng))
        b = PLMetric(Polytope.from_points([p]), _point_blocks(p, e2, rng))
        assert distance(a, b) == distance_by_joint_arrangement(a.blocks, b.blocks)
    # three branches of four pieces on the line
    for _ in range(4):
        a, b = (PLMetric(SEG, [[((F(k, 6),), F(rng.randint(-9, 9), rng.randint(1, 4)))
                                for k in (0, rng.randint(1, 2), rng.randint(3, 5), 6)]
                               for _ in range(3)]) for _ in range(2))
        assert distance(a, b) == distance_by_joint_arrangement(a.blocks, b.blocks)
    # far2's second branch kinks at v = -12, the only point where
    # |far1 - far2| reaches 7/2. The largest entry of the metrics' integer
    # rows is M = 8 (far1 over D = 2), so the box |v| <= 2M + 1 = 17 holds
    # the kink and a box of half that size does not
    far1 = PLMetric(SEG, [[((0,), -4), ((F(1, 2),), F(7, 2)), ((1,), 0)]])
    far2 = PLMetric(SEG, [[((0,), 5), ((1,), -3)], [((0,), -6), ((1,), 6)]])
    assert distance(far1, far2) == distance_by_joint_arrangement(
        far1.blocks, far2.blocks) == F(7, 2)
    assert far1.evaluate((-12,)) - far2.evaluate((-12,)) == F(7, 2)
    assert all(abs(far1.evaluate((v,)) - far2.evaluate((v,))) < F(7, 2)
               for v in (F(-13), F(-25, 2), F(-23, 2), F(-11), F(-8), F(8)))


def test_empty_branch_rejected():
    with pytest.raises(PreconditionError):
        PLMetric(SEG, [[]])


def test_canonical_metric_is_support_function():
    for P in (SEG, BOX, simplex(2)):
        can = canonical_metric(P)
        for v in _grid(P, 3) + [(F(3),) * P.ambient_dim, (F(-2),) * P.ambient_dim]:
            support = max(sum(ui * vi for ui, vi in zip(u, v)) for u in P.vertices)
            assert can.evaluate(v) == support
        assert is_semipositive(can)


# --------------------------------------------------------------------------
# conjugates (roofs)
# --------------------------------------------------------------------------

def test_roof_values_match_exhaustive_conjugate_oracle():
    rng = random.Random(31)
    metrics = [tent_metric(SEG), bump_metric(),
               canonical_metric(SEG), canonical_metric(BOX)]
    for _ in range(4):
        metrics.append(random_convex_metric(SEG, rng))
        metrics.append(random_nonconvex_metric(SEG, rng))
        metrics.append(random_convex_metric(BOX, rng))
        metrics.append(random_nonconvex_metric(BOX, rng))
    for psi in metrics:
        roof = legendre(psi)
        for u in _grid(psi.polytope, 4):
            assert roof.evaluate(u) == roof_oracle(psi.blocks, u), (psi, u)


def _deduped(block):
    """A block with one piece per slope, the largest constant kept."""
    by_slope = {}
    for s, c in block:
        s = tuple(F(x) for x in s)
        if s not in by_slope or c > by_slope[s]:
            by_slope[s] = F(c)
    return list(by_slope.items())


def _on_lower_hull(block):
    """The pieces whose lifted point (s, -c) lies on the lower hull of the
    block's lifted points: on a brute-force facet when the slopes span the
    plane, else where the block's exhaustive conjugate equals -c."""
    facets = brute_lower_hull_facets([(s, -c) for s, c in block]) \
        if len(block[0][0]) == 2 else set()
    if facets:
        return [(s, c) for s, c in block
                if -c == max(a[0] * s[0] + a[1] * s[1] + b for a, b in facets)]
    return [(s, c) for s, c in block if block_conjugate_oracle(block, s) == -c]


def test_seeded_conjugate_matches_oracle_and_keeps_hull_pieces():
    # metric_deform and envelope outputs get their conjugate from the lower
    # hulls built while pruning; both the roof and the kept pieces are
    # checked against the exhaustive routes
    rng = random.Random(61)
    # the exhaustive oracles grow with the cube of the piece count, so the
    # polygons get fewer and smaller cases
    for P, trials, extra in ((SEG, 3, 1), (BOX, 2, 1), (simplex(2), 2, 1),
                             (HEXAGON, 1, 0), (LINE, 3, 2)):
        plane = P.is_full_dimensional() and P.ambient_dim == 2
        grid = _grid(P, 2 if plane else 6)
        for trial in range(trials):
            psi = PLMetric(P, _random_blocks(P, rng, 1 if plane else 2, extra))
            pos = PLMetric(P, _random_blocks(P, rng, 1, extra))
            neg = random_convex_metric(P, rng)
            eps = F(1) if trial == 0 else F(1, 3)
            raw = deform_branches(psi, eps, pos, neg)
            moved = metric_deform(psi, eps, pos, neg)
            # the kept pieces span the same lower hulls as the raw branches
            assert moved.blocks == tuple(tuple(_on_lower_hull(_deduped(b))) for b in raw)
            for u in grid:
                assert legendre(moved).evaluate(u) == roof_oracle(moved.blocks, u), (P, u)

            bumpy = PLMetric(P, _random_blocks(P, rng, 2, extra + 1))
            env = envelope(bumpy)
            for u in grid:  # a metric and its envelope share their conjugate on P
                assert legendre(env).evaluate(u) == roof_oracle(bumpy.blocks, u), (P, u)
            if P.is_full_dimensional():
                roof = legendre(bumpy)
                corners = dict.fromkeys(u for _, region in roof_cells(roof) for u in region)
                raw_env = [(u, -roof.evaluate(u)) for u in corners]
                assert env.blocks == (tuple(_on_lower_hull(_deduped(raw_env))),)


def _with_points_on_the_hull(block, rng):
    """The block with pieces whose lifted points lie on its lower hull
    without being vertices, each at a random place: the midpoint of two kept
    pieces on one edge of the hull, with the average of their constants,
    and, when the slopes span the plane, the centroid of three kept pieces
    on one facet."""
    kept = sorted(_on_lower_hull(_deduped(block)))
    extra = []
    facets = brute_lower_hull_facets([(s, -c) for s, c in kept]) if len(kept[0][0]) == 2 else ()
    if facets:
        (a1, a2), b = rng.choice(sorted(facets))
        on = [(s, c) for s, c in kept if -c == a1 * s[0] + a2 * s[1] + b]
        for k in (2, 3):
            chosen = rng.sample(on, k)
            extra.append((tuple(sum(x) / k for x in zip(*(s for s, _ in chosen))),
                          sum(c for _, c in chosen) / k))
    elif len(kept) > 1:   # slopes along a line: two neighbours on the chain
        i = rng.randrange(len(kept) - 1)
        (s1, c1), (s2, c2) = kept[i], kept[i + 1]
        extra.append((tuple((x + y) / 2 for x, y in zip(s1, s2)), (c1 + c2) / 2))
    block = list(block)
    for piece in extra:
        block.insert(rng.randint(0, len(block)), piece)
    return block, extra


def test_kept_rows_include_hull_points_that_are_not_vertices():
    # the lifted hull keeps its vertices without a test and plane-tests the
    # other points; an edge midpoint and a point inside a facet lie on the
    # hull, so they are kept, in row order, as the brute-force hull keeps them
    rng = random.Random(341)
    added = 0
    for P, trials, extra in ((SEG, 12, 3), (BOX, 8, 2), (simplex(2), 8, 2),
                             (HEXAGON, 5, 1), (LINE, 12, 2)):
        for trial in range(trials):
            blocks, extras = [], []
            for block in _random_blocks(P, rng, 1 + trial % 2, extra):
                block, pieces = _with_points_on_the_hull(block, rng)
                blocks.append(block)
                extras += pieces
            kept = PLMetric(P, blocks).blocks
            assert kept == tuple(tuple(_on_lower_hull(_deduped(b))) for b in blocks), (P, blocks)
            added += sum(piece in b for piece in extras for b in kept)
    assert added > 60, added


def test_stored_rows_are_in_lowest_terms():
    # every builder stores its kept rows, and its roof's rows, over a
    # denominator with no factor common to all entries, and they are the
    # rows recomputed from the Fraction blocks or pieces; a pruned piece
    # that carries the only denominator leaves integral rows over 1
    pruned = PLMetric(SEG, [[((0,), 0), ((F(1, 2),), F(-1, 6)), ((1,), 0)]])
    assert pruned.integer_rows() == (1, (((0, 0), (1, 0)),))
    rng = random.Random(342)
    for P in (SEG, BOX, simplex(2), HEXAGON, LINE):
        for _ in range(4):
            a = PLMetric(P, _random_blocks(P, rng, 2, extra=2))
            b = PLMetric(P, _random_blocks(P, rng, 1, extra=2))
            t = F(rng.randint(-9, 9), rng.randint(1, 6))
            eps = F(rng.randint(1, 5), rng.randint(1, 4))
            for m in (a, envelope(a), metric_shift(a, t),
                      metric_deform(a, eps, b, random_convex_metric(P, rng))):
                scale, rows = m.integer_rows()
                assert math.gcd(scale, *(x for bl in rows for r in bl for x in r)) == 1, (P, m)
                want = common_scale(s + (c,) for b in m.blocks for s, c in b)
                assert (scale, [r for b in rows for r in b]) == want, (P, m)
                scale, rows = legendre(m).integer_rows()
                assert math.gcd(scale, *(x for r in rows for x in r)) == 1, (P, m)
                assert (scale, rows) == common_scale(s + (c,) for s, c in legendre(m).pieces)


def test_points_and_segments_in_the_plane_match_the_oracles():
    rng = random.Random(62)
    bodies = [STUCK_SEGMENT, LINE,
              Polytope.from_points([(-1, 2), (3, 2)]),
              Polytope.from_points([(F(1, 2), F(1, 3)), (F(5, 2), F(4, 3))]),
              Polytope.from_points([(F(-3, 2), F(7, 5)), (F(1, 3), F(-2))]),
              Polytope.from_points([(1, 2)]),
              Polytope.from_points([(F(1, 2), F(-3, 2))])]
    metrics = [PLMetric(STUCK_SEGMENT, STUCK_BLOCKS)]
    for P in bodies:
        for _ in range(3):
            metrics.append(PLMetric(P, _random_blocks(P, rng, rng.randint(1, 3), extra=3)))
    far = [(F(9), F(-4)), (F(-7), F(5)), (F(1, 3), F(12))]
    for psi in metrics:
        P = psi.polytope
        roof, env = legendre(psi), envelope(psi)
        for u in _grid(P, 6):
            assert roof.evaluate(u) == roof_oracle(psi.blocks, u), (psi.blocks, u)
        again = envelope(PLMetric(P, env.blocks))
        for v in _grid(P, 6) + far:
            assert env.evaluate(v) <= psi.evaluate(v)
            assert again.evaluate(v) == env.evaluate(v)
        other = PLMetric(P, _random_blocks(P, rng, 1, extra=2))
        for m in (1, 2, 3, 6):
            assert lattice_length(psi, env, m) == lattice_length_oracle(
                psi.blocks, env.blocks, m, P.vertices)
            assert lattice_length(other, psi, m) == lattice_length_oracle(
                other.blocks, psi.blocks, m, P.vertices)


def test_tent_roof_closed_form():
    roof = legendre(tent_metric(SEG))
    for u in _grid(SEG, 8):
        want = -u[0] if u[0] <= F(1, 2) else u[0] - 1
        assert roof.evaluate(u) == want


def test_roof_cells_partition_the_polytope():
    rng = random.Random(47)
    metrics = [tent_metric(SEG), canonical_metric(BOX),
               random_convex_metric(BOX, rng), random_nonconvex_metric(BOX, rng),
               random_nonconvex_metric(SEG, rng)]
    for psi in metrics:
        roof = legendre(psi)
        cells = roof_cells(roof)
        total = F(0)
        for piece_idx, region in cells:
            if psi.dim == 1:
                xs = [p[0] for p in region]
                vol = max(xs) - min(xs)
            else:
                vol = polygon_area(region)
            assert vol > 0
            for corner in region:
                expected = roof.evaluate(corner)
                s, c = roof.pieces[piece_idx]
                assert s[0] * corner[0] + (s[1] * corner[1] if psi.dim == 2 else 0) \
                    + c == expected
            total += vol
        assert total == psi.polytope.volume()


# --------------------------------------------------------------------------
# envelopes
# --------------------------------------------------------------------------

def test_envelope_matches_chain_oracle_on_the_line():
    rng = random.Random(1101)
    metrics = [bump_metric(), tent_metric(SEG)]
    for _ in range(12):
        metrics.append(random_nonconvex_metric(SEG, rng, branches=rng.randint(2, 3)))
    queries = [F(k, 16) for k in range(17)]
    for psi in metrics:
        env = envelope(psi)
        want = envelope_1d_oracle(psi.blocks, F(0), F(1), queries)
        got = [env.evaluate((q,)) for q in queries]
        assert got == want, psi


def test_envelope_properties_in_the_plane():
    rng = random.Random(1102)
    for _ in range(6):
        psi = random_nonconvex_metric(BOX, rng, branches=rng.randint(2, 3))
        env = envelope(psi)
        assert is_semipositive(env)
        samples = _grid(BOX, 4) + [(F(5), F(-3)), (F(-2), F(6)), (F(9), F(9))]
        for v in samples:
            assert env.evaluate(v) <= psi.evaluate(v)
        env2 = envelope(env)
        for v in samples:
            assert env2.evaluate(v) == env.evaluate(v)
        # an affine map with slope in the polytope lying under psi at every
        # arrangement candidate lies under psi everywhere (the candidates
        # exhaust the linearity-cell vertices and the recession rates
        # dominate), hence under the envelope
        candidates = arrangement_candidates(psi.blocks)
        for _ in range(8):
            u = (F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4))
            c = min(psi.evaluate(x) - (u[0] * x[0] + u[1] * x[1]) for x in candidates)
            for v in samples:
                assert u[0] * v[0] + u[1] * v[1] + c <= env.evaluate(v)


def test_envelope_of_convex_metric_is_itself():
    rng = random.Random(1103)
    for P in (SEG, BOX):
        for _ in range(4):
            psi = random_convex_metric(P, rng)
            env = envelope(psi)
            for v in _grid(P, 3) + [(F(4),) * P.ambient_dim]:
                assert env.evaluate(v) == psi.evaluate(v)
            assert is_semipositive(psi)


def test_bump_is_not_semipositive_but_its_envelope_is():
    psi = bump_metric()
    assert not is_semipositive(psi)
    env = envelope(psi)
    assert is_semipositive(env)
    assert envelope_gap(psi) == distance(psi, env) > 0


TRIANGLE = Polytope.from_points([(0, 0), (F(5, 2), F(1, 3)), (F(1, 2), F(7, 4))])
LATTICE_HEXAGON = Polytope.from_points([(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)])
TILTED = Polytope.from_points([(F(1, 2), F(1, 3)), (F(5, 2), F(4, 3))])
POINT = (F(1, 2), F(-3, 2))
# (body, metrics per branch count 1-4): the oracle crosses every two walls of
# both metrics' pieces, so the polygons get fewer cases
GAP_BODIES = ((segment(F(-1, 2), 2), 12), (BOX, 8), (TRIANGLE, 8), (LATTICE_HEXAGON, 3),
              (TILTED, 12), (Polytope.from_points([POINT]), 12))


def _raised(block, rng):
    """The block with each constant raised by 0, 1/2 or 1: a second branch
    above the first, so their min is the first, convex one."""
    return [(s, c + F(rng.randint(0, 2), 2)) for s, c in block]


def _gap_blocks(P, rng, branches):
    """branches blocks on P. Each after the first is the first raised, or a
    fresh block: random pieces on the line and on a segment in the plane,
    P's vertices with two constants in 0..2 on a polygon, and on the point
    a pair of _point_blocks (a lone piece for one branch), raised copies of
    that pair giving the third and fourth."""
    if P.vertices == (POINT,):
        if branches == 1:
            return [[(POINT, F(rng.randint(-6, 6), 2))]]
        pair = _point_blocks(POINT, (F(rng.randint(-2, 2)), F(rng.randint(1, 3))), rng)
        return pair + [_raised(b, rng) for b in pair[:branches - 2]]

    def fresh():
        if not P.is_full_dimensional() or P.ambient_dim == 1:
            return _random_blocks(P, rng, 1, extra=2)[0]
        high = rng.sample(range(len(P.vertices)), 2)
        return [(v, F(rng.randint(0, 4), 2) if k in high else F(0))
                for k, v in enumerate(P.vertices)]

    blocks = [fresh()]
    while len(blocks) < branches:
        blocks.append(_raised(blocks[0], rng) if rng.random() < 0.5 else fresh())
    return blocks


def _check_gap(P, blocks):
    """envelope_gap equals distance to the envelope and the joint
    arrangement's sup, and a fresh metric is semipositive exactly when it is
    0; returns the gap."""
    psi = PLMetric(P, blocks)
    env = envelope(psi)
    gap = envelope_gap(psi)
    assert gap == distance(psi, env) == distance_by_joint_arrangement(
        psi.blocks, env.blocks), blocks
    assert is_semipositive(PLMetric(P, blocks)) == (gap == 0), blocks
    return gap


def test_envelope_gap_matches_distance_and_the_joint_arrangement():
    # the pruned walk drops only parts that cannot beat the running maximum,
    # and stops at the first positive gap when asked for semipositivity
    rng = random.Random(311)
    convex = bumpy = 0
    for P, count in GAP_BODIES:
        for branches in (1, 2, 3, 4):
            for _ in range(count):
                gap = _check_gap(P, _gap_blocks(P, rng, branches))
                convex += branches > 1 and gap == 0
                bumpy += gap > 0
    assert convex > 50 and bumpy > 70, (convex, bumpy)


def test_envelope_gap_on_pinned_metrics():
    # the segment in the plane whose h0 and orthogonality checks once hung
    assert _check_gap(STUCK_SEGMENT, STUCK_BLOCKS) > 0
    # min(max(-v, v, 2v - 1), max(-v, v, 3 - 2v)) is |v| on [-1, 1], which is
    # convex, though neither block is: the first is 2v - 1 beyond v = 1 and
    # the second 3 - 2v before it
    blocks = [[((-1,), 0), ((1,), 0), ((2,), -1)], [((-1,), 0), ((1,), 0), ((-2,), 3)]]
    P = segment(-1, 1)
    assert _check_gap(P, blocks) == 0
    psi = PLMetric(P, blocks)
    assert [eval_min_max([b], (v,)) - psi.evaluate((v,)) for b, v in zip(blocks, (2, 0))] \
        == [1, 3]


# --------------------------------------------------------------------------
# metric arithmetic
# --------------------------------------------------------------------------

def test_metric_operations_pointwise():
    rng = random.Random(55)
    for P in (SEG, BOX):
        a = random_nonconvex_metric(P, rng)
        b = random_convex_metric(P, rng)
        samples = _grid(P, 3) + [(F(6),) * P.ambient_dim, (F(-7),) * P.ambient_dim]
        # smaller metric = larger convexity function, so the metric minimum
        # is the pointwise maximum on the function side
        lo = metric_min(a, b)
        sh = metric_shift(a, F(5, 3))
        sc = metric_scale(b, F(3, 2))
        for v in samples:
            assert lo.evaluate(v) == max(a.evaluate(v), b.evaluate(v))
            assert sh.evaluate(v) == a.evaluate(v) + F(5, 3)
            assert sc.evaluate(v) == F(3, 2) * b.evaluate(v)
        assert sc.polytope == dilate(P, F(3, 2))
        su = metric_sum(b, b)
        for v in samples:
            assert su.evaluate(v) == 2 * b.evaluate(v)


def test_metric_shift_changes_distance_by_the_shift():
    psi = tent_metric(SEG)
    assert distance(psi, metric_shift(psi, F(-2, 7))) == F(2, 7)
    assert distance(psi, psi) == 0


def test_metric_shift_matches_the_constructor_on_shifted_blocks():
    # metric_shift moves the integer rows of the metric and its roof and
    # hulls nothing; the constructor hulls the shifted Fraction blocks again
    # and must give the same metric, blocks, roof rows in order and envelope
    rng = random.Random(251)
    shifts = set()
    for P in (SEG, BOX, simplex(2), HEXAGON, LINE):
        for _ in range(42):
            blocks = _random_blocks(P, rng, rng.randint(1, 3), extra=3)
            t = F(rng.randint(-20, 20), rng.randint(1, 6))
            shifts.add((t < 0, t.denominator > 1))
            fast = metric_shift(PLMetric(P, blocks), t)
            slow = PLMetric(P, [[(s, c + t) for s, c in b] for b in blocks])
            assert fast == slow and fast.blocks == slow.blocks
            assert legendre(fast).integer_rows() == legendre(slow).integer_rows()
            assert envelope(fast).blocks == envelope(slow).blocks
            assert is_semipositive(fast) == is_semipositive(slow)
    assert (True, True) in shifts and (False, True) in shifts


def test_distance_triangle_inequality():
    rng = random.Random(56)
    for P in (SEG, BOX):
        a = random_nonconvex_metric(P, rng)
        b = random_convex_metric(P, rng)
        c = random_nonconvex_metric(P, rng)
        assert distance(a, c) <= distance(a, b) + distance(b, c)
        assert distance(a, b) == distance(b, a)


@st.composite
def _small_metrics(draw, count, bodies=(SEG, BOX, simplex(2))):
    """count metrics on one of bodies (by default a segment, the square and
    a triangle): one or two branches, each P's vertices and at most one slope
    inside P, with small rational constants."""
    P = draw(st.sampled_from(bodies))
    const = st.builds(F, st.integers(-6, 6), st.integers(1, 3))

    def metric():
        blocks = []
        for _ in range(draw(st.integers(1, 2))):
            block = [(v, draw(const)) for v in P.vertices]
            if draw(st.booleans()):
                weights = [draw(st.integers(0, 2)) for _ in P.vertices]
                weights[0] += 1
                block.append((tuple(F(sum(w * v[k] for w, v in zip(weights, P.vertices)),
                                      sum(weights)) for k in range(P.ambient_dim)),
                              draw(const)))
            blocks.append(block)
        return PLMetric(P, blocks)

    return [metric() for _ in range(count)]


@settings(max_examples=20)
@given(_small_metrics(3), st.builds(F, st.integers(-9, 9), st.integers(1, 4)))
def test_distance_is_a_metric_and_matches_the_oracle(metrics, t):
    a, b, c = metrics
    assert distance(a, b) == distance(b, a) == distance_by_joint_arrangement(
        a.blocks, b.blocks)
    assert distance(a, a) == 0
    assert distance(a, metric_shift(a, t)) == abs(t)
    assert distance(a, c) <= distance(a, b) + distance(b, c)


def test_metric_deform_evaluates_exactly():
    rng = random.Random(57)
    for P in (SEG, BOX):
        for trial in range(6):
            psi = random_convex_metric(P, rng)
            pos, neg = random_direction(P, rng)
            for eps in (F(1, 2), F(1, 5), F(3, 7)):
                moved = metric_deform(psi, eps, pos, neg)
                samples = _grid(P, 3) + [(F(50),) * P.ambient_dim,
                                         (F(-50),) * P.ambient_dim,
                                         (F(41), F(-37))[:P.ambient_dim]]
                for v in samples:
                    want = psi.evaluate(v) + eps * (pos.evaluate(v) - neg.evaluate(v))
                    assert moved.evaluate(v) == want, (P, trial, eps, v)


def _deform_cases(rng):
    """Seeded (psi, pos, neg) triples with 1-2-branch psi and pos and a neg
    that is convex in one branch or in two (a block and its shift up), on
    segments, the square, the triangle, the hexagon, segments in the plane and
    a point in the plane."""
    bodies = (SEG, segment(F(-1, 2), 2), BOX, simplex(2), HEXAGON, LINE,
              Polytope.from_points([(F(1, 2), F(1, 3)), (F(5, 2), F(4, 3))]),
              Polytope.from_points([(1, 2)]))
    for P in bodies:
        for trial in range(6):
            psi = PLMetric(P, _random_blocks(P, rng, 1 + trial % 2, extra=1))
            pos = PLMetric(P, _random_blocks(P, rng, 1 + trial // 2 % 2, extra=1))
            neg = random_convex_metric(P, rng)
            if trial % 3 == 2:
                neg = PLMetric(P, [neg.blocks[0], [(s, c + 1) for s, c in neg.blocks[0]]])
            yield psi, pos, neg


def test_metric_deform_matches_hulling_every_branch():
    # metric_deform hulls each psi + eps*pos block once and translates it to
    # every piece of neg; hulling every raw branch must give the same pieces
    # in the same order
    for psi, pos, neg in _deform_cases(random.Random(64)):
        for eps in (F(0), F(1, 3), F(1), F(7, 5)):
            moved = metric_deform(psi, eps, pos, neg)
            want = metric_deform_by_branches(psi, eps, pos, neg)
            assert moved.blocks == want.blocks, (psi.polytope, eps)
            assert legendre(moved).pieces == legendre(want).pieces, (psi.polytope, eps)


def test_metric_deformations_match_one_deformation_per_eps():
    # one hull per branch pair serves a whole schedule: every output equals
    # metric_deform's and the oracle's at its eps in its rows, its roof rows
    # as a set and its envelope energy against psi; at the first positive
    # eps, hulled there, its roof rows are in the same order too
    rng = random.Random(66)
    for psi, pos, neg in _deform_cases(rng):
        schedule = [F(0), F(1, 32), F(1, 3), F(1), F(7, 5)]
        rng.shuffle(schedule)
        first = next(eps for eps in schedule if eps)
        for eps, moved in zip(schedule, metric_deformations(psi, schedule, pos, neg)):
            scale, rows = legendre(moved).integer_rows()
            energy_moved = envelope_energy(moved, psi)
            for want in (metric_deform(psi, eps, pos, neg),
                         metric_deform_by_branches(psi, eps, pos, neg)):
                case = (psi.polytope, schedule, eps)
                assert moved.integer_rows() == want.integer_rows(), case
                want_scale, want_rows = legendre(want).integer_rows()
                assert scale == want_scale and set(rows) == set(want_rows), case
                assert eps != first or rows == want_rows, case
                assert energy_moved == envelope_energy(want, psi), case


def test_deformation_roof_keeps_one_row_per_hull_plane():
    # all translates of a hull plane share its normal, so the one with the
    # largest roof constant stands for all: the roof rows, order included,
    # are _plane_roof's over every translate of every plane
    rng = random.Random(73)
    for psi, pos, neg in _deform_cases(rng):
        schedule = [F(0), F(1, 32), F(1, 3), F(1), F(7, 5)]
        rng.shuffle(schedule)
        roofs = [legendre(moved).integer_rows()
                 for moved in metric_deformations(psi, schedule, pos, neg)]
        assert roofs == deformation_roof_by_translates(psi, schedule, pos, neg), \
            (psi.polytope, schedule)


def test_deformations_and_shifts_build_their_blocks_on_first_read(monkeypatch):
    # the differentiability check reads only its deformations' roofs and the
    # proportionality check only the shifted metric's; read afterwards, the
    # blocks of each equal an eager build's in every way
    from navol import harness, volumes
    made = []

    def kept(build):
        def wrapper(*args):
            out = build(*args)
            made.extend(out if isinstance(out, list) else [out])
            return out
        return wrapper

    monkeypatch.setattr(harness, "metric_deformations", kept(metric_deformations))
    monkeypatch.setattr(volumes, "metric_shift", kept(metric_shift))
    rng = random.Random(74)
    for P in (SEG, BOX, simplex(2), LINE):
        psi = random_convex_metric(P, rng)
        pos, neg = random_direction(P, rng)
        schedule = [F(1, 2), F(1, 5), F(1, 8)]   # decreasing, the harness's order
        made.clear()
        harness.verify_differentiability(psi, pos, neg, schedule)
        assert len(made) == 3 and all("_rows" not in vars(m) for m in made), P
        # the constructor builds its blocks at once
        wants = [metric_deform_by_branches(psi, eps, pos, neg) for eps in schedule]
        t = F(-2, 3)
        volumes.proportionality_check(psi, pos, t, [1, 2])
        assert len(made) == 4 and "_rows" not in vars(made[-1]), P
        wants.append(PLMetric(P, [[(s, c + t) for s, c in b] for b in psi.blocks]))
        points = [tuple(F(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(P.ambient_dim))
                  for _ in range(8)]
        for m, ref in zip(made, wants):
            assert m == ref and hash(m) == hash(ref), P
            assert m.integer_rows() == ref.integer_rows(), P
            assert m.blocks == ref.blocks, P
            assert [m.evaluate(v) for v in points] == [ref.evaluate(v) for v in points], P


def _direction(normal):
    g = math.gcd(*normal)
    return tuple(x // g for x in normal)


def test_minkowski_hull_normals_do_not_depend_on_eps():
    # the lower hull of the lifted sums a + eps*b has the same plane normals
    # at every eps > 0 (the normal fan of conv A + eps conv B does not move),
    # so re-offsetting one eps's planes is the hull at another; eps = 1 makes
    # vertex slopes collide on every body
    rng = random.Random(72)
    plane_segment = Polytope.from_points([(F(1, 2), F(1, 3)), (F(5, 2), F(4, 3))])
    collided = 0
    for P in (SEG, BOX, simplex(2), HEXAGON, LINE, plane_segment):
        for trial in range(8):
            a, b = (PLMetric(P, _random_blocks(P, rng, 1, extra=2)) for _ in range(2))
            (da, (ra,)), (db, (rb,)) = a.integer_rows(), b.integer_rows()
            fans, first = set(), None
            for eps in (F(1, 32), F(1, 3), F(1), F(7, 5)):
                scale = math.lcm(da, eps.denominator * db)
                fa, fb = scale // da, eps.numerator * (scale // (eps.denominator * db))
                rows = plmetric._dedupe_rows([tuple([fa * x + fb * y for x, y in zip(r1, r2)])
                                              for r1 in ra for r2 in rb])
                collided += len(rows) < len(ra) * len(rb)
                planes = plmetric._lower_hull(rows)
                fans.add(frozenset(_direction(pl[:-1]) for pl in planes))
                first = first or planes
                moved = plmetric._reoffset(first, rows)
                assert plmetric._on_hull(moved, rows) == plmetric._on_hull(planes, rows), \
                    (P, trial, eps)
                assert {_direction(pl) for pl in moved} == {_direction(pl) for pl in planes}
            assert len(fans) == 1, (P, trial)
    assert collided > 20


def test_metric_deform_with_prime_denominators_matches_the_oracles():
    # constants over primes near 10^6 and eps over others make the common
    # denominator of the integer rows a product of several of them; the
    # deformation must equal hulling every raw branch, and its envelope the
    # oracle corners of its roof, on segments, polygons and segments in the
    # plane
    rng = random.Random(67)

    def metric(P, branches):
        return PLMetric(P, [[(s, _large_fraction(rng, 3)) for s, _ in block]
                            for block in _random_blocks(P, rng, branches, extra=1)])

    for P in (SEG, BOX, simplex(2), LINE, STUCK_SEGMENT):
        for trial in range(3):
            psi, pos = metric(P, 1 + trial % 2), metric(P, 2 - trial % 2)
            neg = [(v, _large_fraction(rng, 2)) for v in P.vertices]
            neg = PLMetric(P, [neg] if trial < 2 else [neg, [(s, c + 1) for s, c in neg]])
            for eps in (F(0), F(1, 999983), F(999979, 999961), F(7, 5)):
                moved = metric_deform(psi, eps, pos, neg)
                want = metric_deform_by_branches(psi, eps, pos, neg)
                assert moved.blocks == want.blocks, (P, trial, eps)
                roof = legendre(moved)
                assert roof.pieces == legendre(want).pieces, (P, trial, eps)
                cells = roof_cells_oracle(roof.pieces, P.vertices)
                assert envelope(moved) == PLMetric(
                    P, [envelope_corners_oracle(roof.pieces, cells)]), (P, trial, eps)


def test_envelope_reads_its_conjugate_off_the_roof_cells(monkeypatch):
    # every cell corner lies on the graph of the convex roof, so the
    # envelope hulls nothing; its conjugate and cells are the roof's, so
    # integrals, Monge-Ampere measures and energies of envelopes cut no cell;
    # its block holds every vertex of P, so its recession is not re-checked
    calls = {"cells": 0, "hull": 0, "recession": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    rng = random.Random(68)
    a, b = (PLMetric(BOX, _random_blocks(BOX, rng, 2, extra=2)) for _ in range(2))
    with monkeypatch.context() as patch:
        patch.setattr(plmetric, "_dominance_cells",
                      counted("cells", plmetric._dominance_cells))
        patch.setattr(plmetric, "_lower_hull", counted("hull", plmetric._lower_hull))
        patch.setattr(plmetric, "_recession_mismatch",
                      counted("recession", plmetric._recession_mismatch))
        env = envelope(a)
        assert calls == {"cells": 1, "hull": 0, "recession": 0}
        envelope(b)
        assert calls == {"cells": 2, "hull": 0, "recession": 0}
        legendre(env).integral()
        monge_ampere(env)
        energy(envelope(a), envelope(b))
        assert calls == {"cells": 2, "hull": 0, "recession": 0}


def test_metric_deform_hulls_each_branch_pair_once(monkeypatch):
    # the recession of psi + eps*(pos - neg) is h_P + eps*h_P - eps*h_P, so
    # the output is not re-checked; its kept rows are tested against the
    # hull (_on_hull) only when its blocks are first read, once per pair
    calls = {"hull": 0, "recession": 0, "kept": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    rng = random.Random(65)
    for P in (SEG, BOX):
        psi = PLMetric(P, _random_blocks(P, rng, 2, extra=1))
        pos = PLMetric(P, _random_blocks(P, rng, 2, extra=1))
        neg = random_convex_metric(P, rng)
        with monkeypatch.context() as patch:
            patch.setattr(plmetric, "_lower_hull", counted("hull", plmetric._lower_hull))
            patch.setattr(plmetric, "_recession_mismatch",
                          counted("recession", plmetric._recession_mismatch))
            patch.setattr(plmetric, "_on_hull", counted("kept", plmetric._on_hull))
            calls.update(hull=0, recession=0, kept=0)
            moved = metric_deform(psi, F(1, 3), pos, neg)
            assert calls == {"hull": 4, "recession": 0, "kept": 0}
            assert len(moved.blocks) == 4 * len(neg.blocks[0])
            assert calls == {"hull": 4, "recession": 0, "kept": 4}
            # a schedule of positive eps hulls each pair once, at its first
            # eps, and eps = 0 once more
            schedule = [F(1, 3), F(1, 32), F(7, 5), F(1), F(1, 2)]
            for eps_values, hulls in ((schedule, 4), (schedule[:2] + [F(0)] + schedule[2:], 8)):
                calls.update(hull=0, recession=0, kept=0)
                made = metric_deformations(psi, eps_values, pos, neg)
                assert len(made) == len(eps_values)
                assert calls == {"hull": hulls, "recession": 0, "kept": 0}
                assert len(made[-1].blocks) == 4 * len(neg.blocks[0])
                assert calls == {"hull": hulls, "recession": 0, "kept": 4}


def test_public_constructors_check_the_recession_once(monkeypatch):
    check, calls = plmetric._recession_mismatch, []

    def counted(*args):
        calls.append(args)
        return check(*args)

    rng = random.Random(69)
    a, b = (PLMetric(BOX, _random_blocks(BOX, rng, 2, extra=1)) for _ in range(2))
    neg = canonical_metric(BOX)
    builds = {
        "PLMetric": lambda: PLMetric(BOX, a.blocks),
        "canonical_metric": lambda: canonical_metric(BOX),
        "metric_min": lambda: metric_min(a, b),
        "metric_sum": lambda: metric_sum(a, b),
        "metric_scale": lambda: metric_scale(a, F(3, 2)),
    }
    # these keep the identity by theorem and never check it
    unchecked = {
        "envelope": lambda: envelope(a),
        "metric_deform": lambda: metric_deform(a, F(1, 2), b, neg),
        "metric_shift": lambda: metric_shift(a, F(-1, 3)),
    }
    monkeypatch.setattr(plmetric, "_recession_mismatch", counted)
    for name, build in {**builds, **unchecked}.items():
        calls.clear()
        build()
        assert len(calls) == (1 if name in builds else 0), name


@settings(max_examples=20)
@given(_small_metrics(3, bodies=(SEG, BOX, simplex(2), LINE)),
       st.builds(F, st.integers(0, 9), st.integers(1, 4)))
def test_envelopes_and_deformations_keep_the_recession_identity(metrics, eps):
    # the builders that skip the constructor's check must still give
    # metrics it accepts, with the recession function of P's support
    psi, pos, neg = metrics
    if not is_semipositive(neg):
        neg = envelope(neg)
    moved = metric_deform(psi, eps, pos, neg)
    P = psi.polytope
    for out in (envelope(psi), envelope(pos), moved, envelope(moved),
                metric_shift(psi, -eps), metric_shift(moved, eps)):
        assert recession_by_all_slopes(out.blocks, P.vertices)
        PLMetric(P, out.blocks)


def test_pruning_never_changes_values_far_out():
    # canonicalization of deformed metrics must preserve the function on
    # unbounded linearity cells, not just near the candidate points
    rng = random.Random(58)
    P = BOX
    for _ in range(10):
        psi = random_nonconvex_metric(P, rng, branches=2)
        pos, neg = random_direction(P, rng)
        moved = metric_deform(psi, F(1, 3), pos, neg)
        raw = lambda v: (psi.evaluate(v)
                         + F(1, 3) * (pos.evaluate(v) - neg.evaluate(v)))
        for v in [(F(200), F(1)), (F(-200), F(3)), (F(7), F(-300)),
                  (F(151), F(149)), (F(-80), F(-80))]:
            assert moved.evaluate(v) == raw(v)


def _built_metrics(rng):
    """(builder, metric) for every builder on a segment, the square, a
    triangle and a segment in the plane."""
    for P in (SEG, BOX, simplex(2), LINE):
        a, b = (PLMetric(P, _random_blocks(P, rng, 2, extra=1)) for _ in range(2))
        neg = random_convex_metric(P, rng)
        moved = metric_deform(a, F(2, 3), b, neg)
        yield from (("PLMetric", a), ("envelope", envelope(a)), ("metric_deform", moved),
                    ("envelope of a deformation", envelope(moved)),
                    ("metric_deform by a two-branch neg", metric_deform(
                        b, F(5, 4), a, PLMetric(P, [neg.blocks[0], neg.blocks[0]]))),
                    ("metric_min", metric_min(a, b)), ("metric_sum", metric_sum(a, b)),
                    ("metric_shift", metric_shift(a, F(-7, 6))),
                    ("metric_scale", metric_scale(a, F(3, 2))))


def test_metrics_store_integer_rows_over_the_lowest_denominator():
    # integer_rows() is the stored form of a metric and of its roof; the
    # Fraction blocks and pieces built from it scale back to it, evaluation
    # on the rows agrees with the blocks at int, string and Fraction points,
    # and the roof's with the exhaustive conjugate of the blocks on P
    rng = random.Random(71)
    for name, m in _built_metrics(rng):
        scale, rows = m.integer_rows()
        want = common_scale(s + (c,) for b in m.blocks for s, c in b)
        assert (scale, [r for b in rows for r in b]) == want, name
        assert [len(b) for b in rows] == [len(b) for b in m.blocks], name
        roof = legendre(m)
        assert roof.integer_rows() == common_scale(s + (c,) for s, c in roof.pieces), name
        verts = m.polytope.vertices
        for u in (verts[0], tuple(sum(x) / len(verts) for x in zip(*verts))):
            assert roof.evaluate(u) == roof_oracle(m.blocks, u), (name, u)
        for _ in range(6):
            v = [rng.randint(-9, 9) for _ in range(m.dim)]
            for given_v in (v, [f"{x}/{rng.randint(1, 7)}" for x in v],
                            [F(x, rng.randint(1, 7)) for x in v]):
                assert m.evaluate(given_v) == eval_min_max(m.blocks, [F(x) for x in given_v]), \
                    (name, given_v)


def test_envelopes_of_deformations_build_no_fraction_blocks():
    # the differentiability and orthogonality checks read a metric, a
    # deformation and their envelopes, and the roofs of all four, through
    # integer rows only
    rng = random.Random(72)
    for P in (SEG, BOX, simplex(2), LINE):
        psi = PLMetric(P, _random_blocks(P, rng, 2, extra=1))
        pos, neg = random_direction(P, rng)
        moved = metric_deform(psi, F(1, 3), pos, neg)
        env, base = envelope(moved), envelope(psi)
        energy(env, base)
        distance(moved, env)
        distance(psi, base)
        envelope_gap(moved)
        is_semipositive(moved)
        monge_ampere(env)
        for m in (psi, moved, env, base):
            assert "blocks" not in vars(m), P
            assert "pieces" not in vars(legendre(m)), P


# Refusals that no other test reaches. The harness refuses a bad eps, polytope
# or neg before it deforms anything, so those reach metric_deformations and
# metric_deform only when called directly.
BUMP_SEG, CAN_SEG, CAN_BOX = bump_metric(), canonical_metric(SEG), canonical_metric(BOX)


@pytest.mark.parametrize("call, match", [
    (lambda: metric_deformations(CAN_SEG, [F(1, 2), F(-1, 3)], CAN_SEG, CAN_SEG),
     "deformation parameter must be nonnegative"),
    (lambda: metric_deform(CAN_SEG, F(-1), CAN_SEG, CAN_SEG),
     "deformation parameter must be nonnegative"),
    (lambda: metric_deformations(CAN_SEG, [F(1, 2)], CAN_BOX, CAN_SEG),
     "direction metrics must live on the same polytope"),
    (lambda: metric_deform(CAN_SEG, F(1, 2), CAN_SEG, CAN_BOX),
     "direction metrics must live on the same polytope"),
    (lambda: metric_deformations(CAN_SEG, [F(1, 2)], CAN_SEG, BUMP_SEG),
     "subtracted part of a direction must be semipositive"),
    (lambda: metric_deform(CAN_SEG, F(1, 2), CAN_SEG, BUMP_SEG),
     "subtracted part of a direction must be semipositive"),
    (lambda: distance(CAN_SEG, CAN_BOX), "distance needs metrics on the same polytope"),
    (lambda: distance(CAN_BOX, CAN_SEG), "distance needs metrics on the same polytope"),
], ids=["schedule-negative-eps", "deform-negative-eps", "schedule-other-polytope",
        "deform-other-polytope", "schedule-neg-not-semipositive",
        "deform-neg-not-semipositive", "distance-two-polytopes", "distance-reversed"])
def test_plmetric_refusals(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()
