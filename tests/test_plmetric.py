"""Metrics as min-of-max piecewise-linear data: evaluation, conjugates
(roofs), convex envelopes, and the exact lower-hull kernel behind them."""

import itertools
import random
from fractions import Fraction

import pytest

from navol.errors import PreconditionError
from navol.harness import (bump_metric, random_convex_metric,
                           random_nonconvex_metric, random_direction,
                           tent_metric)
from navol.plmetric import (PLMetric, arrangement_points, canonical_metric,
                            distance, envelope, is_semipositive, legendre,
                            metric_deform, metric_min, metric_scale, metric_shift,
                            metric_sum, _lower_hull_facets_2d, _walls)
from navol.polytope import Polytope, segment, simplex, unit_box

from navol.volumes import lattice_length

from _oracles import (block_conjugate_oracle, brute_lower_hull_facets,
                      distance_by_joint_arrangement, envelope_1d_oracle,
                      eval_min_max, lattice_length_oracle, polygon_area,
                      recession_by_all_slopes, roof_oracle)

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
            if P.contains(p):
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
        got = set(_lower_hull_facets_2d(pts))
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
        got = set(_lower_hull_facets_2d(pts))
        assert got == brute_lower_hull_facets(pts), (trial, pts)

        block = _deduped([(s, -z) for s, z in pts])
        P = Polytope.from_points([s for s, _ in block])
        kept = PLMetric(P, [block], validate="recession").blocks[0]
        assert kept == tuple((s, c) for s, c in block
                             if block_conjugate_oracle(block, s) == -c), trial


def test_lower_hull_vertical_stacks_keep_lowest_point():
    pts = [((F(0), F(0)), F(3)), ((F(0), F(0)), F(0)),
           ((F(1), F(0)), F(0)), ((F(0), F(1)), F(0))]
    facets = set(_lower_hull_facets_2d(pts))
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


def test_missing_vertex_slope_rejected():
    with pytest.raises(PreconditionError):
        PLMetric(SEG, [[((F(0),), F(0)), ((F(1, 2),), F(0))]])


def test_recession_check_rejects_a_branch_missing_a_vertex_direction():
    cases = [
        (SEG, [[((F(0),), F(0)), ((F(1),), F(0))],
               [((F(0),), F(1)), ((F(1, 2),), F(0))]]),
        (BOX, [[(v, F(0)) for v in BOX.vertices],
               [(v, F(1)) for v in BOX.vertices[1:]] + [((F(1, 2), F(1, 2)), F(0))]]),
    ]
    for P, blocks in cases:
        with pytest.raises(PreconditionError, match="bounded distance"):
            PLMetric(P, blocks, validate="recession")


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
        PLMetric(P, blocks, validate="recession")
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


def _with_large_constants(blocks, rng):
    return [[(s, c + _large_fraction(rng, 1)) for s, c in b] for b in blocks]


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
    metrics = [tent_metric(SEG), bump_metric(SEG),
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


def _deform_branches(psi, eps, pos, neg):
    """The branches metric_deform builds before pruning (neg convex)."""
    return [[(tuple(a + eps * b - eps * x for a, b, x in zip(s1, s2, sl)),
              c1 + eps * c2 - eps * cl)
             for s1, c1 in bp for s2, c2 in bq]
            for bp in psi.blocks for bq in pos.blocks for sl, cl in neg.blocks[0]]


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
            raw = _deform_branches(psi, eps, pos, neg)
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
                corners = dict.fromkeys(u for _, region in roof.cells() for u in region)
                raw_env = [(u, -roof.evaluate(u)) for u in corners]
                assert env.blocks == (tuple(_on_lower_hull(_deduped(raw_env))),)


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
        cells = roof.cells()
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
    metrics = [bump_metric(SEG), tent_metric(SEG)]
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
        candidates = [(F(x, w), F(y, w))
                      for x, y, w in arrangement_points(_walls(psi.all_pieces()), 2)]
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
    psi = bump_metric(SEG)
    assert not is_semipositive(psi)
    env = envelope(psi)
    assert is_semipositive(env)
    assert distance(psi, env) > 0


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
        assert sc.polytope == P.dilate(F(3, 2))
        su = metric_sum(b, b)
        for v in samples:
            assert su.evaluate(v) == 2 * b.evaluate(v)


def test_metric_shift_changes_distance_by_the_shift():
    psi = tent_metric(SEG)
    assert distance(psi, metric_shift(psi, F(-2, 7))) == F(2, 7)
    assert distance(psi, psi) == 0


def test_distance_triangle_inequality():
    rng = random.Random(56)
    for P in (SEG, BOX):
        a = random_nonconvex_metric(P, rng)
        b = random_convex_metric(P, rng)
        c = random_nonconvex_metric(P, rng)
        assert distance(a, c) <= distance(a, b) + distance(b, c)
        assert distance(a, b) == distance(b, a)


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
