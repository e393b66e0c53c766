"""Exact geometry of rational intervals and polygons."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from navol.errors import PreconditionError
from navol.polytope import Polytope, segment, simplex, unit_box

from _oracles import (convex_hull_2d, dilate, hull_contains, lattice_points_oracle,
                      minkowski_sum, polygon_area, polytope_contains)

F = Fraction


def _random_points(rng, count):
    return [(F(rng.randint(-6, 6), rng.randint(1, 3)),
             F(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(count)]


def _points_and_segments(rng, count):
    """Points and segments in the plane with rational endpoints; one segment
    in each pair lies on a lattice line, so it meets lattice points."""
    bodies = []
    for _ in range(count):
        p = _random_points(rng, 1)[0]
        bodies.append(Polytope.from_points([p, p]))
        base = (rng.randint(-3, 3), rng.randint(-3, 3))
        d = (0, 0)
        while d == (0, 0):
            d = (rng.randint(-2, 2), rng.randint(-2, 2))
        ends = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)]
        if ends[0] != ends[1]:
            bodies.append(Polytope.from_points(
                [(base[0] + t * d[0], base[1] + t * d[1]) for t in ends]))
        bodies.append(Polytope.from_points(_random_points(rng, 2)))
    return bodies


def test_interval_from_points_dedupes_and_orders():
    P = Polytope.from_points([(F(2),), (F(0),), (F(2),), (F(1),)])
    assert P.vertices == ((F(0),), (F(2),))
    assert P.volume() == 2


def test_square_hull_drops_interior_points():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))]
    P = Polytope.from_points(pts)
    assert len(P.vertices) == 4
    assert P.volume() == 1
    assert set(P.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))}


def test_volume_matches_shoelace_oracle_on_random_hulls():
    rng = random.Random(20240811)
    for _ in range(40):
        pts = _random_points(rng, rng.randint(3, 10))
        hull = convex_hull_2d(pts)
        if polygon_area(hull) == 0:
            continue
        P = Polytope.from_points(pts)
        assert P.volume() == polygon_area(hull)
        assert P.vertices == tuple(hull)


# mixed denominators and signs, drawn from few values so points repeat
_HULL_COORDS = st.builds(F, st.integers(-7, 7), st.sampled_from((1, 2, 3, 5, 6, 7)))


@st.composite
def _hull_inputs(draw):
    """(dim, points): a rational cloud in the plane with repeats, collinear
    points in the plane, a repeated single point, or points on the line."""
    kind = draw(st.sampled_from(("cloud", "collinear", "single", "line")))
    count = draw(st.integers(1, 9))
    if kind == "cloud":
        pool = draw(st.lists(st.tuples(_HULL_COORDS, _HULL_COORDS), min_size=1, max_size=6))
        return 2, [draw(st.sampled_from(pool)) for _ in range(count)]
    if kind == "collinear":
        base = draw(st.tuples(_HULL_COORDS, _HULL_COORDS))
        d = draw(st.tuples(_HULL_COORDS, _HULL_COORDS).filter(lambda d: d != (0, 0)))
        ts = draw(st.lists(_HULL_COORDS, min_size=2, max_size=count + 1))
        return 2, [(base[0] + t * d[0], base[1] + t * d[1]) for t in ts]
    if kind == "single":
        return 2, [draw(st.tuples(_HULL_COORDS, _HULL_COORDS))] * count
    return 1, [(x,) for x in draw(st.lists(_HULL_COORDS, min_size=1, max_size=count))]


@settings(max_examples=150)
@given(_hull_inputs())
def test_integer_hull_matches_the_oracle_exactly(case):
    # the hull runs on integer rows over the points' lcm; the vertex cycle,
    # order and first vertex included, must be the Fraction oracle's, and a
    # line's points are hulled as points on the x-axis of the plane
    dim, pts = case
    P = Polytope.from_points(pts)
    if dim == 2:
        assert P.vertices == tuple(convex_hull_2d(pts)), pts
    else:
        assert P.vertices == tuple((x,) for x, _ in convex_hull_2d([(x, 0) for x, in pts]))


def test_lattice_points_match_enumeration_oracle():
    rng = random.Random(77)
    bodies = [unit_box(2), simplex(2),
              Polytope.from_points([(0, 0), (3, 1), (1, 3)]),
              Polytope.from_points([(F(-1, 2), 0), (2, F(1, 3)), (0, 2), (-1, 1)])]
    for _ in range(6):
        pts = _random_points(rng, rng.randint(3, 7))
        if polygon_area(convex_hull_2d(pts)) > 0:
            bodies.append(Polytope.from_points(pts))
    bodies.extend(_points_and_segments(rng, 8))
    assert {P.affine_dim for P in bodies} == {0, 1, 2}
    for P in bodies:
        for m in (1, 2, 3, 5):
            got = sorted(P.lattice_points(m))
            want = sorted(lattice_points_oracle(P.vertices, m))
            assert got == want, (P, m)


# integers too, so whole lattice polygons, whose edges pass through lattice
# points, are drawn as often as rational ones
_RATIONALS = st.one_of(st.integers(-4, 4).map(F), st.builds(F, st.integers(-6, 6),
                                                            st.integers(1, 3)))


@st.composite
def _bodies_and_probes(draw):
    """1-6 rational points in dimension 1 or 2 (so points, segments and
    polygons), a level m in 0..6 and a few rational probe points."""
    n = draw(st.sampled_from((2, 1, 2)))
    count = draw(st.integers(1, 6))
    pts = draw(st.lists(st.tuples(*[_RATIONALS] * n), min_size=count, max_size=count))
    probes = draw(st.lists(st.tuples(*[_RATIONALS] * n), max_size=6))
    return pts, draw(st.integers(0, 6)), probes


@settings(max_examples=80)
@given(_bodies_and_probes())
def test_edge_rows_and_membership_match_oracles(case):
    pts, m, probes = case
    P = Polytope.from_points(pts)
    assert P.lattice_points(m) == sorted(lattice_points_oracle(pts, m))
    verts = P.vertices
    mids = [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in zip(verts, verts[1:] + verts[:1])]
    for p in list(pts) + mids + probes:
        assert polytope_contains(P, p) == hull_contains(pts, p), (pts, p)


def test_rows_bounded_by_the_box_only():
    # bodies with no edge that bounds x: their rows are read from the box
    cases = [
        # horizontal segment at integer height, then at height 1/2
        ([(F(-1, 2), 1), (F(5, 2), 1)], {1: [(1, 0, 2)], 2: [(2, -1, 5)]}),
        ([(F(-1, 2), F(1, 2)), (F(5, 2), F(1, 2))], {1: [], 2: [(1, -1, 5)], 3: []}),
        # a lattice point and a non-lattice point, in the plane and the line
        ([(1, 2)], {1: [(2, 1, 1)], 3: [(6, 3, 3)]}),
        ([(F(1, 2), F(2, 3))], {1: [], 2: [], 3: [], 6: [(4, 3, 3)]}),
        ([(F(3, 2),)], {1: [], 2: [(0, 3, 3)]}),
        ([(F(-1, 3),), (F(4, 3),)], {1: [(0, 0, 1)], 3: [(0, -1, 4)]}),
    ]
    # a vertical segment, pinned to x = 1/3 by its two edges
    cases.append(([(F(1, 3), 0), (F(1, 3), 2)],
                  {1: [], 2: [], 3: [(y, 1, 1) for y in range(7)]}))
    for pts, want in cases:
        P = Polytope.from_points(pts)
        origin = (0,) * P.ambient_dim
        assert P.lattice_points(0) == [origin]
        assert P.lattice_rows(0) == [(0, 0, 0)]
        for m, rows in want.items():
            assert P.lattice_rows(m) == rows, (pts, m)
            assert P.lattice_points(m) == sorted(lattice_points_oracle(pts, m)), (pts, m)
    flat = Polytope.from_points([(F(-1, 2), 1), (F(5, 2), 1)])
    upright = Polytope.from_points([(F(1, 3), 0), (F(1, 3), 2)])
    dot = Polytope.from_points([(F(1, 2), F(2, 3))])
    for P, inside, outside in (
            (flat, [(0, 1), (F(5, 2), 1)], [(3, 1), (0, F(11, 10))]),
            (upright, [(F(1, 3), 1), (F(1, 3), 2)], [(F(1, 3), 3), (F(1, 2), 1)]),
            (dot, [(F(1, 2), F(2, 3))], [(F(1, 2), 0)])):
        assert all(polytope_contains(P, p) for p in inside), P
        assert not any(polytope_contains(P, p) for p in outside), P
    for P, p in ((dot, (F(1, 2),)), (segment(0, 1), (0, 5))):
        with pytest.raises(PreconditionError):
            polytope_contains(P, p)


def test_lattice_counts_closed_forms():
    box = unit_box(2)
    tri = simplex(2)
    seg = segment(0, 1)
    for m in range(1, 12):
        assert len(box.lattice_points(m)) == (m + 1) ** 2
        assert len(tri.lattice_points(m)) == (m + 1) * (m + 2) // 2
        assert len(seg.lattice_points(m)) == m + 1


def test_contains_agrees_with_oracle():
    rng = random.Random(5)
    P = Polytope.from_points([(0, 0), (2, 0), (2, 1), (0, 3)])
    for _ in range(200):
        p = (F(rng.randint(-4, 8), 2), F(rng.randint(-4, 8), 2))
        assert polytope_contains(P, p) == hull_contains(P.vertices, p)
    for Q in _points_and_segments(rng, 20):
        a, b = Q.vertices[0], Q.vertices[-1]
        probes = [tuple(x + t * (y - x) for x, y in zip(a, b))
                  for t in (F(-1, 2), 0, F(1, 3), 1, F(3, 2))]
        probes += [(a[0] + 1, a[1]), (a[0], a[1] + F(1, 2))]
        probes += _random_points(rng, 5)
        for p in probes:
            assert polytope_contains(Q, p) == hull_contains(Q.vertices, p), (Q, p)


def test_dilate_and_minkowski_sum():
    box = unit_box(2)
    big = dilate(box, F(3, 2))
    assert big.volume() == F(9, 4)
    double = minkowski_sum(box, box)
    assert double == dilate(box, 2)
    mixed = minkowski_sum(box, simplex(2))
    assert mixed.volume() == F(7, 2)
    assert set(mixed.vertices) == {(F(0), F(0)), (F(2), F(0)), (F(2), F(1)),
                                   (F(1), F(2)), (F(0), F(2))}


def test_standard_bodies():
    assert unit_box(1).volume() == 1
    assert unit_box(2).volume() == 1
    assert simplex(2).volume() == F(1, 2)
    assert simplex(2, size=3).volume() == F(9, 2)
    assert segment(F(-1, 2), F(5, 2)).volume() == 3


def test_lower_dimensional_bodies():
    with pytest.raises(PreconditionError):
        Polytope.from_points([])
    with pytest.raises(PreconditionError):
        Polytope.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(PreconditionError):
        unit_box(3)
    diag = Polytope.from_points([(0, 0), (1, 1), (F(1, 2), F(1, 2))])
    assert diag.affine_dim == 1
    assert not diag.is_full_dimensional()
    assert polytope_contains(diag, (F(1, 4), F(1, 4)))
    assert not polytope_contains(diag, (1, 0))
    pt = Polytope.from_points([(F(3, 2),), (F(3, 2),)])
    assert pt.affine_dim == 0
    assert polytope_contains(pt, (F(3, 2),))
    assert not polytope_contains(pt, (1,))


@pytest.mark.parametrize("call, match", [
    (lambda: Polytope.from_points([(0,), (1, 2)]), "points of mixed dimension"),
    (lambda: Polytope.from_points([(0, 0), (1, 2), (F(1, 2),)]), "points of mixed dimension"),
    (lambda: unit_box(2).row_bands(-1), "dilation factor must be nonnegative"),
    (lambda: simplex(2).lattice_rows(-3), "dilation factor must be nonnegative"),
], ids=["mixed-line-plane", "mixed-plane-line", "row-bands-negative", "lattice-rows-negative"])
def test_polytope_refusals(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()
