"""Exact geometry of rational intervals and polygons."""

import random
from fractions import Fraction

import pytest

from navol.errors import PreconditionError
from navol.polytope import Polytope, segment, simplex, unit_box

from _oracles import (convex_hull_2d, dilate, hull_contains, lattice_points_oracle,
                      polygon_area)

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
        assert set(P.vertices) == set(hull)


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
        assert P.contains(p) == hull_contains(P.vertices, p)
    for Q in _points_and_segments(rng, 20):
        a, b = Q.vertices[0], Q.vertices[-1]
        probes = [tuple(x + t * (y - x) for x, y in zip(a, b))
                  for t in (F(-1, 2), 0, F(1, 3), 1, F(3, 2))]
        probes += [(a[0] + 1, a[1]), (a[0], a[1] + F(1, 2))]
        probes += _random_points(rng, 5)
        for p in probes:
            assert Q.contains(p) == hull_contains(Q.vertices, p), (Q, p)


def test_dilate_and_minkowski_sum():
    box = unit_box(2)
    big = dilate(box, F(3, 2))
    assert big.volume() == F(9, 4)
    double = box.minkowski_sum(box)
    assert double == dilate(box, 2)
    mixed = box.minkowski_sum(simplex(2))
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
    assert diag.contains((F(1, 4), F(1, 4)))
    assert not diag.contains((1, 0))
    pt = Polytope.from_points([(F(3, 2),), (F(3, 2),)])
    assert pt.affine_dim == 0
    assert pt.contains((F(3, 2),))
    assert not pt.contains((1,))
