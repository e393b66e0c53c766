"""Lattice-length series: exact counts, limits, stability, proportionality."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from navol import volumes
from navol.errors import PreconditionError
from navol.harness import random_convex_metric, random_nonconvex_metric, tent_metric
from navol.measures import energy
from navol.plmetric import (RoofFunction, _dedupe_rows, canonical_metric, envelope, legendre,
                            metric_shift)
from navol.polytope import Polytope, segment, simplex, unit_box
from navol.volumes import (_ceil_sum, _floor_sum, _point_count, default_schedule,
                           lattice_length, lipschitz_check, navol, proportionality_check)

from _oracles import (bump_metric, ceil_sum_by_points, lattice_length_by_points,
                      lattice_length_oracle, lattice_points_oracle)

F = Fraction
SEG = segment(0, 1)
BOX = unit_box(2)


def _rational(rng, size=3):
    return F(rng.randint(-size, size), rng.randint(1, 3))


def _seeded_bodies(rng, count):
    """Polygons, points and segments in the plane, intervals and single
    points on the line, all with rational vertices."""
    bodies = []
    for _ in range(count):
        bodies.append(Polytope.from_points(
            [(_rational(rng, 1), _rational(rng, 1)) for _ in range(rng.randint(3, 6))]))
        p = (_rational(rng), _rational(rng))
        bodies.append(Polytope.from_points([p, p]))
        bodies.append(Polytope.from_points(
            [(_rational(rng), _rational(rng)) for _ in range(2)]))
        # a segment on a lattice line, so it meets lattice points
        base, d = (rng.randint(-2, 2), rng.randint(-2, 2)), (rng.randint(-2, 2), 1)
        t0 = _rational(rng)
        t1 = t0 + F(rng.randint(1, 6), rng.randint(1, 3))
        bodies.append(Polytope.from_points(
            [(base[0] + t * d[0], base[1] + t * d[1]) for t in (t0, t1)]))
        lo = _rational(rng, 6)
        bodies.append(segment(lo, lo + F(rng.randint(1, 9), rng.randint(1, 3))))
        bodies.append(Polytope.from_points([(_rational(rng, 6),)]))
    return bodies


def test_floor_sum_matches_brute_force():
    rng = random.Random(312)
    for _ in range(3000):
        n, mod = rng.randint(0, 30), rng.randint(1, 12)
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        want = sum((a * i + b) // mod for i in range(n))
        assert _floor_sum(n, mod, a, b) == want, (n, mod, a, b)


def test_floor_sum_with_negative_terms_and_unit_modulus():
    # every n <= 50, with a and b of both signs and mod = 1 among the moduli
    rng = random.Random(318)
    for n in range(51):
        for mod in (1, 1, 2, 3, 7, 48, 97):
            a, b = rng.randint(-200, 200), rng.randint(-200, 200)
            for a, b in ((a, b), (-abs(a), -abs(b)), (-abs(a), abs(b)), (abs(a), -abs(b))):
                want = sum((a * i + b) // mod for i in range(n))
                assert _floor_sum(n, mod, a, b) == want, (n, mod, a, b)


def test_lattice_rows_count_the_enumeration_oracle():
    bodies = _seeded_bodies(random.Random(313), 8)
    assert ({(P.ambient_dim, P.affine_dim) for P in bodies}
            == {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)})
    for P in bodies:
        for m in (1, 2, 3, 5, 8):
            rows = P.lattice_rows(m)
            assert len(rows) <= 1 or P.ambient_dim == 2
            assert [y for y, _, _ in rows] == sorted({y for y, _, _ in rows})
            width = sum(hi - lo + 1 for _, lo, hi in rows)
            assert width == len(lattice_points_oracle(P.vertices, m)), (P, m)


def _expand(bands):
    """Every row (y, x_lo, x_hi) of the bands, empty ones included."""
    return [(y, -((e * y + f) // d), (e2 * y + f2) // d2)
            for y0, y1, (d, e, f), (d2, e2, f2) in bands for y in range(y0, y1 + 1)]


def test_row_bands_expand_to_the_lattice_rows():
    # the triangle's right chain has an edge whose only row, 0, is also the
    # last row of the edge below it: that edge must not take row -1
    bodies = _seeded_bodies(random.Random(319), 8) + [
        Polytope.from_points([(0, -1), (F(1, 3), 0), (0, F(1, 3))])]
    for P in bodies:
        for m in (0, 1, 2, 3, 5, 8, 13):
            bands = P.row_bands(m)
            rows = _expand(bands)
            assert all(b[0] == a[1] + 1 for a, b in zip(bands, bands[1:])), (P, m)
            assert all(hi - lo + 1 >= 0 for _, lo, hi in rows), (P, m)
            assert [r for r in rows if r[1] <= r[2]] == P.lattice_rows(m), (P, m)
            points = sorted((x, y) for y, lo, hi in rows for x in range(lo, hi + 1))
            want = lattice_points_oracle(P.vertices, m)
            assert points == sorted((p[0], p[1] if len(p) > 1 else 0) for p in want), (P, m)
            assert _point_count(bands) == len(want), (P, m)


def test_lattice_length_matches_per_point_route():
    """Row sums by floor_sum against one max over the roof pieces at every
    lattice point, on 1-3-branch metrics."""
    rng = random.Random(314)
    for P in _seeded_bodies(rng, 6):
        m1 = random_nonconvex_metric(P, rng, branches=rng.randint(1, 3))
        m2 = random_nonconvex_metric(P, rng, branches=rng.randint(1, 3))
        g1, g2 = legendre(m1).pieces, legendre(m2).pieces
        for m in list(range(1, 13)) + [37, 64]:
            want = lattice_length_by_points(g1, g2, m, P.lattice_points(m))
            assert lattice_length(m1, m2, m) == want, (P, m)


# Bodies for the roof draws: every one holds an integer point of P
CATALOGUE = (BOX, simplex(2),
             Polytope.from_points([(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)]),
             Polytope.from_points([(0, 0), (F(5, 2), F(1, 3)), (F(1, 2), F(7, 4))]),
             Polytope.from_points([(0, -1), (0, 2)]), Polytope.from_points([(-1, 1), (2, 1)]),
             Polytope.from_points([(-1, -1), (2, 1)]), Polytope.from_points([(1, 2)]),
             SEG, segment(F(-1, 3), F(7, 2)))


@st.composite
def _cell_roofs(draw, bodies=CATALOGUE, levels=st.integers(1, 6)):
    """A body of bodies, a roof of 1-8 integer rows (slope, const) over L
    in 1-12, deduped by slope, and a level m from levels. Two rows may share
    an x-slope with different y-slopes, and three may pass through one
    lattice point m*(p, q) of a row, (p, q) an integer point of P, where
    they all equal m*v."""
    P = draw(st.sampled_from(bodies))
    width = P.ambient_dim + 1
    small = st.integers(-6, 6)
    m = draw(levels)
    rows = draw(st.lists(st.tuples(*[small] * width), min_size=1, max_size=4))
    if width == 3 and draw(st.booleans()):
        rows.append((rows[0][0],) + draw(st.tuples(small, small)))
    if draw(st.booleans()):
        p = draw(st.sampled_from(P.lattice_points(1)))
        v = draw(small)
        for _ in range(3):
            a = draw(st.tuples(*[small] * (width - 1)))
            rows.append(a + (v - sum(map(operator.mul, a, p)),))
    return RoofFunction(P, draw(st.integers(1, 12)), _dedupe_rows(rows)), m


@settings(max_examples=200)
@given(_cell_roofs())
def test_ceil_sum_matches_a_per_point_max(case):
    # the roof's own cells give the pieces of each stretch
    roof, m = case
    bands = roof.polytope.row_bands(m)
    assert _ceil_sum(roof, bands, m) == ceil_sum_by_points(roof.integer_rows(), _expand(bands), m)


@settings(max_examples=60)
@given(_cell_roofs(bodies=[P for P in CATALOGUE if P.affine_dim == 2],
                   levels=st.integers(8, 24)))
def test_ceil_sum_on_bands_matches_a_per_point_max(case):
    # at high levels a band spans many rows, and the cells' crossings move
    # partway through it: each stretch must cut where a cell starts or ends
    roof, m = case
    bands = roof.polytope.row_bands(m)
    assert any(y1 > y0 + 4 for y0, y1, _, _ in bands)
    assert _ceil_sum(roof, bands, m) == ceil_sum_by_points(roof.integer_rows(), _expand(bands), m)


def test_a_shifted_roof_keeps_its_cells():
    # metric_shift hands the roof's cells on; cutting the shifted rows anew
    # must give the same cells, in order
    rng = random.Random(315)
    for P in CATALOGUE:
        for _ in range(6):
            psi = random_nonconvex_metric(P, rng, branches=rng.randint(1, 3))
            for t in (F(1), F(1, 2), F(-2), F(7, 3)):
                roof = legendre(metric_shift(psi, t))
                fresh = RoofFunction(P, *roof.integer_rows())
                assert roof.integer_cells() == fresh.integer_cells(), (P, t)


def test_default_schedules_are_increasing():
    for dim in (1, 2):
        sched = default_schedule(dim)
        assert sched == sorted(set(sched))
        assert sched[0] == 1


def test_lattice_length_matches_enumeration_oracle():
    rng = random.Random(310)
    pairs = [(tent_metric(SEG), canonical_metric(SEG)),
             (bump_metric(), canonical_metric(SEG)),
             (bump_metric(), envelope(bump_metric()))]
    for _ in range(4):
        pairs.append((random_convex_metric(SEG, rng),
                      random_nonconvex_metric(SEG, rng)))
        pairs.append((random_nonconvex_metric(BOX, rng),
                      random_convex_metric(BOX, rng)))
    for m1, m2 in pairs:
        P = m1.polytope
        for m in (1, 2, 3, 5, 8):
            got = lattice_length(m1, m2, m)
            want = lattice_length_oracle(m1.blocks, m2.blocks, m, P.vertices)
            assert got == want, (m1, m2, m)


def test_tent_series_frozen_values():
    rows = navol(tent_metric(SEG), canonical_metric(SEG), [2, 3, 4]).rows
    assert [(r.m, r.length, r.normalized) for r in rows] == [
        (2, 1, F(1, 4)), (3, 2, F(2, 9)), (4, 4, F(1, 4))]


def test_shifted_square_lengths_closed_form():
    can = canonical_metric(BOX)
    up = metric_shift(can, 1)
    for m in (1, 2, 3, 5, 9, 2000):
        assert lattice_length(up, can, m) == m * (m + 1) ** 2


def test_shifted_segment_length_at_a_huge_level():
    """One row summed in O(log m) steps; a per-point route visits 10**6 + 1
    points here."""
    can = canonical_metric(SEG)
    m = 10 ** 6
    assert lattice_length(metric_shift(can, 1), can, m) == m * (m + 1)


def test_navol_result_converges_to_energy():
    res = navol(tent_metric(SEG), canonical_metric(SEG),
                schedule=list(range(1, 11)) + [50, 100])
    assert res.exact == F(1, 4)
    assert res.dim == 1
    assert res.semipositive_pair
    assert res.estimate == res.rows[-1].normalized
    assert abs(res.rows[-1].normalized - F(1, 4)) <= F(1, 100)
    assert res.max_gap <= F(1, 25)


def test_navol_for_nonconvex_pair_uses_envelopes():
    psi = bump_metric()
    res = navol(psi, canonical_metric(SEG), schedule=[40])
    limit = energy(envelope(psi), canonical_metric(SEG))
    assert res.exact == limit
    assert not res.semipositive_pair
    assert abs(res.rows[-1].normalized - limit) <= F(1, 20)


def test_length_antisymmetry_and_cocycle_everywhere():
    rng = random.Random(311)
    for P in (SEG, BOX):
        a = random_nonconvex_metric(P, rng)
        b = random_convex_metric(P, rng)
        c = random_nonconvex_metric(P, rng)
        for m in (1, 2, 3, 7):
            ab = lattice_length(a, b, m)
            assert ab == -lattice_length(b, a, m)
            assert ab + lattice_length(b, c, m) == lattice_length(a, c, m)
            assert lattice_length(a, a, m) == 0


def test_proportionality_integral_shift_is_exact():
    can = canonical_metric(SEG)
    tent = tent_metric(SEG)
    rep = proportionality_check(tent, can, F(1), schedule=list(range(1, 9)))
    assert rep.passed
    assert rep.exact_rows == 8
    for m, delta, lower, upper in rep.rows:
        assert delta == lower == upper == m * (m + 1)


def test_proportionality_fractional_shift_sandwich():
    can2 = canonical_metric(BOX)
    for t in (F(1, 2), F(-2)):
        rep = proportionality_check(can2, can2, t, schedule=list(range(1, 9)))
        assert rep.passed
        for m, delta, lower, upper in rep.rows:
            assert lower <= delta <= upper
            if (t * m).denominator == 1:
                assert lower == upper == delta


def test_lipschitz_stability_report():
    tent = tent_metric(SEG)
    can = canonical_metric(SEG)
    moved = metric_shift(tent, F(1, 3))
    rep = lipschitz_check(tent, moved, can, schedule=list(range(1, 12)))
    assert rep.passed
    assert rep.distance == F(1, 3)
    assert rep.limit_lhs <= rep.limit_rhs


def test_check_rows_are_lattice_length_differences():
    # each check row is one lattice_length against a itself; it must equal
    # the difference of two plain lattice_length calls against b
    rng = random.Random(312)
    for P, schedule in ((SEG, [1, 2, 5, 13]), (BOX, [1, 3, 4, 9])):
        for _ in range(3):
            a = random_nonconvex_metric(P, rng)
            a_alt = random_nonconvex_metric(P, rng)
            b = random_convex_metric(P, rng)
            t = _rational(rng)
            rep = lipschitz_check(a, a_alt, b, schedule=schedule)
            prop = proportionality_check(a, b, t, schedule=schedule)
            assert [row[0] for row in rep.rows] == [row[0] for row in prop.rows] == schedule
            for (m, delta, bound), (_, pdelta, _, _) in zip(rep.rows, prop.rows):
                assert delta == abs(lattice_length(a_alt, b, m) - lattice_length(a, b, m))
                assert bound == len(P.lattice_points(m)) * math.ceil(m * rep.distance)
                assert pdelta == lattice_length(metric_shift(a, t), b, m) - lattice_length(a, b, m)


def test_lattice_length_preconditions():
    tent = tent_metric(SEG)
    other = canonical_metric(segment(0, 2))
    with pytest.raises(PreconditionError):
        lattice_length(tent, other, 3)
    with pytest.raises(PreconditionError):
        lattice_length(tent, canonical_metric(SEG), 0)
    with pytest.raises(PreconditionError):
        lipschitz_check(tent, tent, other, schedule=[1])
    with pytest.raises(PreconditionError):
        proportionality_check(tent, other, F(1), schedule=[1])
    for check in (lambda s: lipschitz_check(tent, tent, tent, schedule=s),
                  lambda s: proportionality_check(tent, tent, F(1), schedule=s)):
        with pytest.raises(PreconditionError):
            check([2, 0])


def test_volume_checks_refuse_two_polytopes_up_front(monkeypatch):
    # every metric's polytope is checked before any distance, shift, count or
    # energy, and the message names the check that was called
    def computed(*args):
        raise AssertionError("computed before the polytope check")

    for name in ("distance", "metric_shift", "_ceil_sum", "envelope_energy"):
        monkeypatch.setattr(volumes, name, computed)
    a, b, other = tent_metric(SEG), canonical_metric(SEG), canonical_metric(segment(0, 2))
    refusals = {
        "lipschitz_check": (lambda: lipschitz_check(a, b, other, [1]),
                            lambda: lipschitz_check(a, other, b, [1]),
                            lambda: lipschitz_check(other, a, b, [1])),
        "proportionality_check": (lambda: proportionality_check(a, other, F(1), [1]),
                                  lambda: proportionality_check(other, a, F(1, 2), [1])),
        "navol": (lambda: navol(a, other, [1]), lambda: navol(other, a, [1])),
        "lattice_length": (lambda: lattice_length(a, other, 1),),
    }
    for name, checks in refusals.items():
        for check in checks:
            with pytest.raises(PreconditionError,
                               match=f"^{name} needs metrics on the same polytope$"):
                check()
