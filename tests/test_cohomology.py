"""Sheaf cohomology on the model surfaces, checked against classical
closed forms (product formula, plane sections, ruled-surface pushforward)."""

import math
import random
from fractions import Fraction

import pytest

import navol.cohomology as cohomology
from navol.cohomology import (RealDivisor, asymptotic_hq, asymptotic_hq_exact,
                              cohomology_consistency, cohomology_table, hq, morse_check,
                              perturbation_scan, toric_family)
from navol.errors import PreconditionError
from navol.rational import frac_str, ratio_str

from _oracles import (cohomology_rows_by_fractions, convex_hull_2d, divisor_polytope,
                      lattice_points_oracle, morse_check_by_fractions,
                      hq_by_closed_forms, perturbation_rows_by_cells, plane_hq, polygon_area,
                      product_surface_hq, round_up_by_fractions, ruled_surface_hq_any)

F = Fraction

P1 = toric_family("P1")
P2 = toric_family("P2")
P1XP1 = toric_family("P1xP1")
F1 = toric_family("F1")
F2 = toric_family("F2")


def _div(fam, cls):
    return RealDivisor.integral(fam, cls)


# --------------------------------------------------------------------------
# intersection theory and polytopes
# --------------------------------------------------------------------------

def test_intersection_numbers_frozen():
    assert P2.intersection((1,), (1,)) == 1
    assert P1XP1.intersection((1, 0), (0, 1)) == 1
    assert P1XP1.intersection((1, 0), (1, 0)) == 0
    assert F1.intersection((1, 0), (1, 0)) == 1
    assert F1.intersection((1, 0), (0, 1)) == 1
    assert F1.intersection((0, 1), (0, 1)) == 0
    assert F2.intersection((1, 0), (1, 0)) == 2
    # the canonical class has self-intersection 9 on the plane, 8 on the rest
    assert P2.intersection(P2.canonical, P2.canonical) == 9
    for fam in (P1XP1, F1, F2):
        assert fam.intersection(fam.canonical, fam.canonical) == 8


def test_section_polytopes_count_sections():
    cases = [(P2, (3,)), (P2, (1,)), (P1XP1, (2, 5)), (P1XP1, (1, 1)),
             (F1, (2, 1)), (F1, (1, 0)), (F2, (2, 0)), (F2, (1, 3))]
    for fam, cls in cases:
        vertices = divisor_polytope(fam, cls)
        assert len(lattice_points_oracle(vertices, 1)) == fam.h0_integral(cls)


def test_hirzebruch_sections_closed_form():
    """h0 on F_h is sum(max(0, h*y + q + 1) for 0 <= y <= p); the library
    sums it as an arithmetic series, so it stays O(1) in p."""
    for h in range(4):
        fam = toric_family(f"F{h}")
        for q in range(-10, 11):
            for p in range(41):
                want = sum(max(0, h * y + q + 1) for y in range(p + 1))
                assert fam.h0_integral((p, q)) == want, (h, p, q)
        assert fam.h0_integral((-1, 5)) == 0
    # F1 at p = 10**6, q = -7: the terms y - 6 are positive from y = 7 on
    p = 10 ** 6
    assert F1.h0_integral((p, -7)) == (p - 6) * (p - 5) // 2


def test_polytope_requires_nef():
    # the oracle refuses a class it has no section polytope for
    with pytest.raises(ValueError):
        divisor_polytope(P1XP1, (1, -1))
    with pytest.raises(ValueError):
        divisor_polytope(P2, (-2,))


def test_nef_degree_matches_volume_asymptotics():
    # h^0(mD) ~ m^n vol(P_D) for nef D, and h^n(-mD) = h^0(K + mD) too: the
    # closed-form limits against the oracle polytope's normalized volume
    rng = random.Random(3031)
    for fam in ALL_FAMILIES:
        for _ in range(8):
            div = _seeded_divisor(fam, rng, nef=True)
            total = div.total()
            vertices = divisor_polytope(fam, total)
            volume = (vertices[1][0] if fam.dim == 1
                      else 2 * polygon_area(convex_hull_2d(vertices)))
            mirror = RealDivisor.make(fam, [(-c, base) for c, base in div.terms])
            assert asymptotic_hq_exact(fam, div, 0) == volume, (fam, total)
            assert asymptotic_hq_exact(fam, mirror, fam.dim) == volume, (fam, total)
            assert fam.top_power(total, total, 0) == volume, (fam, total)


# --------------------------------------------------------------------------
# exact cohomology against the classical oracles
# --------------------------------------------------------------------------

def test_product_surface_matches_kunneth_oracle():
    for a in range(-5, 6):
        for b in range(-5, 6):
            div = _div(P1XP1, (a, b))
            for q in (0, 1, 2):
                assert hq(P1XP1, div, 1, q) == product_surface_hq(a, b, q), (a, b, q)


def test_plane_matches_closed_form_oracle():
    for d in range(-8, 9):
        div = _div(P2, (d,))
        for q in (0, 1, 2):
            assert hq(P2, div, 1, q) == plane_hq(d, q), (d, q)


def test_ruled_surfaces_match_pushforward_oracle():
    for fam, a in ((F1, 1), (F2, 2)):
        for p in range(-4, 5):
            for f in range(-6, 7):
                div = _div(fam, (p, f))
                for q in (0, 1, 2):
                    assert hq(fam, div, 1, q) == ruled_surface_hq_any(a, p, f, q), \
                        (fam, p, f, q)


def test_euler_characteristic_equals_alternating_oracle_sum():
    for a in range(-4, 5):
        for b in range(-4, 5):
            chi = P1XP1.euler_characteristic((a, b))
            want = sum((-1) ** q * product_surface_hq(a, b, q) for q in (0, 1, 2))
            assert chi == want
    for fam, h in ((F1, 1), (F2, 2)):
        for p in range(-3, 4):
            for f in range(-5, 6):
                chi = fam.euler_characteristic((p, f))
                want = sum((-1) ** q * ruled_surface_hq_any(h, p, f, q)
                           for q in (0, 1, 2))
                assert chi == want


def test_curve_cohomology():
    for d in range(-5, 6):
        div = _div(P1, (d,))
        assert hq(P1, div, 1, 0) == (d + 1 if d >= 0 else 0)
        assert hq(P1, div, 1, 1) == (-d - 1 if d <= -2 else 0)


# --------------------------------------------------------------------------
# rational divisors and round-ups
# --------------------------------------------------------------------------

def test_round_up_is_per_term():
    div = RealDivisor.make(P1XP1, [(F(1, 3), (1, 0)), (F(1, 2), (0, 1))])
    assert div.total() == (F(1, 3), F(1, 2))
    assert div.round_up(1) == (1, 1)
    assert div.round_up(2) == (1, 1)
    assert div.round_up(6) == (2, 3)
    two_terms = RealDivisor.make(P2, [(F(1, 2), (1,)), (F(1, 2), (1,))])
    one_term = RealDivisor.make(P2, [(1, (1,))])
    assert two_terms.total() == one_term.total()
    assert two_terms.round_up(1) == (2,)  # each half rounds up separately
    assert one_term.round_up(1) == (1,)


def test_scaled_and_minus():
    d = RealDivisor.make(F1, [(F(2, 3), (1, 0)), (1, (0, 1))])
    e = _div(F1, (0, 1))
    assert d.minus(e).total() == (F(2, 3), F(0))


# --------------------------------------------------------------------------
# tables, asymptotics, bounds
# --------------------------------------------------------------------------

def test_cohomology_table_consistency():
    for fam, cls in ((P1XP1, (1, -1)), (P2, (2,)), (F1, (1, -1))):
        table = cohomology_table(fam, _div(fam, cls), list(range(1, 16)))
        assert table.serre_consistent()
        assert table.h1_all_nonnegative()
        rep = cohomology_consistency(fam, _div(fam, cls), list(range(1, 16)), "c")
        assert (rep.theorem, rep.instance, rep.passed) == ("cohomology-consistency", "c", True)
        assert rep.exact == {"serre_consistent": "True", "h1_all_nonnegative": "True"}
        assert rep.series == [("m", "q", "h", "normalized")] + [
            (str(m), str(q), str(h), frac_str(norm)) for m, q, h, norm in table.rows]


def test_cohomology_table_rows_equal_per_level_hq():
    # each level computes its section counts once; every row must still be
    # the h^q of that level, on seeded multi-term divisors
    rng = random.Random(808)
    schedule = [1, 2, 3, 5, 8, 13]
    for fam in (P1, P2, P1XP1, F1, F2):
        for _ in range(4):
            terms = [(F(rng.randint(-7, 7), rng.randint(1, 5)),
                      tuple(rng.randint(-2, 3) for _ in range(fam.rank)))
                     for _ in range(rng.randint(2, 3))]
            div = RealDivisor.make(fam, terms)
            for qs in (None, (2, 0, 1), (1,)):
                table = cohomology_table(fam, div, schedule, qs=qs)
                want_qs = tuple(range(fam.dim + 1)) if qs is None else qs
                assert [(m, q, h) for m, q, h, _ in table.rows] == \
                    [(m, q, hq(fam, div, m, q)) for m in schedule for q in want_qs]
                assert all(norm == F(math.factorial(fam.dim) * h, m ** fam.dim)
                           for m, _, h, norm in table.rows)
            assert cohomology_table(fam, div, schedule).serre_consistent()
    with pytest.raises(PreconditionError):
        cohomology_table(P2, _div(P2, (1,)), [1], qs=(3,))
    with pytest.raises(PreconditionError):
        cohomology_table(P2, _div(P2, (1,)), [0])


def test_each_h_q_computes_only_the_section_counts_it_reads(monkeypatch):
    # h^q reads h^0 of the class for q < n and h^0 of its Serre dual for
    # 0 < q <= n: a class gets each count at most once, and only if read.
    # The families are built with their closed-form h^0 wrapped, so each
    # kernel counts its own h^0 reads
    calls = []
    kernels = cohomology._kernels

    def counted(h0, *rest):
        return kernels(lambda *cls: calls.append(cls) or h0(*cls), *rest)

    monkeypatch.setattr(cohomology, "_kernels", counted)
    f1, p2, p1 = (toric_family(name) for name in ("F1", "P2", "P1"))

    def counts(run):
        calls.clear()
        run()
        return len(calls)

    schedule = [1, 2, 5, 8]
    div = RealDivisor.make(f1, [(F(2, 3), (1, 0)), (F(-5, 2), (0, 1))])
    for qs, per_class in (((0,), 1), ((1,), 2), ((2,), 1), ((2, 0, 1), 2), (None, 2)):
        assert counts(lambda: cohomology_table(f1, div, schedule, qs)) == \
            per_class * len(schedule), qs
    for q, per_class in ((0, 1), (1, 2), (2, 1)):
        assert counts(lambda: hq(f1, div, 3, q)) == per_class, q
    grid_max = 4
    classes = grid_max * (grid_max + 2)   # per p: h^q(pB), then m = 0..grid_max
    assert counts(lambda: perturbation_scan(
        p2, [_div(p2, (1,))], [_div(p2, (-1,))], 1, grid_max)) == 2 * classes
    line = _div(p1, (-3,))
    for q in (0, 1):
        assert counts(lambda: hq(p1, line, 2, q)) == 1, q
        assert counts(lambda: cohomology_table(p1, line, schedule, (q,))) == len(schedule), q


def test_asymptotic_mixed_class_on_the_product_surface():
    rep = asymptotic_hq(P1XP1, _div(P1XP1, (1, -1)), 1, list(range(1, 41)))
    assert rep.exact == 2
    m, h, normalized = rep.rows[-1]
    assert h == m * m - 1
    assert abs(normalized - 2) == F(2, m * m)


def test_asymptotic_homogeneity_is_exact():
    base = asymptotic_hq_exact(P1XP1, _div(P1XP1, (1, -1)), 1)
    for lam in (2, 3):
        scaled = asymptotic_hq_exact(P1XP1, _div(P1XP1, (lam, -lam)), 1)
        assert scaled == lam ** 2 * base


def test_f0_and_the_product_surface_have_equal_limits():
    # F0 is P1xP1 under another name: equal exact limits on seeded classes,
    # the q = 1 product formula included
    f0 = toric_family("F0")
    rng = random.Random(2424)
    mixed = 0
    for _ in range(60):
        terms = [(F(rng.randint(-12, 12), rng.randint(1, 6)),
                  (rng.randint(-3, 3), rng.randint(-3, 3)))
                 for _ in range(rng.randint(1, 3))]
        for q in range(3):
            limit = asymptotic_hq_exact(P1XP1, RealDivisor.make(P1XP1, terms), q)
            assert asymptotic_hq_exact(f0, RealDivisor.make(f0, terms), q) == limit
            mixed += q == 1 and limit != 0
    assert mixed >= 10
    assert asymptotic_hq_exact(f0, _div(f0, (1, -1)), 1) == 2
    assert [hq(f0, _div(f0, (1, -1)), m, 1) for m in (1, 2, 3, 10)] == [0, 3, 8, 99]


def test_morse_bound_on_the_product_surface():
    d = _div(P1XP1, (2, 1))
    e = _div(P1XP1, (1, 2))
    rep = morse_check(P1XP1, d, e, 1, list(range(1, 41)))
    assert rep.passed
    assert rep.exact["leading"] == "10"  # 2 * D.E = 2 * (2*2 + 1*1)
    assert rep.series[0] == ("m", "h", "bound", "margin")
    for m, h, bound, margin in rep.series[1:]:
        assert int(h) == int(m) ** 2 - 1
        assert F(margin) >= 0


def test_morse_rejects_non_nef_input():
    with pytest.raises(PreconditionError):
        morse_check(P1XP1, _div(P1XP1, (1, -1)), _div(P1XP1, (1, 1)), 1, [1, 2])


def test_perturbation_scan_on_the_plane():
    rep = perturbation_scan(P2, [_div(P2, (1,))], [_div(P2, (1,))], 0,
                            grid_max=20)
    assert rep.passed
    assert rep.exact["fitted_constant"] == "3/2"


def _random_divisor(fam, rng):
    return RealDivisor.make(fam, [
        (F(rng.randint(-12, 12), rng.randint(1, 12)),
         tuple(rng.randint(-2, 2) for _ in range(fam.rank)))
        for _ in range(rng.randint(1, 3))])


def test_perturbation_scan_matches_per_cell_oracle():
    oracles = (
        (P2, lambda cls, q: plane_hq(cls[0], q)),
        (P1XP1, lambda cls, q: product_surface_hq(cls[0], cls[1], q)),
        (F1, lambda cls, q: ruled_surface_hq_any(1, cls[0], cls[1], q)),
        (F2, lambda cls, q: ruled_surface_hq_any(2, cls[0], cls[1], q)),
    )
    rng = random.Random(720)
    for fam, hq_of in oracles:
        for _ in range(3):
            d_list = [_random_divisor(fam, rng) for _ in range(rng.randint(1, 2))]
            p_list = [_random_divisor(fam, rng) for _ in range(rng.randint(1, 2))]
            a_terms = [t for d in d_list for t in d.terms]
            b_terms = [t for d in p_list for t in d.terms]
            for q in (0, 1, 2):
                for grid_max in (1, 2, 7):
                    rep = perturbation_scan(fam, d_list, p_list, q, grid_max)
                    rows, fitted, passed = perturbation_rows_by_cells(
                        hq_of, a_terms, b_terms, q, grid_max, fam.dim)
                    case = (fam, a_terms, b_terms, q, grid_max)
                    assert rep.series == [("m", "p", "difference", "bound")] + [
                        (str(m), str(p), str(lhs), frac_str(bound))
                        for m, p, lhs, bound in rows], case
                    assert rep.exact == {"q": str(q),
                                         "fitted_constant": frac_str(fitted)}, case
                    assert rep.passed == passed, case


# --------------------------------------------------------------------------
# integer routes against the Fraction routes
# --------------------------------------------------------------------------

# F7 puts the F_a closed forms' floor and division by a past the small indices
ALL_FAMILIES = (P1, P2, P1XP1) + tuple(toric_family(f"F{a}") for a in (0, 1, 2, 3, 7))


def _seeded_divisor(fam, rng, nef=False):
    """Terms with negative and non-integral coefficients over denominators
    up to 48; with nef=True, drawn until the total class is nef."""
    while True:
        div = RealDivisor.make(fam, [
            (F(rng.randint(-9, 9), rng.randint(1, 48)) + rng.randint(-1, 3),
             tuple(rng.randint(-2, 2) for _ in range(fam.rank)))
            for _ in range(rng.randint(1, 3))])
        if not nef or fam.is_nef(div.total()):
            return div


def test_limits_are_the_exact_growth_of_hq():
    # Q clears every denominator (and h on F_h, so the F_h closed form's
    # floor by h is exact), so round_up(k*Q) = k*Q*D and h^q(kQD) is a
    # polynomial of degree n in k once the closed forms' cases settle: its
    # n-th forward difference with step Q is the limit times Q^n, exactly
    rng = random.Random(3030)
    classes = 0
    for fam in ALL_FAMILIES:
        for _ in range(45):
            div = _seeded_divisor(fam, rng)
            step = math.lcm(*(c.denominator for c, _ in div.terms))
            step *= getattr(fam, "hirzebruch_a", 0) or 1
            m = 10 ** 4 * step
            for q in (0, 1, 2):
                diff = sum((-1) ** (fam.dim - j) * math.comb(fam.dim, j)
                           * hq(fam, div, m + j * step, q) for j in range(fam.dim + 1))
                limit = asymptotic_hq_exact(fam, div, q)
                assert type(limit) is F and diff == limit * step ** fam.dim, (fam, div, q)
            classes += 1
    assert classes >= 300


def test_kernels_match_the_classical_closed_forms():
    # each family's h^q kernels and its all-q row against the product
    # formula, plane sections and the ruled-surface pushforward with Serre
    # duality, on seeded integral classes
    rng = random.Random(1104)
    families = (P1, P2, P1XP1) + tuple(toric_family(f"F{a}") for a in (1, 2, 3, 7))
    for fam in families:
        for _ in range(320):
            cls = tuple(rng.randint(-40, 40) for _ in range(fam.rank))
            want = [hq_by_closed_forms(fam, cls, q) for q in (0, 1, 2)]
            assert [fam.hq_kernels[q](*cls) for q in (0, 1, 2)] == want, (fam, cls)
            assert list(fam.hq_row(*cls)) == want, (fam, cls)


def test_ratio_str_writes_the_reduced_fraction():
    # the checks' bound and margin columns: one gcd in place of a Fraction,
    # and frac_str's refusal of an integer too long for str()
    rng = random.Random(1105)
    for _ in range(2000):
        num, den = rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)
        assert ratio_str(num, den) == frac_str(F(num, den)), (num, den)
    assert ratio_str(0, 7) == "0" and ratio_str(-12, 4) == "-3"
    with pytest.raises(PreconditionError, match="digits"):
        ratio_str(10 ** 5000 + 1, 3)


def test_round_up_matches_the_fraction_ceiling():
    rng = random.Random(1101)
    for fam in ALL_FAMILIES:
        for _ in range(6):
            div = _seeded_divisor(fam, rng)
            for m in list(range(1, 50)) + [97, 10 ** 12 + 1]:
                assert div.round_up(m) == round_up_by_fractions(div, m), (fam, div, m)


def test_cohomology_table_matches_the_fraction_route():
    rng = random.Random(1102)
    schedule = [1, 2, 3, 5, 8, 13, 21, 48]
    for fam in ALL_FAMILIES:
        for _ in range(3):
            div = _seeded_divisor(fam, rng)
            for qs in ((0, 1, 2), (0,), (1,), (2,), (2, 0)):
                table = cohomology_table(fam, div, schedule, qs=qs)
                assert table.rows == cohomology_rows_by_fractions(
                    fam, div, schedule, qs), (fam, div, qs)
                assert all(type(norm) is F for *_, norm in table.rows)


def test_morse_check_matches_the_fraction_route():
    rng = random.Random(1103)
    for fam in ALL_FAMILIES:
        for _ in range(2):
            d, e = _seeded_divisor(fam, rng, nef=True), _seeded_divisor(fam, rng, nef=True)
            for q in (0, 1, 2):
                with pytest.raises(PreconditionError, match="at least two levels"):
                    morse_check(fam, d, e, q, [1])
                for schedule in (list(range(1, 17)), [2, 3, 7, 11, 30]):
                    rep = morse_check(fam, d, e, q, schedule)
                    leading, fitted, rows, passed = morse_check_by_fractions(
                        fam, d, e, q, schedule)
                    case = (fam, d, e, q, schedule)
                    assert rep.exact == {"q": str(q), "leading": frac_str(leading),
                                         "fitted_constant": frac_str(fitted)}, case
                    assert rep.series == [("m", "h", "bound", "margin")] + [
                        (str(m), str(h), frac_str(b), frac_str(g))
                        for m, h, b, g in rows], case
                    assert rep.passed == passed, case


def test_unknown_family_rejected():
    with pytest.raises(PreconditionError):
        toric_family("P3")
    with pytest.raises(PreconditionError):
        toric_family("Fx")
    # str.isdigit passes a superscript two and any number of digits; int()
    # converts neither
    for name in ("F\u00b2", "F" + "1" * 5000):
        with pytest.raises(PreconditionError, match="unsupported family"):
            toric_family(name)


def test_make_refuses_a_basis_class_that_is_not_integral():
    # each entry of a basis class is read as the coefficient is (frac): a
    # Fraction or a string that is an integer is kept, any other is refused
    # with the class named, and a float is refused outright
    for cls in ((F(1, 2), F(3, 2)), (0, F(5, 3)), ("1/2", 1)):
        with pytest.raises(PreconditionError, match=r"basis divisor \(.*\) is not integral"):
            RealDivisor.make(F1, [(1, cls)])
    with pytest.raises(TypeError, match="cannot interpret 0.9"):
        RealDivisor.make(F1, [(1, (0.9, 2.7))])
    kept = RealDivisor.make(F1, [(F(1, 2), (F(4, 2), "3")), (2, (F(-1), 0))])
    assert kept.terms == ((F(1, 2), (2, 3)), (F(2), (-1, 0)))
    assert kept.total() == (F(-1), F(3, 2))


@pytest.mark.parametrize("call, match", [
    (lambda: P2.intersection((1, 0), (1,)), r"divisor class needs 1 coordinates, got 2"),
    (lambda: F1.is_nef((1,)), r"divisor class needs 2 coordinates, got 1"),
    (lambda: RealDivisor.make(F1, [(1, (1, 0, 2))]), r"basis divisor \(1, 0, 2\) needs 2"),
    (lambda: P1.intersection((1,), (2,)), "P1 is a curve: it has no intersection form"),
    (lambda: _div(F1, (1, 0)).minus(_div(F2, (1, 0))), "divisors live on different families"),
    (lambda: asymptotic_hq(P2, _div(P2, (1,)), 0, []),
     "schedule must be strictly increasing and nonempty"),
    (lambda: asymptotic_hq(P2, _div(P2, (1,)), 0, [1, 3, 2]),
     "schedule must be strictly increasing and nonempty"),
    (lambda: asymptotic_hq(P2, _div(P2, (1,)), 0, [1, 1]),
     "schedule must be strictly increasing and nonempty"),
    (lambda: perturbation_scan(F1, [], [_div(F1, (1, 1))], 0, 4),
     "perturbation scan needs nonempty divisor lists"),
    (lambda: perturbation_scan(F1, [_div(F1, (1, 1))], [], 0, 4),
     "perturbation scan needs nonempty divisor lists"),
], ids=["intersection-wrong-length", "nef-wrong-length", "basis-wrong-length", "p1-intersection",
        "minus-across-families", "asymptotic-empty", "asymptotic-not-increasing",
        "asymptotic-repeated", "scan-empty-d", "scan-empty-p"])
def test_cohomology_refusals(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()
