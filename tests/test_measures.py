"""Discrete curvature measures: atoms, masses, mixed pairings, energy."""

import random
from fractions import Fraction

import pytest

from navol.errors import PreconditionError
from navol.harness import random_convex_metric, random_nonconvex_metric, tent_metric
from navol.measures import (DiscreteMeasure, energy, envelope_energy, monge_ampere,
                            mixed_monge_ampere)
from navol.plmetric import PLMetric, canonical_metric, envelope, is_semipositive, metric_shift
from navol.polytope import Polytope, segment, simplex, unit_box

from _oracles import (bump_metric, curvature_atoms_1d_oracle,
                      curvature_atoms_2d_convex_oracle, dilate, energy_by_mixed_measures,
                      is_nonnegative, metric_sum)

F = Fraction
SEG = segment(0, 1)
BOX = unit_box(2)
LINE_IN_PLANE = Polytope.from_points([(0, 0), (2, 1)])
# the box, a triangle, the lattice hexagon, a rational triangle, a segment
# and a point in the plane
PLANAR_BODIES = (BOX, simplex(2),
                 Polytope.from_points([(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)]),
                 Polytope.from_points([(0, 0), (F(5, 2), F(1, 3)), (F(1, 2), F(7, 4))]),
                 LINE_IN_PLANE, Polytope.from_points([(F(1, 2), F(-3, 2))]))


# --------------------------------------------------------------------------
# the measure container
# --------------------------------------------------------------------------

def test_measure_merges_and_drops_zeros():
    mu = DiscreteMeasure([((F(0),), F(1, 2)), ((F(0),), F(1, 2)),
                          ((F(1),), F(3)), ((F(2),), F(0))])
    assert mu.atoms == {(F(0),): F(1), (F(1),): F(3)}
    assert mu.total_mass == 4
    assert is_nonnegative(mu)
    assert mu.items_sorted() == [((F(0),), F(1)), ((F(1),), F(3))]
    assert mu.integrate(lambda v: v[0]) == 3


def test_measure_cancellation_empties():
    mu = DiscreteMeasure([("a", F(2)), ("a", F(-2))])
    assert mu.atoms == {}
    assert mu.total_mass == 0


# --------------------------------------------------------------------------
# curvature atoms
# --------------------------------------------------------------------------

def test_tent_curvature_atoms():
    mu = monge_ampere(tent_metric(SEG))
    assert mu.atoms == {(F(-1),): F(1, 2), (F(1),): F(1, 2)}


def test_canonical_curvature_is_a_single_atom_at_the_origin():
    assert monge_ampere(canonical_metric(SEG)).atoms == {(F(0),): F(1)}
    assert monge_ampere(canonical_metric(BOX)).atoms == {(F(0), F(0)): F(2)}
    assert monge_ampere(canonical_metric(simplex(2))).atoms == {(F(0), F(0)): F(1)}


def test_curvature_matches_slope_jump_oracle_on_the_line():
    rng = random.Random(210)
    for _ in range(12):
        psi = random_convex_metric(SEG, rng, denom_bound=5, size=3)
        got = monge_ampere(psi).atoms
        want = curvature_atoms_1d_oracle(psi.blocks)
        assert got == want, psi


def test_curvature_matches_subdifferential_oracle_in_the_plane():
    rng = random.Random(211)
    bodies = [BOX, simplex(2), dilate(unit_box(2), 2)]
    for P in bodies:
        for _ in range(6):
            psi = random_convex_metric(P, rng, denom_bound=4, size=2)
            got = monge_ampere(psi).atoms
            want = curvature_atoms_2d_convex_oracle(psi.blocks[0])
            assert got == want, psi


def test_nonconvex_metric_rejected_by_curvature():
    with pytest.raises(PreconditionError):
        monge_ampere(bump_metric())


def test_total_mass_is_factorial_times_volume():
    rng = random.Random(212)
    cases = [(tent_metric(SEG), 1), (canonical_metric(BOX), 2),
             (envelope(bump_metric()), 1),
             (canonical_metric(simplex(2, size=2)), 4)]
    for _ in range(5):
        cases.append((random_convex_metric(SEG, rng), 1))
        cases.append((random_convex_metric(BOX, rng), 2))
    for psi, want in cases:
        assert monge_ampere(psi).total_mass == want


# --------------------------------------------------------------------------
# mixed measures
# --------------------------------------------------------------------------

def test_mixed_measure_of_equal_arguments_is_plain_curvature():
    rng = random.Random(213)
    for _ in range(4):
        psi = random_convex_metric(BOX, rng)
        assert mixed_monge_ampere([psi, psi]) == monge_ampere(psi)


def test_mixed_measure_against_independent_oracle():
    rng = random.Random(214)
    for _ in range(4):
        a = random_convex_metric(BOX, rng)
        b = random_convex_metric(BOX, rng)
        got = mixed_monge_ampere([a, b]).atoms
        # polarization computed purely from the subdifferential oracle
        sum_block = [(tuple(x + y for x, y in zip(s1, s2)), c1 + c2)
                     for s1, c1 in a.blocks[0] for s2, c2 in b.blocks[0]]
        combo = dict(curvature_atoms_2d_convex_oracle(sum_block))
        for block in (a.blocks[0], b.blocks[0]):
            for key, mass in curvature_atoms_2d_convex_oracle(block).items():
                combo[key] = combo.get(key, F(0)) - mass
        want = {k: v / 2 for k, v in combo.items() if v != 0}
        assert got == want


def test_mixed_measure_mass_and_argument_count():
    rng = random.Random(215)
    a = random_convex_metric(BOX, rng)
    b = random_convex_metric(BOX, rng)
    assert mixed_monge_ampere([a, b]).total_mass == 2
    with pytest.raises(PreconditionError):
        mixed_monge_ampere([a])
    with pytest.raises(PreconditionError):
        mixed_monge_ampere([])


def _semipositive_metric(P, rng):
    """P's vertices and up to two slopes between two of them, with random
    constants, as one convex block. Half the time the block is the second of
    two branches, the first being the block with each constant raised by 0,
    1/2 or 1: the metric is then the second branch, not the first."""
    slopes = list(P.vertices)
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(P.vertices), rng.choice(P.vertices)
        t = F(rng.randint(1, 3), 4)
        slopes.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    block = [(s, F(rng.randint(-6, 6), rng.randint(1, 3))) for s in slopes]
    if rng.random() < 0.5:
        return PLMetric(P, [block])
    return PLMetric(P, [[(s, c + F(rng.randint(0, 2), 2)) for s, c in block], block])


def test_mixed_measure_matches_polarization_over_minkowski_sums():
    # the midpoint metric on P against (MA(a + b) - MA(a) - MA(b))/2, with
    # a + b on P + P from the oracle's Minkowski algebra; the two-branch
    # metrics catch a midpoint built from a first branch that is not the
    # function
    rng = random.Random(222)
    for P in PLANAR_BODIES:
        for _ in range(12):
            a, b = _semipositive_metric(P, rng), _semipositive_metric(P, rng)
            assert is_semipositive(a) and is_semipositive(b)
            want = DiscreteMeasure(
                [(k, v / 2) for k, v in monge_ampere(metric_sum(a, b)).atoms.items()]
                + [(k, -v / 2) for m in (a, b) for k, v in monge_ampere(m).atoms.items()])
            got = mixed_monge_ampere([a, b])
            assert got == want, (P, a.blocks, b.blocks)
            assert got.total_mass == 2 * P.volume()
            assert mixed_monge_ampere([a, a]) == monge_ampere(a)


def test_mixed_measure_refuses_two_polytopes():
    rng = random.Random(223)
    a = random_convex_metric(BOX, rng)
    for P in (dilate(BOX, 2), simplex(2), LINE_IN_PLANE, SEG):
        with pytest.raises(PreconditionError, match="same polytope"):
            mixed_monge_ampere([a, random_convex_metric(P, rng)])


# --------------------------------------------------------------------------
# energy
# --------------------------------------------------------------------------

def test_energy_of_tent_pair():
    assert energy(tent_metric(SEG), canonical_metric(SEG)) == F(1, 4)


def test_energy_of_shifted_canonical_square():
    can = canonical_metric(BOX)
    assert energy(metric_shift(can, 1), can) == 2


def test_energy_shift_formula():
    rng = random.Random(216)
    for P, factorial in ((SEG, 1), (BOX, 2)):
        psi = random_convex_metric(P, rng)
        for t in (F(1), F(-2, 3), F(7, 5)):
            assert energy(metric_shift(psi, t), psi) == t * factorial * P.volume()


def test_energy_antisymmetry_and_cocycle():
    rng = random.Random(217)
    for P in (SEG, BOX):
        a = random_convex_metric(P, rng)
        b = random_convex_metric(P, rng)
        c = random_convex_metric(P, rng)
        assert energy(a, b) == -energy(b, a)
        assert energy(a, c) == energy(a, b) + energy(b, c)
        assert energy(a, a) == 0


def test_energy_agrees_with_roof_integral_gap():
    # energy is the roof-integral gap; the oracle polarizes mixed measures
    rng = random.Random(218)
    pairs = []
    for P in (SEG, BOX, simplex(2)):
        for _ in range(3):
            pairs.append((random_convex_metric(P, rng), random_convex_metric(P, rng)))
        for branches in (2, 3):
            pairs.append(tuple(envelope(random_nonconvex_metric(P, rng, branches=branches))
                               for _ in range(2)))
    for a, b in pairs:
        assert energy(a, b) == energy_by_mixed_measures(a, b), (a.polytope, a, b)
    for _ in range(3):
        a = random_convex_metric(LINE_IN_PLANE, rng)
        b = random_convex_metric(LINE_IN_PLANE, rng)
        assert energy(a, b) == energy_by_mixed_measures(a, b) == 0


def test_envelope_energy_is_the_energy_of_the_envelopes():
    # read from the two conjugates, with no envelope built, the helper must
    # give the energy of the envelope pair on nonconvex multi-branch pairs
    rng = random.Random(219)
    hexagon = Polytope.from_points([(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)])
    for P in (SEG, BOX, simplex(2), hexagon, LINE_IN_PLANE):
        for branches in (2, 3, 4):
            for _ in range(3):
                a = random_nonconvex_metric(P, rng, branches=branches)
                b = random_nonconvex_metric(P, rng, branches=branches)
                want = energy(envelope(a), envelope(b))
                assert envelope_energy(a, b) == want, (P, a, b)
                if P is LINE_IN_PLANE:
                    assert want == 0
    with pytest.raises(PreconditionError):
        envelope_energy(canonical_metric(SEG), canonical_metric(segment(0, 2)))


def test_integrate_helper():
    mu = monge_ampere(tent_metric(SEG))
    assert mu.integrate(lambda v: abs(v[0])) == 1
    assert mu.integrate(lambda v: v[0]) == 0


def test_energy_requires_shared_polytope():
    can = canonical_metric(SEG)
    other = canonical_metric(segment(0, 2))
    with pytest.raises(PreconditionError):
        energy(can, other)


@pytest.mark.parametrize("call, match", [
    (lambda bump, can: mixed_monge_ampere([bump]), "mixed measure needs semipositive metrics"),
    (lambda bump, can: energy(bump, can), "energy needs semipositive metrics"),
    (lambda bump, can: energy(can, bump), "energy needs semipositive metrics"),
], ids=["mixed-measure", "energy-first", "energy-second"])
def test_measures_refusals(call, match):
    bump, can = bump_metric(), canonical_metric(SEG)
    assert not is_semipositive(bump)
    with pytest.raises(PreconditionError, match=match):
        call(bump, can)
