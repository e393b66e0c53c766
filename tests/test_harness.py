"""End-to-end verification drivers and the bundled instance suite."""

import json
import math
import random
import sys
from fractions import Fraction
from importlib import resources

import pytest

import navol.cli as cli
import navol.harness as harness
from navol.errors import PreconditionError
from navol.harness import (random_convex_metric, random_direction,
                           random_nonconvex_metric, random_tree,
                           random_tree_measures, run_bundled_suite,
                           tent_direction, tent_metric, verify_differentiability,
                           verify_h0_envelope_equality, verify_length_cocycle,
                           verify_orthogonality, verify_tree_solvability,
                           verify_vol_is_energy)
from navol.measures import DiscreteMeasure, energy, envelope_energy
from navol.plmetric import (PLMetric, canonical_metric, envelope, envelope_gap, legendre,
                            metric_deform, metric_shift)
from navol.polytope import Polytope, segment, simplex, unit_box
from navol.serialize import ToricInstance, parse_instance_text
from navol.trees import MetricTree, potential_rows
from navol.volumes import lattice_length, lipschitz_check, navol, proportionality_check

from _oracles import bump_metric, h0_lengths_by_levels, instance_json, roof_cells, tree_edges

F = Fraction
SEG = segment(0, 1)
BOX = unit_box(2)
EPS = [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)]


def test_vol_is_energy_on_the_tent():
    rep = verify_vol_is_energy(tent_metric(SEG), canonical_metric(SEG))
    assert rep.passed
    assert rep.theorem == "vol-is-energy"
    assert rep.exact["energy"] == "1/4"
    assert rep.series[0] == ("m", "length", "normalized")


def test_vol_is_energy_envelope_label_for_nonconvex_input():
    rep = verify_vol_is_energy(bump_metric(), canonical_metric(SEG))
    assert rep.passed
    assert rep.theorem == "vol-is-energy-envelope"


def _period(m1, m2):
    """The lcm over both roofs of the row scale D times the lcm W of the
    cell corners' denominators, read from the rational cells."""
    q = 1
    for metric in (m1, m2):
        roof = legendre(metric)
        corners = math.lcm(*(c.denominator for _, cell in roof_cells(roof)
                             for corner in cell for c in corner))
        q = math.lcm(q, roof.integer_rows()[0] * corners)
    return q


def _differences(m1, m2, q):
    """The two (n+1)-th forward differences of the lengths at q*k, k = 0..n+2
    (0 at k = 0), and what each must be: (n+1)*q^(n+1) times the energy."""
    n = m1.dim
    values = [0] + [lattice_length(m1, m2, q * k) for k in range(1, n + 3)]
    for _ in range(n + 1):
        values = [b - a for a, b in zip(values, values[1:])]
    return values, (n + 1) * q ** (n + 1) * envelope_energy(m1, m2)


def test_vol_is_energy_period_multiplies_scale_and_corner_denominators():
    # the 16th pair of this draw: the lcm of the roofs' scales and corner
    # denominators, 24, is too short a period; scale times corners, 144, is one
    rng = random.Random(77)
    m1, m2 = [(random_nonconvex_metric(BOX, rng), random_nonconvex_metric(BOX, rng))
              for _ in range(16)][-1]
    rep = verify_vol_is_energy(m1, m2)
    assert rep.passed and rep.exact["period"] == "144" == str(_period(m1, m2))
    assert [int(m) for m, _, _ in rep.series[1:]] == [144, 288, 432, 576]
    assert set(rep.exact) == {"energy", "period"}
    lcm = math.lcm(*(legendre(m).integer_rows()[0] for m in (m1, m2)),
                   *(c.denominator for m in (m1, m2) for _, cell in roof_cells(legendre(m))
                     for corner in cell for c in corner))
    assert lcm == 24
    differences, target = _differences(m1, m2, 144)
    assert differences == [target] * 2
    differences, target = _differences(m1, m2, 24)
    assert differences != [target] * 2


def test_vol_is_energy_refuses_a_planar_pair_over_the_budget(monkeypatch, tmp_path, capsys):
    # the first pair of the same draw has period 83,160: its top level is
    # 4 * 83,160, past the budget, and no level is computed
    rng = random.Random(77)
    m1, m2 = random_nonconvex_metric(BOX, rng), random_nonconvex_metric(BOX, rng)
    assert 4 * _period(m1, m2) > harness.VOL_LEVEL_BUDGET
    path = tmp_path / "far.json"
    path.write_text(instance_json(ToricInstance("far.json", BOX, {"psi1": m1, "psi2": m2}, ())))
    rc = cli.main(["verify-all", str(path), "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == ("error: vol-is-energy needs level 332640 (period 83160), "
                   f"above the planar budget {harness.VOL_LEVEL_BUDGET}\n")

    # a period too long for str() gets frac_str's one line, not a traceback
    big = 10 ** 4000
    corners = [([0, 0], f"1/{big + 1}"), ([1, 0], f"1/{big + 3}"), ([0, 1], 0), ([1, 1], 0)]
    path.write_text(json.dumps({
        "kind": "toric", "polytope": [s for s, _ in corners],
        "metrics": {"psi1": [[{"slope": s, "constant": c} for s, c in corners]]}}))
    rc = cli.main(["verify-all", str(path), "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == ("error: an exact result has an integer of more than "
                   f"{sys.get_int_max_str_digits()} digits\n")

    def length(*args):
        raise AssertionError("a level was computed over the budget")

    monkeypatch.setattr(harness, "lattice_length", length)
    with pytest.raises(PreconditionError, match="planar budget"):
        verify_vol_is_energy(m1, m2)


def _energy_without_factorial(energy):
    return lambda m1, m2: energy(m1, m2) / math.factorial(m1.dim)


def _roof_shifted(length):
    # one roof moved by 1/q, q the pair's period: at m = q*k every ceiling
    # moves by k
    return lambda m1, m2, m: length(m1, metric_shift(m2, F(1, _period(m1, m2))), m)


def _length_plus_1(length):
    return lambda m1, m2, m: length(m1, m2, m) + 1


# label: (harness name, mutant of it, dimensions of the reports it touches)
PROBES = {
    "energy-without-n!": ("envelope_energy", _energy_without_factorial, (2,)),
    "roof-shifted-by-1/q": ("lattice_length", _roof_shifted, (1, 2)),
    "length-plus-1": ("lattice_length", _length_plus_1, (1, 2)),
}


@pytest.mark.parametrize("label", sorted(PROBES))
def test_each_probe_fails_every_vol_is_energy_report_it_touches(label, monkeypatch):
    name, mutate, dims = PROBES[label]
    pairs = [parse_instance_text(text, file).metric_pair("verify-all")
             for file, text in cli.bundled_instance_texts() if '"psi1"' in text]
    rng = random.Random(2003)
    pairs += [(random_nonconvex_metric(SEG, rng), random_nonconvex_metric(SEG, rng))
              for _ in range(3)]
    monkeypatch.setattr(harness, name, mutate(getattr(harness, name)))
    reports = [verify_vol_is_energy(m1, m2) for m1, m2 in pairs]
    reports += [r for seed in range(3) for r in run_bundled_suite(seed)
                if r.theorem.startswith("vol-is-energy")]
    touched = [r for r in reports if len(r.series) - 3 in dims]   # n+2 levels, a header
    assert len(touched) >= 7 and not any(r.passed for r in touched), label


def test_every_seeded_report_passes_on_seeds_0_to_149():
    failed = [(seed, r.theorem, r.instance) for seed in range(150)
              for r in run_bundled_suite(seed) if not r.passed]
    assert failed == []


def test_differentiability_on_the_tent_direction():
    pos, neg = tent_direction(SEG)
    rep = verify_differentiability(canonical_metric(SEG), pos, neg, EPS,
                                   fit_count=2)
    assert rep.passed
    assert rep.exact["derivative"] == "1/2"
    assert rep.exact["fitted_constant"] == "1/4"


def test_differentiability_needs_semipositive_base():
    pos, neg = tent_direction(SEG)
    with pytest.raises(PreconditionError):
        verify_differentiability(bump_metric(), pos, neg, EPS)
    with pytest.raises(PreconditionError):
        verify_differentiability(canonical_metric(SEG), pos, neg, [F(0)])


def test_differentiability_refuses_a_negative_eps_before_any_deformation(monkeypatch):
    def deform(*args):
        raise AssertionError("deformed before the schedule was checked")

    monkeypatch.setattr(harness, "metric_deformations", deform)
    pos, neg = tent_direction(SEG)
    with pytest.raises(PreconditionError, match="nonnegative eps"):
        verify_differentiability(canonical_metric(SEG), pos, neg, [F(1, 2), F(-1, 4)])


def test_differentiability_survives_growing_residual_ratio():
    # residual/eps^2 may increase towards eps -> 0 within the last linearity
    # window; the affine extrapolation in the fit must absorb that
    rng = random.Random(2000)
    P = BOX
    psi = random_convex_metric(P, rng)
    pos, neg = random_direction(P, rng)
    rep = verify_differentiability(psi, pos, neg, EPS, fit_count=2)
    assert rep.passed


def test_differentiability_series_is_the_energy_of_envelopes():
    # each eps volume is read from the deformed metric's and psi's conjugates;
    # it must be the energy of the envelope of the deformation against psi's
    rng = random.Random(2001)
    hexagon = Polytope.from_points([(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)])
    for P in (SEG, BOX, simplex(2), hexagon):
        for _ in range(3):
            psi = random_convex_metric(P, rng)
            pos, neg = random_direction(P, rng)
            rep = verify_differentiability(psi, pos, neg, EPS)
            assert [F(e) for e, _, _ in rep.series[1:]] == sorted(EPS, reverse=True)
            for e, vol, _ in rep.series[1:]:
                deformed = metric_deform(psi, F(e), pos, neg)
                assert F(vol) == energy(envelope(deformed), envelope(psi)), (P, e)


def test_orthogonality_on_the_bump():
    rep = verify_orthogonality(bump_metric(), instance="bump")
    assert rep.passed
    assert rep.exact == {"residual": "0", "measure_mass": "1"}
    # the bump is not its envelope: the gap the residual integrates is not 0
    assert envelope_gap(bump_metric()) > 0


def test_orthogonality_passes_on_degenerate_bodies():
    # a body that is not full-dimensional has no roof cells, so MA has mass
    # n!vol(P) = 0 there; on [0, 3] the mass is 1!*3
    rng = random.Random(51)
    for P, mass in ((Polytope.from_points([(0, 0), (2, 1)]), "0"),
                    (Polytope.from_points([(F(1, 2), F(-3, 2))]), "0"),
                    (segment(0, 3), "3")):
        for _ in range(20):
            rep = verify_orthogonality(random_nonconvex_metric(P, rng, 3))
            assert rep.passed and rep.exact["measure_mass"] == mass, (P, rep.exact)


def test_h0_envelope_equality_reports():
    rep = verify_h0_envelope_equality(bump_metric(),
                                      schedule=list(range(1, 26)))
    assert rep.passed
    assert rep.exact["max_abs_length"] == "0"
    assert rep.exact["volume_gap"] == "0"
    assert rep.exact["corner_defects"] == "0"
    assert rep.series == [("m", "length"), ("25", "0")]


# the segment, the box, a lattice hexagon and a triangle with rational corners
H0_BODIES = (SEG, BOX,
             Polytope.from_points([(1, 0), (2, 0), (3, 1), (2, 2), (1, 2), (0, 1)]),
             Polytope.from_points([(0, 0), (F(5, 2), 0), (0, F(3, 2))]))


def _nudged(psi, rng):
    """psi with one piece's constant moved by +-1/k, k in 1..4."""
    blocks = [list(block) for block in psi.blocks]
    block = rng.choice(blocks)
    i = rng.randrange(len(block))
    slope, const = block[i]
    block[i] = (slope, const + F(rng.choice((-1, 1)), rng.randint(1, 4)))
    return PLMetric(psi.polytope, blocks)


def test_h0_corner_identity_matches_the_per_level_lengths(monkeypatch):
    # (a) a metric against its envelope: no corner defect, and no length at
    # levels 1..8; (b) a metric against a nudged copy or another draw, put in
    # place of its envelope: a nonzero length at some level 1..12 always
    # comes with a corner defect
    rng = random.Random(4747)
    pairs = []
    for P in H0_BODIES:
        for _ in range(20):
            psi = random_nonconvex_metric(P, rng)
            rep = verify_h0_envelope_equality(psi, [8])
            assert rep.passed and rep.exact["corner_defects"] == "0", psi
            assert h0_lengths_by_levels(psi, envelope(psi), range(1, 9)) == [0] * 8, psi
            pairs += [(psi, _nudged(psi, rng)), (psi, random_nonconvex_metric(P, rng))]
    moved = 0
    for psi, other in pairs:
        monkeypatch.setattr(harness, "envelope", lambda metric, other=other: other)
        defects = int(verify_h0_envelope_equality(psi, [1]).exact["corner_defects"])
        lengths = h0_lengths_by_levels(psi, other, range(1, 13))
        moved += any(lengths)
        assert defects > 0 or not any(lengths), (psi, other, lengths)
    assert len(pairs) == 160 and moved >= 140, moved


def test_h0_corner_defects_fail_the_check_alone(monkeypatch):
    # with the lattice length and the energy gap read as 0, an envelope
    # whose first corner is lowered by 1 still FAILs both bundled files
    from test_mutants import _first_corner_moved
    monkeypatch.setattr(harness, "lattice_length", lambda m1, m2, m: 0)
    monkeypatch.setattr(harness, "envelope_energy", lambda m1, m2: F(0))
    monkeypatch.setattr(harness, "envelope", _first_corner_moved(-1)(envelope))
    for name, metric in (("bump_segment.json", "bump"), ("box_bump.json", "psi")):
        text = resources.files("navol").joinpath("instances", name).read_text(encoding="utf-8")
        inst = parse_instance_text(text, name)
        rep = verify_h0_envelope_equality(inst.single_metric(metric), inst.schedule)
        assert not rep.passed, name
        assert rep.exact["corner_defects"] != "0" and rep.exact["max_abs_length"] == "0", name


def test_length_cocycle_on_seeded_triples():
    rng = random.Random(2001)
    for P in (SEG, BOX):
        a = random_nonconvex_metric(P, rng)
        b = random_convex_metric(P, rng)
        c = random_nonconvex_metric(P, rng)
        rep = verify_length_cocycle(a, b, c, schedule=[1, 2, 3, 5])
        assert rep.passed
        assert rep.exact["max_defect"] == "0"


def test_checks_refuse_levels_that_leave_nothing_to_verify():
    # a fitted check needs one level past its fit window, and a check of
    # every level needs one level
    tent, can = tent_metric(SEG), canonical_metric(SEG)
    pos, neg = tent_direction(SEG)
    refusals = {
        "at least two levels": (lambda: verify_differentiability(can, pos, neg,
                                                                 [F(1, 2), F(1, 2)]),),
        "at least one level": (lambda: verify_length_cocycle(tent, can, tent, []),
                               lambda: verify_h0_envelope_equality(tent, []),
                               lambda: proportionality_check(tent, can, F(1), []),
                               lambda: navol(tent, can, []),
                               lambda: lipschitz_check(tent, can, can, [])),
    }
    for message, checks in refusals.items():
        for check in checks:
            with pytest.raises(PreconditionError, match=message):
                check()


def test_tree_solvability_report():
    rng = random.Random(2002)
    tree = random_tree(rng)
    target, base = random_tree_measures(tree, rng)
    rep = verify_tree_solvability(tree, target, base)
    assert rep.passed
    assert rep.exact["defect_atoms"] == "0"


def test_tree_check_counts_the_defect_of_a_wrong_potential(monkeypatch):
    # on the path r - m - a, moving the solved potential at m leaves the
    # three slopes at r, m and a wrong, though m carries no net mass
    def nudged(tree, scale, net):
        phi_scale, phi = potential_rows(tree, scale, net)
        phi[tree.position["m"]] += 1
        return phi_scale, phi

    monkeypatch.setattr(harness, "potential_rows", nudged)
    tree = MetricTree(["r", "m", "a"], [("r", "m", F(1, 2)), ("m", "a", F(3))])
    rep = verify_tree_solvability(tree, DiscreteMeasure([("a", F(2, 3))]),
                                  DiscreteMeasure([("r", F(2, 3))]))
    assert not rep.passed
    assert rep.exact["defect_atoms"] == "3"


def test_report_line_format():
    rep = verify_orthogonality(bump_metric(), instance="bump")
    line = rep.line()
    assert line.startswith("[PASS]")
    assert "envelope-orthogonality" in line
    assert "bump" in line


def test_generators_are_deterministic_per_seed():
    a = random_nonconvex_metric(BOX, random.Random(7))
    b = random_nonconvex_metric(BOX, random.Random(7))
    assert a == b
    t1 = random_tree(random.Random(8))
    t2 = random_tree(random.Random(8))
    assert t1.vertices == t2.vertices and tree_edges(t1) == tree_edges(t2)


def test_bundled_suite_all_pass(tmp_path, capsys):
    # verify-all's reports: the bundled instance files' checks plus the suite
    assert cli.main(["verify-all", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "verify_all.json", encoding="utf-8") as handle:
        reports = json.load(handle)["reports"]
    assert len(reports) >= 20
    failures = [(r["theorem"], r["instance"]) for r in reports if not r["passed"]]
    assert not failures, failures
    theorems = {r["theorem"] for r in reports}
    assert {"vol-is-energy", "volume-differentiability",
            "envelope-orthogonality", "h0-envelope-equality",
            "tree-monge-ampere-solvability"} <= theorems


def test_bundled_suite_is_seed_stable():
    first = [(r.theorem, r.instance, r.passed, r.exact)
             for r in run_bundled_suite(seed=3)]
    second = [(r.theorem, r.instance, r.passed, r.exact)
              for r in run_bundled_suite(seed=3)]
    assert first == second


@pytest.mark.parametrize("metrics", [
    (canonical_metric(BOX), canonical_metric(SEG), canonical_metric(SEG)),
    (canonical_metric(SEG), canonical_metric(BOX), canonical_metric(SEG)),
    (canonical_metric(SEG), canonical_metric(SEG), canonical_metric(BOX)),
], ids=["psi", "pos", "neg"])
def test_harness_refusals(metrics):
    # refused before any eps is read or any metric deformed
    with pytest.raises(PreconditionError,
                       match="differentiability needs all three metrics on one polytope"):
        verify_differentiability(*metrics, EPS)
