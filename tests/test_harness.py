"""End-to-end verification drivers and the bundled instance suite."""

import json
import random
from fractions import Fraction

import pytest

import navol.cli as cli
import navol.harness as harness
from navol.errors import PreconditionError
from navol.harness import (bump_metric, random_convex_metric,
                           random_direction, random_nonconvex_metric,
                           random_tree, random_tree_measures, run_bundled_suite,
                           tent_direction, tent_metric, verify_differentiability,
                           verify_h0_envelope_equality, verify_length_cocycle,
                           verify_orthogonality, verify_tree_solvability,
                           verify_vol_is_energy)
from navol.measures import DiscreteMeasure, energy
from navol.plmetric import canonical_metric, envelope, metric_deform
from navol.polytope import Polytope, segment, simplex, unit_box
from navol.trees import MetricTree, potential_rows
from navol.volumes import default_schedule, lipschitz_check, navol, proportionality_check

from _oracles import tree_edges

F = Fraction
SEG = segment(0, 1)
BOX = unit_box(2)
EPS = [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)]


def test_vol_is_energy_on_the_tent():
    rep = verify_vol_is_energy(tent_metric(SEG), canonical_metric(SEG), default_schedule(1))
    assert rep.passed
    assert rep.theorem == "vol-is-energy"
    assert rep.exact["energy"] == "1/4"
    assert rep.series[0] == ("m", "length", "normalized")


def test_vol_is_energy_envelope_label_for_nonconvex_input():
    rep = verify_vol_is_energy(bump_metric(SEG), canonical_metric(SEG),
                               schedule=list(range(1, 13)))
    assert rep.passed
    assert rep.theorem == "vol-is-energy-envelope"


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
        verify_differentiability(bump_metric(SEG), pos, neg, EPS)
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
    rep = verify_orthogonality(bump_metric(SEG), instance="bump")
    assert rep.passed
    assert rep.exact["residual"] == "0"
    assert rep.exact["gap_sup"] != "0"


def test_h0_envelope_equality_reports():
    rep = verify_h0_envelope_equality(bump_metric(SEG),
                                      schedule=list(range(1, 26)))
    assert rep.passed
    assert rep.exact["max_abs_length"] == "0"
    assert rep.exact["volume_gap"] == "0"


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
    # a fitted check needs one level past its fit window, whatever fit_count
    # asks, and a check of every level needs one level
    tent, can = tent_metric(SEG), canonical_metric(SEG)
    pos, neg = tent_direction(SEG)
    refusals = {
        "at least two levels": (lambda: verify_vol_is_energy(tent, can, [3]),
                                lambda: verify_vol_is_energy(tent, can, [], fit_count=1),
                                lambda: verify_differentiability(can, pos, neg,
                                                                 [F(1, 2), F(1, 2)])),
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
    assert rep.exact["laplacian_mass"] == "0"


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
    assert rep.exact["laplacian_mass"] == "0"


def test_report_line_format():
    rep = verify_orthogonality(bump_metric(SEG), instance="bump")
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
            "length-cocycle", "tree-monge-ampere-solvability"} <= theorems


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
