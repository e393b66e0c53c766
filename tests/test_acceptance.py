"""Acceptance gate: the eleven headline checks, one test per criterion.

Each test prints one machine-readable pass/fail line; pytest -v adds its own
PASSED/FAILED line per criterion. Tolerances are pinned in the assertions."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import navol
from navol.cohomology import (RealDivisor, asymptotic_hq, asymptotic_hq_exact,
                              hq, morse_check, toric_family)
from navol.errors import PreconditionError
from navol.harness import (random_convex_metric, random_direction,
                           random_nonconvex_metric, random_tree,
                           random_tree_measures, tent_direction, tent_metric,
                           verify_differentiability, verify_h0_envelope_equality,
                           verify_length_cocycle, verify_orthogonality,
                           verify_tree_solvability, verify_vol_is_energy)
from navol.measures import energy, mixed_monge_ampere, monge_ampere
from navol.plmetric import canonical_metric, envelope
from navol.polytope import segment, unit_box
from navol.trees import ma_solve, tree_laplacian
from navol.volumes import proportionality_check

F = Fraction
SEG = segment(0, 1)
BOX = unit_box(2)
EPS = [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)]


def _record(num, label, passed):
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {label}")
    assert passed, f"criterion {num}: {label}"


@pytest.fixture(scope="module")
def nonconvex_instances():
    out = {}
    for dim, P in ((1, SEG), (2, BOX)):
        rng = random.Random(9000 + dim)
        out[dim] = [random_nonconvex_metric(P, rng) for _ in range(10)]
    return out


@pytest.fixture(scope="module")
def convex_pairs():
    pairs = {1: [], 2: []}
    rng = random.Random(4100)
    for _ in range(10):
        pairs[1].append((random_convex_metric(SEG, rng),
                         random_convex_metric(SEG, rng)))
    for _ in range(5):
        pairs[2].append((random_convex_metric(BOX, rng),
                         random_convex_metric(BOX, rng)))
    return pairs


def test_criterion_01_volume_equals_energy(convex_pairs):
    start = time.monotonic()
    tent = tent_metric(SEG)
    can = canonical_metric(SEG)
    assert energy(tent, can) == F(1, 4)
    rep = verify_vol_is_energy(tent, can)
    ok = rep.passed and rep.exact["energy"] == "1/4"
    for m1, m2 in convex_pairs[1]:
        r = verify_vol_is_energy(m1, m2)
        ok = ok and r.passed
    for m1, m2 in convex_pairs[2]:
        r = verify_vol_is_energy(m1, m2)
        ok = ok and r.passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _record(1, f"volume equals energy (tent + 15 seeded pairs, {elapsed:.1f}s)", ok)


def test_criterion_02_proportionality_under_constant_shifts():
    rng = random.Random(4200)
    ok = True
    for P in (SEG, BOX):
        m1 = random_convex_metric(P, rng)
        m2 = random_convex_metric(P, rng)
        schedule = list(range(1, 13)) if P is SEG else list(range(1, 9))
        for t in (F(1), F(1, 2), F(-2)):
            rep = proportionality_check(m1, m2, t, schedule=schedule)
            ok = ok and rep.passed
            for m, delta, lower, upper in rep.rows:
                n_pts = len(P.lattice_points(m))
                if (t * m).denominator == 1:
                    ok = ok and delta == t * m * n_pts
                else:
                    ok = ok and lower <= delta <= upper
    _record(2, "lengths shift proportionally under constant metric shifts", ok)


def test_criterion_03_length_cocycle_and_antisymmetry():
    ok = True
    count = 0
    for dim, P, schedule in ((1, SEG, list(range(1, 9))),
                             (2, BOX, list(range(1, 6)))):
        for i in range(12 if dim == 1 else 8):
            rng = random.Random(4300 + 100 * dim + i)
            triple = (random_nonconvex_metric(P, rng),
                      random_convex_metric(P, rng),
                      random_nonconvex_metric(P, rng))
            rep = verify_length_cocycle(*triple, schedule=schedule)
            ok = ok and rep.passed and rep.exact["max_defect"] == "0"
            count += 1
    ok = ok and count == 20
    _record(3, "length cocycle and antisymmetry exact on 20 seeded triples", ok)


def test_criterion_04_volume_differentiability():
    pos, neg = tent_direction(SEG)
    rep = verify_differentiability(canonical_metric(SEG), pos, neg, EPS,
                                   fit_count=2)
    ok = rep.passed and rep.exact["derivative"] == "1/2"
    for dim, P in ((1, SEG), (2, BOX)):
        for i in range(5):
            rng = random.Random(4400 + 100 * dim + i)
            psi = random_convex_metric(P, rng)
            dpos, dneg = random_direction(P, rng)
            r = verify_differentiability(psi, dpos, dneg, EPS, fit_count=2)
            ok = ok and r.passed
    _record(4, "one-sided derivative with quadratic remainder "
               "(tent slope 1/2 + 5 seeded directions per dimension)", ok)


def test_criterion_05_orthogonality(nonconvex_instances):
    from _oracles import bump_metric
    rep = verify_orthogonality(bump_metric(), instance="bump")
    ok = rep.passed and rep.exact["residual"] == "0"
    for dim in (1, 2):
        for psi in nonconvex_instances[dim]:
            r = verify_orthogonality(psi)
            ok = ok and r.passed and r.exact["residual"] == "0"
    _record(5, "envelope orthogonality residual exactly zero "
               "(bump + 10 seeded metrics per dimension)", ok)


def test_criterion_06_sections_unchanged_by_envelope(nonconvex_instances):
    ok = True
    schedule = list(range(1, 101))
    for dim in (1, 2):
        for psi in nonconvex_instances[dim]:
            rep = verify_h0_envelope_equality(psi, schedule=schedule)
            ok = ok and rep.passed and rep.exact["max_abs_length"] == "0"
    _record(6, "section lattices of metric and envelope agree for all m <= 100", ok)


def test_criterion_07_tree_solvability():
    ok = True
    for i in range(10):
        rng = random.Random(4700 + i)
        tree = random_tree(rng, max_vertices=20)
        ok = ok and len(tree.vertices) <= 20
        target, base = random_tree_measures(tree, rng)
        rep = verify_tree_solvability(tree, target, base)
        ok = ok and rep.passed
    from navol.measures import DiscreteMeasure
    star = random_tree(random.Random(4711), max_vertices=6)
    bad_target = DiscreteMeasure([(star.root, F(5))])
    bad_base = DiscreteMeasure([(star.root, F(1))])
    try:
        ma_solve(star, bad_target, bad_base)
        ok = False
    except PreconditionError:
        pass
    _record(7, "tree Monge-Ampere solve round-trips on 10 seeded trees "
               "and rejects mass mismatch", ok)


def test_criterion_08_morse_inequalities():
    fam = toric_family("P1xP1")
    diff = RealDivisor.integral(fam, (1, -1))
    ok = True
    for m in range(1, 101):
        h1 = hq(fam, diff, m, 1)
        ok = ok and h1 == m * m - 1 and h1 <= 5 * m * m
    pair_table = {
        "P2": [((2,), (1,)), ((3,), (1,)), ((1,), (2,))],
        "P1xP1": [((2, 1), (1, 2)), ((3, 1), (1, 3)), ((1, 1), (2, 2))],
        "F1": [((1, 1), (0, 2)), ((2, 1), (1, 1)), ((1, 2), (0, 1))],
    }
    for name, pairs in pair_table.items():
        family = toric_family(name)
        for d_cls, e_cls in pairs:
            rep = morse_check(family, RealDivisor.integral(family, d_cls),
                              RealDivisor.integral(family, e_cls), 1,
                              list(range(1, 31)))
            ok = ok and rep.passed
    _record(8, "holomorphic Morse inequality: h1 = m^2-1 <= 5m^2 up to 100 "
               "and fitted remainder on 9 nef pairs", ok)


def test_criterion_09_asymptotic_cohomology_functions():
    fam = toric_family("P1xP1")
    div = RealDivisor.integral(fam, (1, -1))
    rep = asymptotic_hq(fam, div, 1, list(range(1, 101)))
    m, _, normalized = rep.rows[-1]
    ok = (m == 100 and rep.exact == 2 and abs(normalized - 2) <= F(1, 100))
    for lam in (2, 3):
        scaled = asymptotic_hq_exact(
            fam, RealDivisor.integral(fam, (lam, -lam)), 1)
        ok = ok and scaled == lam ** 2 * rep.exact
    _record(9, "normalized h1 series reaches its limit 2 within 1/m "
               "and scales exactly with degree 2", ok)


def test_criterion_10_measure_masses(nonconvex_instances, convex_pairs):
    ok = True
    checked = 0
    cases = [(tent_metric(SEG), 1, F(1)), (canonical_metric(SEG), 1, F(1)),
             (canonical_metric(BOX), 2, F(1))]
    for dim, factorial in ((1, 1), (2, 2)):
        for psi in nonconvex_instances[dim]:
            cases.append((envelope(psi), factorial, psi.polytope.volume()))
    for dim, factorial in ((1, 1), (2, 2)):
        for m1, m2 in convex_pairs[dim]:
            cases.append((m1, factorial, m1.polytope.volume()))
            cases.append((m2, factorial, m2.polytope.volume()))
    for psi, factorial, vol in cases:
        ok = ok and monge_ampere(psi).total_mass == factorial * vol
        checked += 1
    for m1, m2 in convex_pairs[2][:3]:
        ok = ok and mixed_monge_ampere([m1, m2]).total_mass == 2
        checked += 1
    for i in range(10):
        rng = random.Random(4700 + i)
        tree = random_tree(rng, max_vertices=20)
        target, base = random_tree_measures(tree, rng)
        phi = ma_solve(tree, target, base)
        ok = ok and tree_laplacian(tree, phi).total_mass == 0
        checked += 1
    ok = ok and checked >= 40
    _record(10, f"every curvature measure carries mass n! vol(P), "
                f"tree Laplacians mass 0 ({checked} measures)", ok)


def test_criterion_11_cli_determinism(tmp_path):
    # the child process finds the package the way this one does, with or
    # without PYTHONPATH set
    src = os.path.dirname(os.path.dirname(os.path.abspath(navol.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    bodies = []
    for sub in ("first", "second"):
        out_dir = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "navol.cli", "verify-all",
             "--seed", "0", "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        run = {}
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    body = b"".join(line for line in fh
                                    if not line.startswith(b"#"))
                run[name] = body
        bodies.append(run)
    ok = bool(bodies[0]) and bodies[0] == bodies[1]
    _record(11, "verify-all exits 0 twice with byte-identical CSV bodies", ok)
