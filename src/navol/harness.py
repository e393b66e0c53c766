"""End-to-end verification of the paper's identities on concrete instances:
volume equals energy, one-sided differentiability of the volume,
orthogonality of the envelope, section-space equality along the envelope,
and Monge-Ampere solvability on metric trees.

Differentiability, asymptotic in eps, fits a constant on one part of its
schedule and enforces it on the rest; every other identity is checked with
no tolerance at all. Volume = energy is read at the levels of the pair's
Ehrhart period; section-space equality is proven at every level at once, by
the metric's roof and its envelope's agreeing at every cell corner of both.
Every report stores the exact rationals needed to re-derive its pass/fail
bit.
"""
from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .measures import DiscreteMeasure, envelope_energy, monge_ampere
from .plmetric import (PLMetric, canonical_metric, envelope, envelope_gap,
                       is_semipositive, legendre, metric_deformations)
from .polytope import Polytope, segment, unit_box
from .rational import ZERO, frac, frac_str
from .trees import MetricTree, laplacian_rows, net_mass_rows, potential_rows
from .volumes import lattice_length


# defaults for h0-check and diff-check, shared by verify-all
H0_SCHEDULE = tuple(range(1, 26))
DIFF_EPS = tuple(Fraction(1, 2 ** k) for k in range(1, 6))
# the top level (n+2)*q of a planar vol-is-energy check: about 4.5 us per unit
# of m a level on a non-convex box pair, under a second in all (2-core VM)
VOL_LEVEL_BUDGET = 40_000


@dataclass
class VerificationReport:
    theorem: str
    instance: str
    passed: bool
    exact: Dict[str, str] = field(default_factory=dict)   # name -> exact rational
    series: List[Tuple[str, ...]] = field(default_factory=list)
    runtime: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.theorem} :: {self.instance}"


def _fit_window(count: int, requested: Optional[int]) -> int:
    """How many of count levels fit the constant, half unless requested; the rest verify it."""
    if count < 2:
        raise PreconditionError(f"a fitted check needs at least two levels, got {count}")
    if requested is not None:
        return max(1, min(requested, count - 1))
    return max(1, count // 2)


def verify_vol_is_energy(m1: PLMetric, m2: PLMetric,
                         instance: str = "pair") -> VerificationReport:
    """At the levels m = q*k the lattice length is a polynomial of degree n+1
    in k (its Ehrhart polynomial) whose leading coefficient times n!/q^(n+1)
    is E, the energy of the pair of envelopes; q is the lcm over both roofs of
    the row scale times the lcm of the cell corners' denominators. With the
    length 0 at m = 0 as the anchor, both (n+1)-th forward differences over
    k = 0..n+2 must be (n+1)*q^(n+1)*E. A planar pair whose top level passes
    VOL_LEVEL_BUDGET is refused before any level. For semipositive pairs this
    is the volume=energy identity; in general it is its envelope corollary."""
    start = time.monotonic()
    n, q = m1.dim, 1
    for roof in (legendre(m1), legendre(m2)):
        corners = math.lcm(*(row[-1] for _, cell in roof.integer_cells() for row in cell))
        q = math.lcm(q, roof.integer_rows()[0] * corners)
    if n > 1 and (n + 2) * q > VOL_LEVEL_BUDGET:
        raise PreconditionError(f"vol-is-energy needs level {frac_str((n + 2) * q)} (period "
                                f"{frac_str(q)}), above the planar budget {VOL_LEVEL_BUDGET}")
    levels = [(q * k, lattice_length(m1, m2, q * k)) for k in range(1, n + 3)]
    target, diffs = envelope_energy(m1, m2), [0] + [length for _, length in levels]
    for _ in range(n + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    series = [("m", "length", "normalized")] + [
        (frac_str(m), frac_str(v), frac_str(Fraction(math.factorial(n) * v, m ** (n + 1))))
        for m, v in levels]
    semi = is_semipositive(m1) and is_semipositive(m2)
    return VerificationReport(
        theorem="vol-is-energy" if semi else "vol-is-energy-envelope",
        instance=instance, passed=diffs == [(n + 1) * q ** (n + 1) * target] * 2,
        exact={"energy": frac_str(target), "period": frac_str(q)},
        series=series, runtime=time.monotonic() - start)


def verify_differentiability(psi: PLMetric, pos: PLMetric, neg: PLMetric,
                             eps_schedule: Sequence[Fraction],
                             fit_count: Optional[int] = None,
                             instance: str = "direction") -> VerificationReport:
    """vol(psi + eps*f, psi) = eps * integral of f against MA(psi) + O(eps^2)
    for the bounded direction f = pos - neg; the quadratic constant is fitted
    on the largest eps values and verified on the smallest. The whole
    schedule is deformed in one call of metric_deformations, which hulls each
    branch pair once, at the largest eps."""
    start = time.monotonic()
    if not psi.polytope == pos.polytope == neg.polytope:
        raise PreconditionError("differentiability needs all three metrics on one polytope")
    eps_values = sorted({frac(e) for e in eps_schedule} - {ZERO}, reverse=True)
    if not eps_values or eps_values[-1] < 0:
        raise PreconditionError("differentiability needs nonnegative eps values, not all 0")
    window = _fit_window(len(eps_values), fit_count)
    if not is_semipositive(psi):
        raise PreconditionError("differentiability base metric must be semipositive")
    mu = monge_ampere(psi)
    derivative = mu.integrate(lambda v: pos.evaluate(v) - neg.evaluate(v))
    residuals: List[Tuple[Fraction, Fraction, Fraction]] = []
    for eps, deformed in zip(eps_values, metric_deformations(psi, eps_values, pos, neg)):
        vol = envelope_energy(deformed, psi)
        residuals.append((eps, vol, abs(vol - eps * derivative)))
    constant = ZERO
    ratios = [(eps, res / (eps * eps)) for eps, _, res in residuals[:window]]
    for _, ratio in ratios:
        constant = max(constant, ratio)
    if len(ratios) >= 2:
        # The exact volume is piecewise polynomial of degree <= n+1 in eps, so
        # residual/eps^2 is affine in eps on the final linearity window.  When
        # the ratio still grows as eps shrinks, the admissible constant is the
        # eps -> 0 intercept of the line through the two smallest fitted
        # points; a wrong derivative makes the ratio grow like 1/eps, which
        # this extrapolation can never absorb.
        (ea, ra), (eb, rb) = ratios[-2], ratios[-1]
        intercept = rb + (rb - ra) * eb / (ea - eb)
        constant = max(constant, intercept)
    passed = all(res <= constant * eps * eps
                 for eps, _, res in residuals[window:])
    series = [("eps", "volume", "residual")] + [
        (frac_str(e), frac_str(v), frac_str(r)) for e, v, r in residuals]
    return VerificationReport(
        theorem="volume-differentiability", instance=instance, passed=passed,
        exact={"derivative": frac_str(derivative),
               "fitted_constant": frac_str(constant),
               "fit_window": str(window)},
        series=series, runtime=time.monotonic() - start)


def verify_orthogonality(psi: PLMetric,
                         instance: str = "metric") -> VerificationReport:
    """The gap between a metric and its envelope integrates to exactly zero
    against the Monge-Ampere measure of the envelope. gap_sup is the sup of
    that gap, envelope_gap's pruned walk of the metric against its
    envelope."""
    start = time.monotonic()
    env = envelope(psi)
    mu = monge_ampere(env)
    residual = mu.integrate(lambda v: psi.evaluate(v) - env.evaluate(v))
    return VerificationReport(
        theorem="envelope-orthogonality", instance=instance,
        passed=(residual == 0),
        exact={"residual": frac_str(residual),
               "gap_sup": frac_str(envelope_gap(psi)),
               "measure_mass": frac_str(mu.total_mass)},
        runtime=time.monotonic() - start)


def verify_h0_envelope_equality(psi: PLMetric, schedule: Sequence[int],
                                instance: str = "metric") -> VerificationReport:
    """The section lattices of a metric and of its envelope agree at every
    level m: the two roofs are one function on P. The envelope is rebuilt
    from its blocks, so its roof is derived anew, not copied.

    Proof. f = legendre(psi) and g = legendre(env) are convex, and each cell
    of either is the convex hull of its corners, on which that roof is
    affine. If g = f at the corners of a cell of f, convexity of g gives
    g <= f on the cell; if f = g at the corners of a cell of g, f <= g there.
    So f = g on P iff no corner of either roof's cells is a defect, and then
    ceil(m f(u/m)) = ceil(m g(u/m)) at every lattice point u of mP: the
    lattice length is 0 at every level m. At a homogeneous corner x = (u w, w)
    the roofs read max_i <r_i, x> / (D_f w) and max_j <r'_j, x> / (D_g w) on
    their integer rows (D_f, r_i) and (D_g, r'_j), so x is a defect iff
    max_i <r_i, x> * D_g != max_j <r'_j, x> * D_f.

    The pass bit also needs the lattice length at the schedule's top level,
    the series' one row, and the energy gap to be 0."""
    start = time.monotonic()
    if not schedule:
        raise PreconditionError("h0-envelope-equality needs at least one level")
    env = PLMetric(psi.polytope, envelope(psi).blocks)
    roofs = legendre(psi), legendre(env)
    (d_f, rows_f), (d_g, rows_g) = (roof.integer_rows() for roof in roofs)
    corners = {x for roof in roofs for _, cell in roof.integer_cells() for x in cell}
    corner_defects = sum(1 for x in corners
                         if max(sum(map(operator.mul, r, x)) for r in rows_f) * d_g
                         != max(sum(map(operator.mul, r, x)) for r in rows_g) * d_f)
    top = max(schedule)
    length = lattice_length(psi, env, top)
    volume_gap = envelope_energy(psi, env)
    return VerificationReport(
        theorem="h0-envelope-equality", instance=instance,
        passed=corner_defects == 0 and length == 0 and volume_gap == 0,
        exact={"corner_defects": str(corner_defects),
               "max_abs_length": frac_str(abs(length)),
               "volume_gap": frac_str(volume_gap)},
        series=[("m", "length"), (str(top), frac_str(length))],
        runtime=time.monotonic() - start)


def verify_length_cocycle(a: PLMetric, b: PLMetric, c: PLMetric,
                          schedule: Sequence[int],
                          instance: str = "triple") -> VerificationReport:
    """Lengths are antisymmetric and additive along triples at every level.
    `lattice_length(a, b, m)` is S_b(m) - S_a(m), one kernel sum per roof, so
    the cocycle holds for any per-roof sum: it checks that S(m2) - S(m1)
    pairs the right roofs, not the kernel, and `verify-all` does not run it."""
    start = time.monotonic()
    if not schedule:
        raise PreconditionError("length-cocycle needs at least one level")
    passed = True
    worst = 0
    for m in schedule:
        ab = lattice_length(a, b, m)
        bc = lattice_length(b, c, m)
        ac = lattice_length(a, c, m)
        ba = lattice_length(b, a, m)
        gap = abs(ab + bc - ac) + abs(ab + ba)
        worst = max(worst, gap)
        if gap != 0:
            passed = False
    return VerificationReport(
        theorem="length-cocycle", instance=instance, passed=passed,
        exact={"max_defect": str(worst)},
        runtime=time.monotonic() - start)


# -- seeded instance generators ---------------------------------------------

def _random_constant(rng: random.Random, denom_bound: int, size: int) -> Fraction:
    den = rng.randint(1, denom_bound)
    num = rng.randint(-size * den, size * den)
    return Fraction(num, den)


def random_convex_metric(P: Polytope, rng: random.Random,
                         denom_bound: int = 4, size: int = 2) -> PLMetric:
    """Single-branch metric whose slopes are exactly the vertices of P."""
    return random_nonconvex_metric(P, rng, 1, denom_bound, size)


def random_nonconvex_metric(P: Polytope, rng: random.Random,
                            branches: int = 2, denom_bound: int = 4,
                            size: int = 2) -> PLMetric:
    """Minimum of several random convex branches; usually non-convex."""
    return PLMetric(P, [[(v, _random_constant(rng, denom_bound, size)) for v in P.vertices]
                        for _ in range(branches)])


def random_direction(P: Polytope, rng: random.Random,
                     denom_bound: int = 4) -> Tuple[PLMetric, PLMetric]:
    """Bounded deformation direction as a difference of two convex metrics."""
    pos = random_convex_metric(P, rng, denom_bound, size=1)
    neg = random_convex_metric(P, rng, denom_bound, size=1)
    return pos, neg


def random_tree(rng: random.Random, max_vertices: int = 20) -> MetricTree:
    count = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(count)]
    edges = []
    for i in range(1, count):
        parent = names[rng.randrange(i)]
        length = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        edges.append((parent, names[i], length))
    return MetricTree(names, edges)


def random_tree_measures(tree: MetricTree, rng: random.Random
                         ) -> Tuple[DiscreteMeasure, DiscreteMeasure]:
    """Target and base measures with exactly matching total mass."""
    target_atoms = []
    base_atoms = []
    for v in tree.vertices:
        if rng.random() < 0.6:
            target_atoms.append((v, Fraction(rng.randint(-6, 6), rng.randint(1, 3))))
        if rng.random() < 0.4:
            base_atoms.append((v, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    target = DiscreteMeasure(target_atoms)
    base = DiscreteMeasure(base_atoms)
    correction = target.total_mass - base.total_mass
    base = DiscreteMeasure(list(base.atoms.items()) + [(tree.root, correction)])
    return target, base


def verify_tree_solvability(tree: MetricTree, target: DiscreteMeasure,
                            base: DiscreteMeasure,
                            instance: str = "tree") -> VerificationReport:
    """Curvature of the solved potential reproduces the target measure (see
    `verify_tree_net_rows`)."""
    return verify_tree_net_rows(tree, *net_mass_rows(tree, target, base),
                                instance=instance)


def verify_tree_net_rows(tree: MetricTree, net_scale: int, net: Sequence[int],
                         instance: str = "tree") -> VerificationReport:
    """The solvability check on the net mass rows of a target and a base
    (`trees.net_rows`): the defect base + laplacian(phi) - target, which is
    laplacian(phi) - (target - base), is counted on the solver's integer
    rows. `net_rows` refuses a net mass that does not sum to 0, so no defect
    also means a Laplacian of mass 0."""
    start = time.monotonic()
    lap_scale, lap = laplacian_rows(tree, *potential_rows(tree, net_scale, net))
    defect_atoms = sum(1 for a, b in zip(lap, net)
                       if a * net_scale != b * lap_scale)
    return VerificationReport(
        theorem="tree-monge-ampere-solvability", instance=instance, passed=defect_atoms == 0,
        exact={"defect_atoms": str(defect_atoms),
               "vertices": str(len(tree.vertices))},
        runtime=time.monotonic() - start)


# -- bundled suite -----------------------------------------------------------

def tent_metric(P: Polytope) -> PLMetric:
    return PLMetric(P, [[((ZERO,), ZERO),
                         ((Fraction(1, 2),), Fraction(1, 2)),
                         ((Fraction(1),), ZERO)]])


def tent_direction(P: Polytope) -> Tuple[PLMetric, PLMetric]:
    return tent_metric(P), canonical_metric(P)


def run_bundled_suite(seed: int = 0) -> List[VerificationReport]:
    """The seeded suite behind `verify-all`, a table run in order of (check,
    instance name, count, draw(rng) -> the check's arguments); a count above
    one numbers the instances. Each check's entries draw from its own stream,
    `random.Random(f"{seed}/{check.__name__}")`, so an entry added to one
    check moves no other check's instances. Named instances live in the
    bundled instance files, except `tent-direction`: no file holds a direction."""
    seg, box = segment(0, 1), unit_box(2)

    def tree_and_measures(rng: random.Random):
        tree = random_tree(rng, max_vertices=12)
        return (tree, *random_tree_measures(tree, rng))

    table = (
        (verify_vol_is_energy, "seg-convex", 3, lambda rng: (
            random_convex_metric(seg, rng), random_convex_metric(seg, rng))),
        (verify_vol_is_energy, "box-convex", 2, lambda rng: (
            random_convex_metric(box, rng), random_convex_metric(box, rng))),
        (verify_differentiability, "tent-direction", 1, lambda rng: (
            canonical_metric(seg), *tent_direction(seg), DIFF_EPS)),
        (verify_orthogonality, "seg-nonconvex", 3, lambda rng: (
            random_nonconvex_metric(seg, rng),)),
        (verify_orthogonality, "box-nonconvex", 2, lambda rng: (
            random_nonconvex_metric(box, rng),)),
        (verify_h0_envelope_equality, "seg-nonconvex", 2, lambda rng: (
            random_nonconvex_metric(seg, rng), H0_SCHEDULE)),
        (verify_tree_solvability, "tree", 3, tree_and_measures),
    )
    rngs = {check: random.Random(f"{seed}/{check.__name__}") for check, *_ in table}
    return [check(*draw(rngs[check]), instance=name if count == 1 else f"{name}-{i}")
            for check, name, count, draw in table for i in range(count)]
