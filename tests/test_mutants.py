"""Falsifiability gate: each in-process mutant of a `navol.harness` or
`navol.volumes` name, patched in each of the two that binds the function,
must make the named theorems of `navol verify-all --seed 0` report FAIL, and
make it exit 1. Its reports are the bundled instance files' checks plus
`run_bundled_suite(0)`. A check that no mutant can fail verifies nothing."""

import collections
import json
from fractions import Fraction

import pytest

import navol.cli as cli
import navol.harness as harness
import navol.volumes as volumes
from navol.measures import DiscreteMeasure
from navol.plmetric import PLMetric

F = Fraction


def _energy_off(energy):
    return lambda m1, m2: energy(m1, m2) + F(1, 1000)


def _length_off(length):
    return lambda m1, m2, m: length(m1, m2, m) + 1


def _garbage_kernel(ceil_sum):
    """A per-roof sum that reads the roof's rows and the level but no lattice
    point."""
    def mutant(roof, bands, m):
        scale, rows = roof.integer_rows()
        return (7919 * sum(map(sum, rows)) + 13 * m * m + scale) % 100003
    return mutant


def _potential_nudged(potential_rows):
    def mutant(tree, scale, net):
        phi_scale, phi = potential_rows(tree, scale, net)
        phi[-1] += 1
        return phi_scale, phi
    return mutant


def _masses_doubled(monge_ampere):
    return lambda metric: DiscreteMeasure(
        {key: 2 * mass for key, mass in monge_ampere(metric).atoms.items()})


def _extra_atom(monge_ampere):
    def mutant(metric):
        atoms = list(monge_ampere(metric).atoms.items())
        return DiscreteMeasure(atoms + [((F(1, 3),) * metric.dim, F(1))])
    return mutant


def _first_corner_moved(delta):
    """The envelope with its first piece's constant moved by delta, built as
    `envelope` builds its result: the roof stays the copy of the metric's."""
    def mutate(envelope):
        def mutant(metric):
            env = envelope(metric)
            scale, (rows,) = env.integer_rows()
            first = (*rows[0][:-1], rows[0][-1] + delta * scale)
            moved = PLMetric.__new__(PLMetric)._build(
                env.polytope, (scale, ((first, *rows[1:]),)), env._conjugate, True)
            moved._envelope = moved
            return moved
        return mutant
    return mutate


# label: (name, mutant of it, {theorem: rows of it that must FAIL}); the
# energy mutant adds 1/1000, the length one 1, the garbage kernel replaces
# each roof's lattice sum by (7919 * its row entries + 13 m^2 + its row scale)
# mod 100003, the masses-doubled one doubles every Monge-Ampere mass, the
# extra atom has mass 1 at (1/3, ..., 1/3), the corner mutants lower or raise
# the envelope's first corner by 1, and the nudged potential adds 1 at the
# tree's last vertex. Each count is every such row of verify-all's reports
# that the mutant moves: both measure mutants move every orthogonality row's
# mass off n!vol(P), and the garbage kernel moves no h0 length where the
# metric's roof and its envelope's share their integer rows, which they do
# on 2 rows.
MUTANTS = {
    "energy-plus-1/1000": ("envelope_energy", _energy_off, {
        "volume-differentiability": 1, "h0-envelope-equality": 4, "vol-is-energy": 7}),
    "length-plus-1": ("lattice_length", _length_off, {
        "h0-envelope-equality": 4, "vol-is-energy": 7}),
    "garbage-kernel": ("_ceil_sum", _garbage_kernel, {
        "h0-envelope-equality": 2, "vol-is-energy": 7}),
    "masses-doubled": ("monge_ampere", _masses_doubled, {
        "envelope-orthogonality": 7, "volume-differentiability": 1}),
    "extra-atom": ("monge_ampere", _extra_atom, {
        "envelope-orthogonality": 7, "volume-differentiability": 1}),
    "corner-lowered": ("envelope", _first_corner_moved(-1), {
        "h0-envelope-equality": 4}),
    "corner-raised": ("envelope", _first_corner_moved(1), {
        "h0-envelope-equality": 4, "envelope-orthogonality": 7}),
    "potential-nudged": ("potential_rows", _potential_nudged, {
        "tree-monge-ampere-solvability": 4}),
}


def _verify_all(out_dir):
    """The exit code of `navol verify-all --seed 0` and its FAIL rows per theorem."""
    rc = cli.main(["verify-all", "--seed", "0", "--out-dir", str(out_dir)])
    with open(out_dir / "verify_all.json", encoding="utf-8") as handle:
        reports = json.load(handle)["reports"]
    return rc, collections.Counter(r["theorem"] for r in reports if not r["passed"])


def test_the_unmutated_suite_passes(tmp_path, capsys):
    assert _verify_all(tmp_path) == (0, {})
    capsys.readouterr()


@pytest.mark.parametrize("label", sorted(MUTANTS))
def test_mutant_is_caught(label, monkeypatch, tmp_path, capsys):
    name, mutate, must_fail = MUTANTS[label]
    original = getattr(harness, name, None) or getattr(volumes, name)
    mutant = mutate(original)
    for module in (harness, volumes):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant)
    rc, failed = _verify_all(tmp_path)
    capsys.readouterr()
    for theorem, rows in must_fail.items():
        assert failed[theorem] >= rows, (label, theorem, dict(failed))
    assert rc == 1
