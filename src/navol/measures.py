"""Discrete Monge-Ampere measures, mixed measures and the energy pairing.

The measure of a semipositive metric places an atom at each vertex of the
linearity complex; the mass is n! times the volume of the subdifferential
there (the cell of the dual subdivision of P), so the total mass is n!vol(P)
exactly. Mixed measures come from polarization over sums of subsets; signed
intermediate combinations are plain dictionaries, never exposed.
The energy is the roof-integral gap n!(integral of psi2* - integral of psi1*)
over P (Burgos-Philippon-Sombra's height formula), not a polarization; on
any two metrics it is the energy of their envelopes (envelope_energy).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import PreconditionError
from .plmetric import PLMetric, is_semipositive, legendre, metric_sum
from .rational import ZERO, frac

AtomKey = Hashable


class DiscreteMeasure:
    """Finitely supported measure; atom keys are points or vertex ids."""

    def __init__(self, atoms: Union[Mapping[AtomKey, Fraction],
                                    Iterable[Tuple[AtomKey, Fraction]]]):
        items = atoms.items() if isinstance(atoms, Mapping) else atoms
        merged: Dict[AtomKey, Fraction] = {}
        for key, mass in items:
            mass = frac(mass)
            merged[key] = merged[key] + mass if key in merged else mass
        self.atoms: Dict[AtomKey, Fraction] = {
            k: v for k, v in merged.items() if v != 0}

    @property
    def total_mass(self) -> Fraction:
        return sum(self.atoms.values(), ZERO)

    def integrate(self, f: Callable[[AtomKey], Fraction]) -> Fraction:
        acc = ZERO
        for key, mass in self.atoms.items():
            acc += frac(f(key)) * mass
        return acc

    def items_sorted(self) -> List[Tuple[AtomKey, Fraction]]:
        return sorted(self.atoms.items(), key=lambda kv: _atom_sort_key(kv[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteMeasure) and self.atoms == other.atoms

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}: {v}" for k, v in self.items_sorted())
        return f"DiscreteMeasure({parts})"


def _atom_sort_key(key: AtomKey):
    if isinstance(key, tuple):
        return (0, tuple(key))
    return (1, str(key))


def monge_ampere(metric: PLMetric) -> DiscreteMeasure:
    """Discrete Monge-Ampere measure of a semipositive metric.

    Computed through the duality between the complex of psi and the cell
    subdivision of P induced by the conjugate roof g = psi*: the complex
    vertex dual to a full-dimensional cell of g is the slope of g there, and
    its mass is n! times the cell volume. Total mass is n!vol(P) because the
    cells partition P.
    """
    if not is_semipositive(metric):
        raise PreconditionError("monge_ampere needs a semipositive metric")
    roof = legendre(metric)
    scale, rows = roof.integer_rows()
    return DiscreteMeasure((tuple(Fraction(x, scale) for x in rows[i][:-1]), mass)
                           for i, mass in roof.cell_masses())


def mixed_monge_ampere(metrics: Sequence[PLMetric]) -> DiscreteMeasure:
    """Polarized mixed measure of n semipositive metrics (n = dimension):
    (1/n!) sum over nonempty subsets S of (-1)^(n-|S|) MA(sum over S)."""
    if not metrics:
        raise PreconditionError("mixed measure needs n metrics")
    n = metrics[0].dim
    if len(metrics) != n:
        raise PreconditionError(f"mixed measure needs exactly {n} metrics in dimension {n}")
    for m in metrics:
        if m.dim != n:
            raise PreconditionError("mixed measure needs equal ambient dimension")
        if not is_semipositive(m):
            raise PreconditionError("mixed measure needs semipositive metrics")
    if n == 1:
        return monge_ampere(metrics[0])
    factorial = math.factorial(n)
    combo: Dict[AtomKey, Fraction] = {}
    for size in range(1, n + 1):
        sign = (-1) ** (n - size)
        for subset in itertools.combinations(range(n), size):
            total = metrics[subset[0]]
            for idx in subset[1:]:
                total = metric_sum(total, metrics[idx])
            for key, mass in monge_ampere(total).atoms.items():
                combo[key] = combo.get(key, ZERO) + sign * mass
    return DiscreteMeasure({k: v / factorial for k, v in combo.items()})


def envelope_energy(m1: PLMetric, m2: PLMetric) -> Fraction:
    """E(P(m1), P(m2)) = n!(integral of psi2* - integral of psi1*) over P (0
    if P is not full-dimensional) for any two metrics on one polytope. No
    envelope is needed: an envelope's conjugate is its metric's roof cut down
    to the pieces that own a cell, the same function on P."""
    if m1.polytope != m2.polytope:
        raise PreconditionError("energy needs metrics on the same polytope")
    return math.factorial(m1.dim) * (legendre(m2).integral() - legendre(m1).integral())


def energy(m1: PLMetric, m2: PLMetric) -> Fraction:
    """Energy pairing of two semipositive metrics on the same polytope, as
    n!(integral of psi2* - integral of psi1*) over P (0 if P is not
    full-dimensional); equal to the polarized mixed-measure pairing."""
    if not (is_semipositive(m1) and is_semipositive(m2)):
        raise PreconditionError("energy needs semipositive metrics")
    return envelope_energy(m1, m2)
