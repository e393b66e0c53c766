"""Discrete Monge-Ampere measures, mixed measures and the energy pairing.

The measure of a semipositive metric places an atom at each vertex of the
linearity complex; the mass is n! times the volume of the subdifferential
there (the cell of the dual subdivision of P), so the total mass is n!vol(P)
exactly. MA is multilinear on the semipositive metrics of one polytope, so a
mixed measure is polarized through the midpoint metric on that same
polytope, never through a Minkowski sum.
The energy is the roof-integral gap n!(integral of psi2* - integral of psi1*)
over P (Burgos-Philippon-Sombra's height formula), not a polarization; on
any two metrics it is the energy of their envelopes (envelope_energy).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import PreconditionError
from .plmetric import PLMetric, envelope, is_semipositive, legendre
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
    """Mixed measure MA(phi_1, ..., phi_n) of n semipositive metrics on one
    polytope (n = dimension).

    On the line it is MA(phi_1). On a surface, MA is a symmetric bilinear
    form in (phi0, phi1) with MA(phi, phi) = MA(phi), so the midpoint metric
    mid = (phi0 + phi1)/2 has
        MA(mid) = (MA(phi0) + 2 MA(phi0, phi1) + MA(phi1)) / 4,
    that is MA(phi0, phi1) = 2 MA(mid) - (MA(phi0) + MA(phi1)) / 2. A
    semipositive metric is its envelope, one convex block, and the sum of two
    convex max-of-affines blocks is the max of the pairwise sums of their
    pieces; so mid is one block of the averages ((s0 + s1)/2, (c0 + c1)/2),
    on P again, since its slopes hull to (P + P)/2 = P.
    """
    if not metrics:
        raise PreconditionError("mixed measure needs n metrics")
    P, n = metrics[0].polytope, metrics[0].dim
    if len(metrics) != n:
        raise PreconditionError(f"mixed measure needs exactly {n} metrics in dimension {n}")
    for m in metrics:
        if m.polytope != P:
            raise PreconditionError("mixed measure needs metrics on the same polytope")
        if not is_semipositive(m):
            raise PreconditionError("mixed measure needs semipositive metrics")
    if n == 1:
        return monge_ampere(metrics[0])
    (b0,), (b1,) = (envelope(m).blocks for m in metrics)
    half = Fraction(1, 2)
    mid = PLMetric(P, [[(tuple((x + y) * half for x, y in zip(s0, s1)), (c0 + c1) * half)
                        for s0, c0 in b0 for s1, c1 in b1]])
    atoms = [(key, 2 * mass) for key, mass in monge_ampere(mid).atoms.items()]
    atoms += [(key, -mass * half) for m in metrics for key, mass in monge_ampere(m).atoms.items()]
    return DiscreteMeasure(atoms)


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
