"""Exact sheaf cohomology tables for invariant divisors on a projective line
and on three smooth toric surface families, with asymptotic growth, Morse-type
upper bounds and twist-perturbation stability checks.

Supported families: P1 (Picard rank 1, curve), P2, and the Hirzebruch
surfaces F_a for a >= 0 (basis: a section S with S^2 = a and a fibre F);
P1xP1 is F_0 under its own name.
h^0 is a lattice-point / section count in closed form, h^top comes from Serre
duality, and the middle h^1 on surfaces is determined by Riemann-Roch; all
values are exact integers. One evaluator gives every h^q from h^0 of the class
and of its Serre dual, each computed only if some requested q reads it; the
limit of n! h^q(mD)/m^n, from those closed forms' leading terms, likewise.

Everything runs on integers up to the reported values: a divisor rounds up
its (p, q) coefficients as -(-m p // q), h^q of an integral class is a few
closed-form counts, and the Morse and twist checks take their fitted
constants and verdicts by cross-multiplying integer numerators and positive
denominators. Each reported rational is built as one Fraction. The surface
checks return `harness.VerificationReport`s, as the toric checks do.
"""
from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .harness import VerificationReport, _fit_window
from .rational import ZERO, frac, frac_str, point_str

# defaults for the CLI's cohomology and morse-check commands and verify-all
COHOMOLOGY_SCHEDULE = tuple(range(1, 11))
MORSE_SCHEDULE = tuple(range(1, 51))
MORSE_Q = 1

Class = Tuple[Fraction, ...]


def _as_class(data: Sequence, rank: int) -> Class:
    cls = tuple(frac(c) for c in data)
    if len(cls) != rank:
        raise PreconditionError(f"divisor class needs {rank} coordinates, got {len(cls)}")
    return cls


def _hirzebruch_index(name: str) -> Optional[int]:
    """a for a family name Fa, a in ASCII digits that int() converts; else None."""
    digits = name[1:]
    try:
        return int(digits) if name[:1] == "F" and digits.isascii() and digits.isdigit() else None
    except ValueError:   # more digits than sys.get_int_max_str_digits()
        return None


class ToricFamily:
    """One of the supported varieties, with its intersection theory and
    closed-form section counts."""

    def __init__(self, name: str):
        name = name.strip()
        a = 0 if name == "P1xP1" else _hirzebruch_index(name)
        if name == "P1":
            self.dim, self.rank = 1, 1
            self.canonical = (-2,)
        elif name == "P2":
            self.dim, self.rank = 2, 1
            self.canonical = (-3,)
        elif a is not None:
            # P1xP1 is F_0: the same form, canonical class and section counts
            self.dim, self.rank = 2, 2
            self.hirzebruch_a = a
            self.canonical = (-2, self.hirzebruch_a - 2)
        else:
            raise PreconditionError(
                f"unsupported family {name!r}; use P1, P2, P1xP1 or Fa (a >= 0)")
        self.name = name

    def __eq__(self, other) -> bool:
        return isinstance(other, ToricFamily) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"ToricFamily({self.name})"

    # -- intersection theory -------------------------------------------------
    def intersection(self, d1: Sequence, d2: Sequence) -> Fraction:
        """Intersection number of two (rational) classes; degree product on P1."""
        a = _as_class(d1, self.rank)
        b = _as_class(d2, self.rank)
        if self.name == "P1":
            raise PreconditionError("P1 is a curve: it has no intersection form")
        return self._pairing(a, b)

    def _pairing(self, a: Sequence, b: Sequence):
        """The intersection form of a surface on coordinates; ints give ints."""
        if self.name == "P2":
            return a[0] * b[0]
        return self.hirzebruch_a * a[0] * b[0] + a[0] * b[1] + a[1] * b[0]

    def top_power(self, d: Sequence, e: Sequence, q: int) -> Fraction:
        """D^(n-q) . E^q as a rational number; on P1 the degree of D or E."""
        if self.name == "P1":
            return _as_class(d if q == 0 else e, 1)[0]
        if q == 0:
            return self.intersection(d, d)
        if q == 1:
            return self.intersection(d, e)
        return self.intersection(e, e)

    def is_nef(self, d: Sequence) -> bool:
        cls = _as_class(d, self.rank)
        return all(c >= 0 for c in cls)

    # -- section counts ------------------------------------------------------
    def h0_integral(self, d: Sequence[int]) -> int:
        """Number of global sections of the line bundle of an integral class."""
        cls = tuple(map(int, d))
        if self.name == "P1":
            (deg,) = cls
            return deg + 1 if deg >= 0 else 0
        if self.name == "P2":
            (deg,) = cls
            return (deg + 1) * (deg + 2) // 2 if deg >= 0 else 0
        # sum of max(0, h*y + q + 1) over 0 <= y <= p: h >= 0, so the terms
        # never decrease, and the sum is an arithmetic series from the first
        # positive term (h > 0 whenever that term is not the one at y = 0)
        p, q = cls
        h = self.hirzebruch_a
        if p < 0 or h * p + q + 1 <= 0:
            return 0
        first = 0 if q + 1 > 0 else -(q + 1) // h + 1
        count = p - first + 1
        return count * (q + 1) + h * (first + p) * count // 2

    def _h0_lead(self, d: Sequence[Fraction]) -> Fraction:
        """n! times the m^n coefficient of h^0(mD) for a rational class, read
        off the closed forms of h0_integral (on F_h, n! times the integral
        of max(0, h*y + q) over 0 <= y <= p)."""
        if self.name == "P1":
            return max(d[0], ZERO)
        if self.name == "P2":
            return d[0] ** 2 if d[0] >= 0 else ZERO
        p, q = d
        h = self.hirzebruch_a
        if p < 0 or (q < 0 and h * p + q <= 0):
            return ZERO
        return 2 * p * q + h * p ** 2 if q >= 0 else (h * p + q) ** 2 / h

    def serre_dual(self, cls: Sequence[int]) -> Tuple[int, ...]:
        """K minus an integral class: h^top of a class is h^0 of this."""
        return tuple(k - c for k, c in zip(self.canonical, cls))

    def euler_characteristic(self, d: Sequence[int]) -> int:
        """chi of the line bundle of an integral class, by Riemann-Roch:
        1 + D.(D - K)/2 on a surface, where D.(D - K) is even."""
        cls = tuple(map(int, d))
        if self.name == "P1":
            return cls[0] + 1
        return 1 + self._pairing(cls, [c - k for c, k in zip(cls, self.canonical)]) // 2


def toric_family(name: str) -> ToricFamily:
    return ToricFamily(name)


@dataclass(frozen=True)
class RealDivisor:
    """Rational-coefficient divisor with a chosen decomposition: a list of
    (rational coefficient, integral basis class) terms. Round-up is applied
    per term, so two decompositions of the same class may round differently."""
    family: ToricFamily
    terms: Tuple[Tuple[Fraction, Tuple[int, ...]], ...]

    @staticmethod
    def make(family: ToricFamily, terms: Sequence[Tuple[object, Sequence[int]]]
             ) -> "RealDivisor":
        packed = []
        for coeff, base in terms:
            cls = tuple(map(frac, base))
            if len(cls) != family.rank:
                raise PreconditionError(
                    f"basis divisor {point_str(cls)} needs {family.rank} coordinates")
            if any(c.denominator != 1 for c in cls):
                raise PreconditionError(f"basis divisor {point_str(cls)} is not integral")
            packed.append((frac(coeff), tuple(c.numerator for c in cls)))
        return RealDivisor(family, tuple(packed))

    @staticmethod
    def integral(family: ToricFamily, cls: Sequence[int]) -> "RealDivisor":
        return RealDivisor.make(family, [(1, cls)])

    def total(self) -> Class:
        acc = [ZERO] * self.family.rank
        for coeff, base in self.terms:
            for i, c in enumerate(base):
                acc[i] += coeff * c
        return tuple(acc)

    @functools.cached_property
    def _integer_terms(self) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
        """The terms as (p, q, basis class) for a coefficient p/q, q > 0."""
        return tuple((c.numerator, c.denominator, base) for c, base in self.terms)

    def round_up(self, m: int = 1) -> Tuple[int, ...]:
        """Integral class sum of ceil(m * a_i) * D_i over the decomposition,
        with ceil(m * p/q) = -(-m * p // q)."""
        acc = [0] * self.family.rank
        for p, q, base in self._integer_terms:
            scaled = -(-m * p // q)
            for i, c in enumerate(base):
                acc[i] += scaled * c
        return tuple(acc)

    def minus(self, other: "RealDivisor") -> "RealDivisor":
        if other.family != self.family:
            raise PreconditionError("divisors live on different families")
        return RealDivisor(self.family,
                           self.terms + tuple((-c, b) for c, b in other.terms))


def hq(family: ToricFamily, divisor: RealDivisor, m: int, q: int) -> int:
    """Exact h^q of the round-up of m times the divisor."""
    _check_level(m, (q,))
    return _hq_values(family, divisor.round_up(m), (q,))[0]


def _check_level(m: int, qs: Sequence[int]) -> None:
    if any(q not in (0, 1, 2) for q in qs):
        raise PreconditionError("q must be 0, 1 or 2")
    if m < 1:
        raise PreconditionError("level m must be >= 1")


def _hq_values(family: ToricFamily, cls: Sequence[int], qs: Sequence[int]) -> List[int]:
    """h^q of an integral class for each q in qs, from low = h^0 of the class
    and top = h^0 of its Serre dual, each computed only if read: h^0 is low,
    h^top is top by Serre duality, h^1 on a surface is low + top - chi by
    Riemann-Roch, and h^q vanishes above the dimension n. On a curve q = 0
    reads low and q = 1 reads top; on a surface q = 1 reads both."""
    n = family.dim
    low = family.h0_integral(cls) if 0 in qs or (n == 2 and 1 in qs) else 0
    top = family.h0_integral(family.serre_dual(cls)) if 1 in qs or n in qs else 0
    return [low if q == 0 else
            0 if q > n else
            top if q == n else
            low + top - family.euler_characteristic(cls)
            for q in qs]


@dataclass
class CohomologyTable:
    family: ToricFamily
    divisor: RealDivisor
    rows: List[Tuple[int, int, int, Fraction]]  # (m, q, h^q, normalized)

    def h1_all_nonnegative(self) -> bool:
        return all(h >= 0 for _, q, h, _ in self.rows if q == 1)

    def serre_consistent(self) -> bool:
        """h^n(mD) recomputed independently as h^0 of K minus the round-up."""
        fam = self.family
        top = fam.dim
        for m, q, h, _ in self.rows:
            if q != top:
                continue
            if h != fam.h0_integral(fam.serre_dual(self.divisor.round_up(m))):
                return False
        return True


def cohomology_table(family: ToricFamily, divisor: RealDivisor,
                     schedule: Sequence[int],
                     qs: Optional[Sequence[int]] = None) -> CohomologyTable:
    """Rows (m, q, h^q(mD), n! h^q / m^n) for each level and each q (all q
    by default). A level rounds the class up once, and its rows share the
    section counts of `_hq_values`."""
    if qs is None:
        qs = tuple(range(family.dim + 1))
    n = family.dim
    factorial = math.factorial(n)
    rows = []
    for m in schedule:
        _check_level(m, qs)
        for q, h in zip(qs, _hq_values(family, divisor.round_up(m), qs)):
            rows.append((m, q, h, Fraction(factorial * h, m ** n)))
    return CohomologyTable(family, divisor, rows)


def cohomology_consistency(family: ToricFamily, divisor: RealDivisor,
                           schedule: Sequence[int],
                           instance: str = "surface") -> VerificationReport:
    """The cohomology table of every q, checked for Serre consistency and
    nonnegative h^1."""
    start = time.monotonic()
    table = cohomology_table(family, divisor, schedule)
    serre = table.serre_consistent()
    h1_ok = table.h1_all_nonnegative()
    return VerificationReport(
        theorem="cohomology-consistency", instance=instance,
        passed=serre and h1_ok,
        exact={"serre_consistent": str(serre), "h1_all_nonnegative": str(h1_ok)},
        series=[("m", "q", "h", "normalized")] + [
            (str(m), str(q), str(h), frac_str(norm)) for m, q, h, norm in table.rows],
        runtime=time.monotonic() - start)


@dataclass
class AsymptoticReport:
    q: int
    rows: List[Tuple[int, int, Fraction]]  # (m, h^q, normalized)
    estimate: Fraction
    exact: Fraction


def asymptotic_hq(family: ToricFamily, divisor: RealDivisor, q: int,
                  schedule: Sequence[int]) -> AsymptoticReport:
    """Normalized series h^q(mD) n!/m^n, with its exact limit as m grows
    (`asymptotic_hq_exact`) and the last row's value as the estimate."""
    if list(schedule) != sorted(set(schedule)) or not schedule:
        raise PreconditionError("schedule must be strictly increasing and nonempty")
    rows = [(m, h, norm) for m, _, h, norm
            in cohomology_table(family, divisor, schedule, (q,)).rows]
    return AsymptoticReport(q=q, rows=rows, estimate=rows[-1][2],
                            exact=asymptotic_hq_exact(family, divisor, q))


def asymptotic_hq_exact(family: ToricFamily, divisor: RealDivisor,
                        q: int) -> Fraction:
    """The limit of n! h^q(mD)/m^n for every rational class D, composed as
    `_hq_values` composes h^q from low = lim n! h^0(mD)/m^n and top = that of
    -D: low for q = 0, top for q = n by Serre duality (K is of lower order),
    low + top - D^2 for h^1 on a surface by Riemann-Roch, 0 above n."""
    _check_level(1, (q,))
    total = divisor.total()
    n = family.dim
    low = family._h0_lead(total)
    top = family._h0_lead(tuple(-c for c in total))
    return (low if q == 0 else
            ZERO if q > n else
            top if q == n else
            low + top - family._pairing(total, total))


def morse_check(family: ToricFamily, d: RealDivisor, e: RealDivisor, q: int,
                schedule: Sequence[int],
                instance: str = "surface") -> VerificationReport:
    """Upper bound h^q(m(D-E)) <= binom(n,q) D^(n-q).E^q m^n/n! + C m^(n-1)
    for nef D, E; C is fitted on the first half of the schedule and the bound
    is verified with that C on the second half. The series rows are
    (m, h^q, bound, margin = bound - h^q).

    With leading = a/b, the main term is a m^n / (b n!) and every quantity
    is an integer numerator over a positive integer denominator, compared
    by cross-multiplication; each reported value is one Fraction."""
    start = time.monotonic()
    for div, label in ((d, "D"), (e, "E")):
        if not family.is_nef(div.total()):
            raise PreconditionError(f"{label} = {div.total()} is not nef on {family.name}")
    n = family.dim
    leading = math.comb(n, q) * family.top_power(d.total(), e.total(), q)
    a, b = leading.numerator, leading.denominator * math.factorial(n)
    diff = d.minus(e)
    schedule = list(schedule)
    half = _fit_window(len(schedule), None, 2)
    values = [(m, hq(family, diff, m, q)) for m in schedule]
    # fitted = c / f: the largest (h - main) / m^(n-1) on the first half, or 0
    c, f = 0, 1
    for m, h in values[:half]:
        excess, over = h * b - a * m ** n, b * m ** (n - 1)
        if excess * f > c * over:
            c, f = excess, over
    series = [("m", "h", "bound", "margin")]
    passed = True
    for idx, (m, h) in enumerate(values):
        # bound = upper / (b f), margin = bound - h
        upper = a * m ** n * f + c * m ** (n - 1) * b
        margin = upper - h * b * f
        series.append((str(m), str(h), frac_str(Fraction(upper, b * f)),
                       frac_str(Fraction(margin, b * f))))
        if idx >= half and margin < 0:
            passed = False
    return VerificationReport(
        theorem="cohomology-morse-bound", instance=instance, passed=passed,
        exact={"q": str(q), "leading": frac_str(leading),
               "fitted_constant": frac_str(Fraction(c, f))},
        series=series, runtime=time.monotonic() - start)


def perturbation_scan(family: ToricFamily, d_list: Sequence[RealDivisor],
                      p_list: Sequence[RealDivisor], q: int,
                      grid_max: int, instance: str = "surface") -> VerificationReport:
    """Twist stability |h^q(mA + pB) - h^q(pB)| <= C m (m+p)^(n-1), probing
    the diagonal A = sum of d_list, B = sum of p_list over the full grid
    0 <= m <= grid_max, 1 <= p <= grid_max; C is fitted on the half of the
    grid with m + p <= grid_max and verified on the rest. Round-up is per
    term, so mA + pB rounds up to a.round_up(m) + b.round_up(p). The series
    rows are (m, p, difference, bound)."""
    start = time.monotonic()
    if not d_list or not p_list:
        raise PreconditionError("perturbation scan needs nonempty divisor lists")
    a = RealDivisor(family, tuple(t for d in d_list for t in d.terms))
    b = RealDivisor(family, tuple(t for d in p_list for t in d.terms))
    n = family.dim
    a_up = [a.round_up(m) for m in range(grid_max + 1)]
    cells = []  # (m, p, |h^q(mA + pB) - h^q(pB)|, m (m+p)^(n-1))
    for p in range(1, grid_max + 1):
        b_up = b.round_up(p)
        plain = _hq_values(family, b_up, (q,))[0]
        for m in range(grid_max + 1):
            twisted = _hq_values(family, tuple(map(operator.add, a_up[m], b_up)), (q,))[0]
            cells.append((m, p, abs(twisted - plain), m * (m + p) ** (n - 1)))
    # fitted = c / f, compared with each cell's ratio by cross-multiplication
    c, f = 0, 1
    for m, p, lhs, weight in cells:
        if m and m + p <= grid_max and lhs * f > c * weight:
            c, f = lhs, weight
    series = [("m", "p", "difference", "bound")]
    passed = True
    for m, p, lhs, weight in cells:
        series.append((str(m), str(p), str(lhs), frac_str(Fraction(c * weight, f))))
        if lhs * f > c * weight:
            passed = False
    return VerificationReport(
        theorem="cohomology-twist-stability", instance=instance, passed=passed,
        exact={"q": str(q), "fitted_constant": frac_str(Fraction(c, f))},
        series=series, runtime=time.monotonic() - start)
