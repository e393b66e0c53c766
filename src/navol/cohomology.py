"""Exact sheaf cohomology tables for invariant divisors on a projective line
and on three smooth toric surface families, with asymptotic growth, Morse-type
upper bounds and twist-perturbation stability checks.

Supported families: P1 (Picard rank 1, curve), P2, and the Hirzebruch
surfaces F_a for a >= 0 (basis: a section S with S^2 = a and a fibre F);
P1xP1 is F_0 under its own name.
Each family is one branch of `ToricFamily.__init__`: its h^0 (a section
count in closed form), chi, lim n! h^0(mD)/m^n, K and intersection form.
One rule composes exact integer h^q and their exact rational limits alike:
h^top by Serre duality, the middle h^1 on surfaces by Riemann-Roch, 0 above n.

Everything runs on integers up to the reported values: a divisor rounds up
its (p, q) coefficients as -(-m p // q), h^q of an integral class is a few
closed-form counts, and the Morse and twist checks take their fitted
constants and verdicts by cross-multiplying integer numerators and positive
denominators, and write each reported rational from them with one gcd. The
surface checks return `harness.VerificationReport`s, as the toric checks do.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .harness import VerificationReport, _fit_window
from .rational import ZERO, frac, frac_str, point_str, ratio_str

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


def _kernels(h0: Callable, chi: Callable, canonical: Tuple[int, ...], dim: int):
    """(h^0, h^1, h^2) of a class as functions of its coordinates, and all
    three from one read of each section count: h^n = h^0(K - D) by Serre
    duality, h^1 = h^0 + h^2 - chi on a surface by Riemann-Roch, 0 above n.
    Given the limit of n! h^0(mD)/m^n for h0, D -> D.D for chi and K = 0
    (K is of lower order), the same rule composes the limits of n! h^q(mD)/m^n."""
    k0, k1 = canonical[0], canonical[-1]
    top = ((lambda d: h0(k0 - d)) if len(canonical) == 1 else
           (lambda p, f: h0(k0 - p, k1 - f)))
    if dim == 1:
        return (h0, top, lambda d: 0), lambda d: (h0(d), top(d), 0)

    def row(*cls: int) -> Tuple[int, int, int]:
        low, up = h0(*cls), top(*cls)
        return low, low + up - chi(*cls), up
    return (h0, lambda *cls: h0(*cls) + top(*cls) - chi(*cls), top), row


class ToricFamily:
    """One of the supported varieties, with its intersection form, h^q of an
    integral class cls as `hq_kernels[q](*cls)`, all three as `hq_row(*cls)`,
    and the limit of n! h^q(mD)/m^n of a rational class D as `limits[q](*D)`."""

    def __init__(self, name: str):
        name = name.strip()
        a = 0 if name == "P1xP1" else _hirzebruch_index(name)
        # each branch declares its family: h^0 of an integral class in closed
        # form, chi = 1 + D.(D - K)/2 by Riemann-Roch on a surface (D.(D - K)
        # is even), lead = lim n! h^0(mD)/m^n of a rational class, and the form
        if name == "P1":
            self.dim, self.rank, self.canonical, self.form = 1, 1, (-2,), None
            h0, chi = (lambda d: d + 1 if d >= 0 else 0), (lambda d: 1 + d)
            lead = lambda d: max(d, ZERO)
        elif name == "P2":
            self.dim, self.rank, self.canonical, self.form = 2, 1, (-3,), ((1,),)
            h0 = lambda d: (d + 1) * (d + 2) // 2 if d >= 0 else 0
            chi = lambda d: 1 + d * (d + 3) // 2
            lead = lambda d: d ** 2 if d >= 0 else ZERO
        elif a is not None:
            # P1xP1 is F_0: the same form, canonical class and section counts
            self.dim, self.rank, self.canonical = 2, 2, (-2, a - 2)
            self.form, self.hirzebruch_a = ((a, 1), (1, 0)), a
            chi = lambda p, f: 1 + a * p * (p + 1) // 2 + p * f + p + f

            def h0(p: int, f: int) -> int:
                # sum of max(0, a*y + f + 1) over 0 <= y <= p, nondecreasing as a >= 0:
                # an arithmetic series from its first positive term (a > 0 if past y = 0)
                if p < 0 or a * p + f + 1 <= 0:
                    return 0
                first = 0 if f + 1 > 0 else -(f + 1) // a + 1
                count = p - first + 1
                return count * (f + 1) + a * (first + p) * count // 2

            def lead(p: Fraction, f: Fraction) -> Fraction:
                # 2 times the integral of max(0, a*y + f) over 0 <= y <= p
                if p < 0 or (f < 0 and a * p + f <= 0):
                    return ZERO
                return 2 * p * f + a * p ** 2 if f >= 0 else (a * p + f) ** 2 / a
        else:
            raise PreconditionError(
                f"unsupported family {name!r}; use P1, P2, P1xP1 or Fa (a >= 0)")
        self.name, self._chi = name, chi
        self.hq_kernels, self.hq_row = _kernels(h0, chi, self.canonical, self.dim)
        self.limits, _ = _kernels(lead, lambda *d: self._pairing(d, d),
                                  (0,) * self.rank, self.dim)

    def __eq__(self, other) -> bool:
        return isinstance(other, ToricFamily) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"ToricFamily({self.name})"

    # -- intersection theory -------------------------------------------------
    def intersection(self, d1: Sequence, d2: Sequence) -> Fraction:
        """Intersection number of two (rational) classes on a surface; the
        curve P1 has no intersection form and is refused."""
        a, b = _as_class(d1, self.rank), _as_class(d2, self.rank)
        if self.dim == 1:
            raise PreconditionError("P1 is a curve: it has no intersection form")
        return self._pairing(a, b)

    def _pairing(self, a: Sequence, b: Sequence):
        """The intersection form of a surface on coordinates; ints give ints."""
        return sum(x * g * y for x, row in zip(a, self.form) for g, y in zip(row, b))

    def top_power(self, d: Sequence, e: Sequence, q: int) -> Fraction:
        """D^(n-q) . E^q as a rational number; on P1 the degree of D or E."""
        if self.dim == 1:
            return _as_class(d if q == 0 else e, 1)[0]
        return self.intersection(*((d, d) if q == 0 else (d, e) if q == 1 else (e, e)))

    def is_nef(self, d: Sequence) -> bool:
        return all(c >= 0 for c in _as_class(d, self.rank))

    # -- section counts ------------------------------------------------------
    def h0_integral(self, d: Sequence[int]) -> int:
        """Number of global sections of the line bundle of an integral class."""
        return self.hq_kernels[0](*map(int, d))

    def euler_characteristic(self, d: Sequence[int]) -> int:
        """chi of the line bundle of an integral class, by Riemann-Roch:
        1 + D.(D - K)/2 on a surface, where D.(D - K) is even."""
        return self._chi(*map(int, d))


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
    return family.hq_kernels[q](*divisor.round_up(m))


def _check_level(m: int, qs: Sequence[int]) -> None:
    if any(q not in (0, 1, 2) for q in qs):
        raise PreconditionError("q must be 0, 1 or 2")
    if m < 1:
        raise PreconditionError("level m must be >= 1")


@dataclass
class CohomologyTable:
    family: ToricFamily
    divisor: RealDivisor
    rows: List[Tuple[int, int, int, Fraction]]  # (m, q, h^q, normalized)

    def h1_all_nonnegative(self) -> bool:
        return all(h >= 0 for _, q, h, _ in self.rows if q == 1)

    def serre_consistent(self) -> bool:
        """h^n(mD) against h^n of the round-up, h^0 of K minus it by Serre
        duality. The table's h^n is that same expression, so this recomputes
        it and cannot fail; an independent route for h^n is ROADMAP item 14."""
        n = self.family.dim
        top = self.family.hq_kernels[n]
        return all(h == top(*self.divisor.round_up(m)) for m, q, h, _ in self.rows if q == n)


def cohomology_table(family: ToricFamily, divisor: RealDivisor,
                     schedule: Sequence[int],
                     qs: Optional[Sequence[int]] = None) -> CohomologyTable:
    """Rows (m, q, h^q(mD), n! h^q / m^n) for each level and each q (all q
    by default). A level rounds the class up once; one q reads its own
    kernel, and several share the section counts of the family's `hq_row`."""
    if qs is None:
        qs = tuple(range(family.dim + 1))
    n, rows = family.dim, []
    factorial = math.factorial(n)
    for m in schedule:
        _check_level(m, qs)
        cls = divisor.round_up(m)
        hs = family.hq_row(*cls) if len(qs) > 1 else None
        for q in qs:
            h = family.hq_kernels[q](*cls) if hs is None else hs[q]
            rows.append((m, q, h, Fraction(factorial * h, m ** n)))
    return CohomologyTable(family, divisor, rows)


def cohomology_consistency(family: ToricFamily, divisor: RealDivisor,
                           schedule: Sequence[int],
                           instance: str = "surface") -> VerificationReport:
    """The cohomology table of every q, checked for Serre consistency and
    nonnegative h^1."""
    start = time.monotonic()
    table = cohomology_table(family, divisor, schedule)
    serre, h1_ok = table.serre_consistent(), table.h1_all_nonnegative()
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
    """The limit of n! h^q(mD)/m^n for every rational class D, from the
    family's limits, composed as its kernels compose h^q."""
    _check_level(1, (q,))
    return frac(family.limits[q](*divisor.total()))


def morse_check(family: ToricFamily, d: RealDivisor, e: RealDivisor, q: int,
                schedule: Sequence[int],
                instance: str = "surface") -> VerificationReport:
    """Upper bound h^q(m(D-E)) <= binom(n,q) D^(n-q).E^q m^n/n! + C m^(n-1)
    for nef D, E; C is fitted on the first half of the schedule and the bound
    is verified with that C on the second half. The series rows are
    (m, h^q, bound, margin = bound - h^q).

    With leading = a/b, the main term is a m^n / (b n!) and every quantity
    is an integer numerator over a positive integer denominator, compared
    by cross-multiplication and written with one gcd per value."""
    start = time.monotonic()
    for div, label in ((d, "D"), (e, "E")):
        if not family.is_nef(div.total()):
            raise PreconditionError(f"{label} = {div.total()} is not nef on {family.name}")
    n = family.dim
    leading = math.comb(n, q) * family.top_power(d.total(), e.total(), q)
    a, b = leading.numerator, leading.denominator * math.factorial(n)
    diff = d.minus(e)
    schedule = list(schedule)
    half = _fit_window(len(schedule), None)
    _check_level(min(schedule), (q,))
    values = [(m, family.hq_kernels[q](*diff.round_up(m))) for m in schedule]
    # fitted = c / f: the largest (h - main) / m^(n-1) on the first half, or 0
    c, f = 0, 1
    for m, h in values[:half]:
        excess, over = h * b - a * m ** n, b * m ** (n - 1)
        if excess * f > c * over:
            c, f = excess, over
    series = [("m", "h", "bound", "margin")]
    passed, bf = True, b * f
    for idx, (m, h) in enumerate(values):
        # bound = upper / (b f), margin = bound - h
        upper = a * m ** n * f + c * m ** (n - 1) * b
        margin = upper - h * bf
        series.append((str(m), str(h), ratio_str(upper, bf), ratio_str(margin, bf)))
        passed = passed and (idx < half or margin >= 0)
    return VerificationReport(
        theorem="cohomology-morse-bound", instance=instance, passed=passed,
        exact={"q": str(q), "leading": frac_str(leading),
               "fitted_constant": ratio_str(c, f)},
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
    _check_level(1, (q,))
    a = RealDivisor(family, tuple(t for d in d_list for t in d.terms))
    b = RealDivisor(family, tuple(t for d in p_list for t in d.terms))
    n = family.dim
    kernel = family.hq_kernels[q]
    a_up = [a.round_up(m) for m in range(grid_max + 1)]
    # diffs[p - 1][m] = |h^q(mA + pB) - h^q(pB)|; fitted = c / f, the largest
    # ratio to m (m+p)^(n-1) with m >= 1, m + p <= grid_max, by cross-multiplication
    diffs, c, f = [], 0, 1
    for p in range(1, grid_max + 1):
        b_up = b.round_up(p)
        y0, y1, plain = b_up[0], b_up[-1], kernel(*b_up)
        row = ([abs(kernel(x + y0) - plain) for (x,) in a_up] if family.rank == 1
               else [abs(kernel(x + y0, y + y1) - plain) for x, y in a_up])
        for m in range(1, grid_max - p + 1):
            if row[m] * f > c * m * (m + p) ** (n - 1):
                c, f = row[m], m * (m + p) ** (n - 1)
        diffs.append(row)
    g = math.gcd(c, f)
    c, f = c // g, f // g
    series = [("m", "p", "difference", "bound")]
    passed = True
    for p, row in enumerate(diffs, 1):
        for m, lhs in enumerate(row):
            bound = c * m * (m + p) ** (n - 1)
            series.append((str(m), str(p), str(lhs), ratio_str(bound, f)))
            passed = passed and lhs * f <= bound
    return VerificationReport(
        theorem="cohomology-twist-stability", instance=instance, passed=passed,
        exact={"q": str(q), "fitted_constant": ratio_str(c, f)},
        series=series, runtime=time.monotonic() - start)
