"""Seeded inputs, timed ops and output checks of the three workloads.

A workload is a *deck*: a fixed list of slots, each one op on its own inputs.
The benchmark cycles through the deck in a closed loop.

Inputs are built here from raw rationals, never from `navol.harness.random_*`,
so a change to the package cannot shift them. They come in two layers:

  catalogue   fixed random streams, one per slot group (`catalogue_rng`):
              polygon, level schedule, branch count and base constants of
              each slot, tree shapes, surface classes. They fix the
              combinatorial type of every input, hence the work each op does.
  seed        the `--seed` draw (`seeded`): per slot one integer scale lam
              for all of the slot's constants, one constant shift per metric,
              and the choices the catalogue leaves open (shift t, oracle
              level, checked eps, tree masses, surface coefficients).

Scaling every constant of a slot by lam > 0 and shifting each metric by a
constant changes every exact output but not the combinatorial type (lower
hulls, roof cells, envelope contact sets, arrangement points): the Legendre
conjugate scales by lam and moves by the shift. Drawing the combinatorial
types afresh from each seed instead made one 2-d diff-check cost anywhere
from 0.8 to 3.2 s, and moved a run's latency quantiles by 20-35 % of their
median between seeds; with the catalogue, every seed runs the same mix of
work.

Every op builds fresh `Polytope`/`PLMetric` objects from the raw data, so the
per-object conjugate and envelope caches start cold on every execution, as
they do for a user who loads a new instance.

A slot has three parts:
  run()          the timed op; it looks navol functions up on their modules
                 at call time, so the tracer's wrappers are seen;
  summary(res)   (passed, exact text): the report's verdict and its exact
                 outputs, rationals written p/q;
  check(res)     problems found by an independent route (brute-force oracle,
                 roof integral, exit code); run once per slot, untimed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, List, Sequence, Tuple

# The box scan keeps about 1, 1/2 and 3/4 of its candidates on these.
POLYGONS = {
    "square": ((0, 0), (1, 0), (1, 1), (0, 1)),
    "triangle": ((0, 0), (1, 0), (0, 1)),
    "hexagon": ((1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)),
}
EPS = tuple(Fraction(1, 2 ** k) for k in range(1, 6))   # 1/2 .. 1/32
SHIFTS = (Fraction(1), Fraction(1, 2), Fraction(-2))

Raw = List[List[Tuple[Tuple[Fraction, ...], Fraction]]]   # blocks of (slope, constant)


@dataclass
class Slot:
    name: str
    run: Callable[[], object]
    summary: Callable[[object], Tuple[bool, str]]
    check: Callable[[object], List[str]]


def q(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def catalogue_rng(*key) -> random.Random:
    """Fixed stream per slot group, so resizing one group leaves the
    others' inputs unchanged."""
    return random.Random("/".join(map(str, ("catalogue",) + key)))


# -- raw rationals ----------------------------------------------------------------

def rational(rng: random.Random, den_max: int, size: int) -> Fraction:
    den = rng.randint(1, den_max)
    return Fraction(rng.randint(-size * den, size * den), den)


def vertices(shape: str) -> Tuple[Tuple[Fraction, ...], ...]:
    if shape.startswith("segment"):
        return ((Fraction(0),), (Fraction(int(shape[len("segment"):])),))
    return tuple(tuple(Fraction(c) for c in v) for v in POLYGONS[shape])


def raw_metric(rng: random.Random, shape: str, branches: int, size: int = 2) -> Raw:
    """min of `branches` convex blocks; every block carries each vertex of
    the polytope as a slope (as a valid metric must). On segments, blocks
    also get one or two interior slopes, so 1-d roofs have more pieces."""
    verts = vertices(shape)
    blocks = []
    for _ in range(branches):
        slopes = list(verts)
        if len(verts[0]) == 1:
            for _ in range(rng.randint(1, 2)):
                slopes.append((Fraction(rng.randint(1, 7), 8) * verts[1][0],))
        blocks.append([(s, rational(rng, 4, size)) for s in slopes])
    return blocks


def perturbed(rng: random.Random, blocks: Raw) -> Raw:
    """Same slopes, each constant moved by at most 1/2."""
    return [[(s, c + rational(rng, 4, 1) / 2) for s, c in block] for block in blocks]


def seeded(rng: random.Random, *groups: Sequence[Raw]) -> List[Raw]:
    """The seed's copy of a slot's metrics: every constant times one integer
    lam in 1..3, plus one shift in {-2, -3/2, ..., 2} per group of metrics.
    Neither grows the catalogue's denominators by more than a factor 2; their
    size drives the cost of exact arithmetic."""
    lam = rng.randint(1, 3)
    out = []
    for group in groups:
        shift = Fraction(rng.randint(-4, 4), 2)
        out.extend([[(s, lam * c + shift) for s, c in block] for block in blocks]
                   for blocks in group)
    return out


def report_text(rep) -> str:
    exact = ";".join(f"{k}={v}" for k, v in sorted(rep.exact.items()))
    series = " ".join(",".join(row) for row in rep.series)
    return f"{rep.theorem} {'pass' if rep.passed else 'FAIL'} {exact} {series}"


# -- lattice-sweep ------------------------------------------------------------------

# (kind, shape, branches, schedule, copies). 2-d levels stop at m = 200: one
# 2-d call at m = 1000 takes about 10 s. Hexagon metrics are single-branch,
# which keeps its conjugates and energies a small share of the op.
LATTICE_2D = [
    ("navol", "square", 2, (100, 200), 2), ("navol", "triangle", 2, (100, 200), 2),
    ("navol", "hexagon", 1, (50, 100), 1),
    ("h0", "square", 3, (150,), 2), ("h0", "triangle", 2, (200,), 2),
    ("h0", "hexagon", 1, (80,), 1),
    ("prop", "square", 2, (100,), 1), ("prop", "triangle", 3, (150,), 2),
    ("prop", "hexagon", 1, (60,), 1),
    ("lip", "square", 1, (100,), 1), ("lip", "triangle", 2, (120,), 1),
    ("lip", "hexagon", 1, (50,), 1),
]
LATTICE_1D = [
    (kind, f"segment{length}", branches, levels, 5)
    for length, branches in ((1, 1), (2, 2), (3, 3))
    for kind, levels in (("navol", (500, 1000, 2000)), ("h0", (1000, 2000)),
                         ("prop", (500, 1500)), ("lip", (500, 1500)))
]


def lattice_deck(rng: random.Random, N) -> List[Slot]:
    from _oracles import lattice_length_oracle   # read-only brute force

    slots = []
    for kind, shape, branches, schedule, copies in LATTICE_2D + LATTICE_1D:
        cat = catalogue_rng("lattice-sweep", kind, shape)
        for copy in range(copies):
            a = raw_metric(cat, shape, branches)
            b = raw_metric(cat, shape, branches)
            a, a_alt, b = seeded(rng, [a, perturbed(cat, a)], [b])
            dim = len(vertices(shape)[0])
            t = rng.choice(SHIFTS)
            # the brute-force check runs on every 2-d slot and on a seeded
            # quarter of the 1-d ones
            small_m = rng.choice((3, 4, 5, 6) if dim == 2 else (10, 17, 24))
            checked = dim == 2 or rng.random() < 0.25
            name = f"{kind}-{shape}-m{'-'.join(map(str, schedule))}-{copy}"
            slots.append(Slot(name, *_lattice_slot(
                N, kind, vertices(shape), a, b, a_alt, t, list(schedule),
                small_m if checked else None, lattice_length_oracle)))
    return slots


def _lattice_slot(N, kind, verts, a, b, a_alt, t, schedule, small_m, oracle):
    def build(*raws):
        P = N.polytope.Polytope.from_points(verts)
        return [N.plmetric.PLMetric(P, r) for r in raws]

    def run():
        if kind == "navol":
            return N.volumes.navol(*build(a, b), schedule)
        if kind == "h0":
            return N.harness.verify_h0_envelope_equality(*build(a), schedule)
        if kind == "prop":
            return N.volumes.proportionality_check(*build(a, b), t, schedule)
        return N.volumes.lipschitz_check(*build(a, a_alt, b), schedule)

    def summary(res):
        if kind == "navol":
            rows = " ".join(f"{r.m}:{r.length}:{q(r.normalized)}" for r in res.rows)
            return True, f"{rows} exact={q(res.exact)} gap={q(res.max_gap)}"
        if kind == "h0":
            return res.passed, report_text(res)
        rows = " ".join(":".join(map(str, r)) for r in res.rows)
        if kind == "prop":
            return res.passed, f"t={q(res.shift)} {rows} exact_rows={res.exact_rows}"
        return res.passed, (f"d={q(res.distance)} {rows} "
                            f"{q(res.limit_lhs)}<={q(res.limit_rhs)}")

    def check(res):
        # lattice_length at a seeded small level against brute force; for the
        # h0 op the partner is the envelope the op compared against.
        if small_m is None:
            return []
        first, second = build(a, b)
        if kind == "h0":
            second = N.plmetric.envelope(first)
        got = N.volumes.lattice_length(first, second, small_m)
        want = oracle(first.blocks, second.blocks, small_m, verts)
        if got != want:
            return [f"lattice_length at m={small_m}: {got} != oracle {want}"]
        return []

    return run, summary, check


# -- deform-energy -------------------------------------------------------------------

# (kind, shape, branches, copies); `diff` takes single-branch psi, pos and neg.
DEFORM_TABLE = [
    ("diff", "square", 1, 1), ("diff", "triangle", 1, 12), ("diff", "segment2", 1, 7),
    ("energy", "square", 2, 7), ("energy", "triangle", 3, 16), ("energy", "segment3", 3, 6),
    ("ortho", "square", 2, 7), ("ortho", "triangle", 3, 14), ("ortho", "segment1", 3, 7),
]


def deform_deck(rng: random.Random, N) -> List[Slot]:
    slots = []
    for kind, shape, branches, copies in DEFORM_TABLE:
        cat = catalogue_rng("deform-energy", kind, shape)
        for copy in range(copies):
            if kind == "diff":
                templates = (raw_metric(cat, shape, 1), raw_metric(cat, shape, 1, size=1),
                             raw_metric(cat, shape, 1, size=1))
            else:
                templates = tuple(raw_metric(cat, shape, branches)
                                  for _ in range(2 if kind == "energy" else 1))
            raws = seeded(rng, *([t] for t in templates))
            slots.append(Slot(f"{kind}-{shape}-{copy}",
                              *_deform_slot(N, kind, vertices(shape), raws, rng)))
    return slots


def _deform_slot(N, kind, verts, raws, rng):
    n_fact = factorial(len(verts[0]))
    checked_eps = rng.choice(EPS)

    def build():
        P = N.polytope.Polytope.from_points(verts)
        return [N.plmetric.PLMetric(P, r) for r in raws]

    def run():
        if kind == "diff":
            return N.harness.verify_differentiability(*build(), EPS)
        if kind == "energy":
            a, b = build()
            return N.measures.energy(N.plmetric.envelope(a), N.plmetric.envelope(b))
        return N.harness.verify_orthogonality(*build())

    def summary(res):
        if kind == "energy":
            return True, q(res)
        return res.passed, report_text(res)

    def roof_gap(lower, upper) -> Fraction:
        """n! (integral of upper* - integral of lower*) over P: the energy of
        the pair of envelopes by the roof-function route (a metric and its
        envelope have the same conjugate)."""
        legendre = N.plmetric.legendre
        return n_fact * (legendre(upper).integral() - legendre(lower).integral())

    def check(res):
        if kind == "energy":
            want = roof_gap(*build())
            return [] if res == want else [f"energy {q(res)} != roof gap {q(want)}"]
        if kind == "diff":
            # the volume at one seeded eps, as energy(envelope(deformed), psi)
            vol = next(Fraction(v) for e, v, _ in res.series[1:] if Fraction(e) == checked_eps)
            psi, pos, neg = build()
            want = roof_gap(N.plmetric.metric_deform(psi, checked_eps, pos, neg), psi)
            return [] if vol == want else [
                f"eps={q(checked_eps)}: volume {q(vol)} != roof gap {q(want)}"]
        return []

    return run, summary, check


# -- verify-all ---------------------------------------------------------------------------

VERIFY_DECK_SIZE = 12


def verify_instances(rng: random.Random) -> Dict[str, List[Tuple[str, dict]]]:
    """Instance files added to `navol verify-all`, by group; op i takes one
    file from each group, cycling, so every op reaches toric, tree and
    surface code. The groups hold no metric pairs: see README.md."""
    cat = catalogue_rng("verify-all")

    def metric_json(blocks):
        return [[{"slope": [q(c) for c in s], "constant": q(k)} for s, k in block]
                for block in blocks]

    def single(shape, branches, schedule):
        (psi,) = seeded(rng, [raw_metric(cat, shape, branches)])
        return {"kind": "toric", "polytope": [[q(c) for c in v] for v in vertices(shape)],
                "metrics": {"psi": metric_json(psi)}, "schedule": list(schedule)}

    def surface(family, rank, schedule, qq, grid):
        def divisor():
            base = Fraction(cat.randint(4, 12), cat.randint(1, 4))
            cls = [cat.randint(4, 12) for _ in range(rank)]
            return [{"coeff": q(base + Fraction(rng.randint(0, 3), 12)), "class": cls}]
        return {"kind": "surface", "family": family,
                "divisors": {"D": divisor(), "E": divisor()},
                "schedule": list(schedule), "q": qq,
                "scan": {"d": ["D"], "p": ["E"], "q": qq, "grid_max": grid}}

    return {
        "toric": [("single-segment3", single("segment3", 3, range(1, 41))),
                  ("single-triangle", single("triangle", 2, range(1, 11))),
                  ("single-square", single("square", 2, range(1, 9))),
                  ("single-segment2", single("segment2", 2, range(1, 61)))],
        "tree": [(f"tree-{n}", tree_instance(cat, rng, n)) for n in (400, 1500)],
        "surface": [("surface-P2", surface("P2", 1, range(1, 41), 2, 16)),
                    ("surface-P1xP1", surface("P1xP1", 2, range(1, 41), 1, 12)),
                    ("surface-F2", surface("F2", 2, range(1, 31), 1, 10))],
    }


def tree_instance(cat: random.Random, rng: random.Random, count: int) -> dict:
    """Random recursive tree (shape and edge lengths from the catalogue) with
    seeded target and base measures of equal total mass."""
    names = [f"v{i}" for i in range(count)]
    edges = [{"ends": [names[cat.randrange(i)], names[i]],
              "length": q(Fraction(cat.randint(1, 8), cat.randint(1, 4)))}
             for i in range(1, count)]
    target = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for v in names}
    base = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in names}
    base[names[0]] += sum(target.values()) - sum(base.values())
    return {"kind": "tree",
            "tree": {"vertices": names, "edges": edges, "root": names[0]},
            "measures": {
                "target": [{"vertex": v, "mass": q(m)} for v, m in target.items()],
                "base": [{"vertex": v, "mass": q(m)} for v, m in base.items()]}}


def write_instances(groups, directory: str) -> Dict[str, List[str]]:
    os.makedirs(directory, exist_ok=True)
    paths: Dict[str, List[str]] = {}
    for group, items in groups.items():
        paths[group] = []
        for name, payload in items:
            path = os.path.join(directory, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            paths[group].append(path)
    return paths


def verify_deck(rng: random.Random, N, paths: Dict[str, List[str]],
                out_dir: str) -> List[Slot]:
    """Op i runs `navol verify-all <one file per group> --seed i`: the
    bundled suite's seeds are the catalogue here (see README.md)."""
    slots = []
    for i in range(VERIFY_DECK_SIZE):
        extra = [paths[g][i % len(paths[g])] for g in ("toric", "tree", "surface")]
        label = "+".join(os.path.basename(p)[:-len(".json")] for p in extra)
        slots.append(Slot(f"verify-all-seed{i}-{label}",
                          *_verify_slot(N, extra, i, out_dir)))
    return slots


def _verify_slot(N, extra: Sequence[str], seed: int, out_dir: str):
    # Instance paths go before the options: with argparse's nargs="*",
    # `navol verify-all --seed 0 x.json` exits 2.
    argv = ["verify-all", *extra, "--seed", str(seed), "--out-dir", out_dir]

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return N.cli.main(argv)

    def summary(code):
        with open(os.path.join(out_dir, "verify_all.csv"), encoding="utf-8") as handle:
            body = "".join(line for line in handle if not line.startswith("#"))
        return code == 0, f"exit={code}\n{body}"

    def check(code):
        return [] if code == 0 else [f"verify-all exited {code}"]

    return run, summary, check
