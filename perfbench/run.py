"""navol benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload lattice-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout of the repository; the package is imported
from `src/` and the lattice oracle from `tests/_oracles.py`. The script

  1. sets up `SETUP_REPEATS` times (purge and import navol, build the deck
     from the seed, write instance files) and reports the median as setup_s;
  2. with --trace 0, makes `PASSES` whole passes over the deck with no think
     time (fewer if --seconds runs out, at least one) and reports
     throughput, latency quantiles over the deck's slots and peak memory;
     with --trace 1, makes one untraced pass, installs the tracer, makes up
     to `PASSES - 1` traced passes and reports per-layer metrics per pass;
     spans go to .perfbench_out/trace-<workload>-seed<n>.json;
  3. checks outputs: every report must PASS, every slot must repeat its
     first outputs exactly, and each slot is checked once against an
     independent route (see workloads.py).

Op and set-up times are normalized to a nominal machine speed (see
`speed_factor`). It prints one line per metric, the SHA-256 digest of the
first pass's exact outputs, and as its last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`. The digest depends only on
the seed: traced and untraced runs give the same one.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
# Every run makes the same number of passes over its deck unless --seconds
# runs out first, so that a slot's latency is always the median of as many
# executions.
PASSES = 3
WORKLOADS = ("lattice-sweep", "deform-energy", "verify-all")
MODULES = ("polytope", "plmetric", "measures", "volumes", "trees", "cohomology",
           "harness", "serialize", "cli")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# Timings are scaled to a calibration kernel that takes CAL_REFERENCE_S at
# the nominal speed; see `speed_factor`.
CAL_REFERENCE_S = 0.002

sys.path.insert(0, HERE)
import workloads   # noqa: E402
from tracer import Tracer, per_layer_specs   # noqa: E402


def _calibration_kernel() -> None:
    """Exact-rational work of the kind navol does (Fraction arithmetic,
    tuples, dict updates, a sort), independent of the package."""
    acc, table = Fraction(0), {}
    for i in range(1, 200):
        x = Fraction(i % 13 - 6, i % 7 + 1)
        acc += x * x - acc / (i % 5 + 1)
        table[(i % 17, i % 5)] = (acc, x)
    sorted(table.values())


def speed_factor() -> float:
    """CAL_REFERENCE_S over the kernel's current time (best of two).

    On the 2-vCPU Xeon VM of README.md, which shares its cores with other
    tenants, one pure-Python loop ran at speeds 1.8x apart within minutes,
    and neither steal time nor the clock frequency showed it. Scaling an
    op's wall time by this factor expresses it at one nominal speed."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return CAL_REFERENCE_S / best


def normalized(start: float, speed_before: float) -> float:
    """Wall seconds since `start`, scaled by the geometric mean of the speed
    factor taken before (`speed_before`) and the one taken now, which
    follows a speed change during a long op better than either alone."""
    elapsed = time.perf_counter() - start
    return elapsed * math.sqrt(speed_before * speed_factor())


def import_navol() -> SimpleNamespace:
    """Import navol afresh: drop any loaded copy, then import every module."""
    for name in [n for n in sys.modules
                 if n == "navol" or n.startswith("navol.") or n == "_oracles"]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"navol.{m}") for m in MODULES})


def set_up(workload: str, seed: int, work_dir: str):
    rng = random.Random(f"{workload}:{seed}")
    N = import_navol()
    if workload == "lattice-sweep":
        return N, workloads.lattice_deck(rng, N)
    if workload == "deform-energy":
        return N, workloads.deform_deck(rng, N)
    paths = workloads.write_instances(workloads.verify_instances(rng),
                                      os.path.join(work_dir, "instances"))
    return N, workloads.verify_deck(rng, N, paths, os.path.join(work_dir, "artifacts"))


class Runner:
    """Executes slots, times them, and keeps the output bookkeeping."""

    def __init__(self, deck):
        self.deck = deck
        self.first_text = [None] * len(deck)
        self.first_result = [None] * len(deck)
        self.executions = [0] * len(deck)
        self.failed_executions = [0] * len(deck)
        self.check_failed = [False] * len(deck)
        self.latencies = [[] for _ in deck]
        self.problems = []

    def execute(self, i: int, tracer=None, op_id=None) -> float:
        """Run slot i once; returns its latency. Raising, a FAIL verdict or
        output that differs from the slot's first execution fail the op."""
        slot = self.deck[i]
        self.executions[i] += 1
        speed = speed_factor()
        start = time.perf_counter()
        try:
            result = slot.run() if tracer is None else tracer.op_span(op_id, slot.run)
            seconds = normalized(start, speed)
            passed, text = slot.summary(result)
            if self.first_text[i] is None:
                self.first_text[i], self.first_result[i] = text, result
            elif text != self.first_text[i]:
                passed = False
                self.problems.append(f"{slot.name}: output differs from its first run")
            if not passed:
                self.problems.append(f"{slot.name}: report FAIL")
        except Exception:   # an op that raises is a failed op; keep measuring
            seconds = normalized(start, speed)
            passed = False
            self.problems.append(f"{slot.name}: raised\n{traceback.format_exc()}")
        if not passed:
            self.failed_executions[i] += 1
        self.latencies[i].append(seconds)
        return seconds

    def run_pass(self, tracer=None, op_id=None) -> float:
        return sum(self.execute(i, tracer, op_id) for i in range(len(self.deck)))

    def run_passes(self, start: float, seconds: float, max_passes: int,
                   tracer=None, op_id=None):
        """Whole passes, at most `max_passes`, while the next one is expected
        to end within `seconds` of `start` (at least one); returns (op
        seconds, passes)."""
        total, passes = 0.0, 0
        while True:
            began = time.perf_counter()
            total += self.run_pass(tracer, op_id)
            passes += 1
            now = time.perf_counter()
            if passes == max_passes or now - start + (now - began) > seconds:
                return total, passes

    def run_checks(self) -> None:
        """Independent check of each slot's first output; a slot that fails
        it fails every one of its executions."""
        for i, slot in enumerate(self.deck):
            if self.first_text[i] is None:
                continue
            try:
                problems = slot.check(self.first_result[i])
            except Exception:
                problems = [f"check raised\n{traceback.format_exc()}"]
            self.check_failed[i] = bool(problems)
            self.problems.extend(f"{slot.name}: {p}" for p in problems)
            self.first_result[i] = None

    @property
    def attempted(self) -> int:
        return sum(self.executions)

    @property
    def failed(self) -> int:
        return sum(n if bad else f for n, f, bad in
                   zip(self.executions, self.failed_executions, self.check_failed))

    def digest(self) -> str:
        h = hashlib.sha256()
        for slot, text in zip(self.deck, self.first_text):
            h.update(f"{slot.name}\n{text}\n".encode("utf-8"))
        return h.hexdigest()


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics over the deck's slots; a slot's latency is the
    median of its executions, one per pass."""
    _, passes = runner.run_passes(time.perf_counter(), seconds, PASSES)
    lat = sorted(statistics.median(runs) for runs in runner.latencies)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    print(f"samples {len(lat)} slots x {passes} passes, "
          f"{sum(1 for x in lat if x > p90)} slots above p90")
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(runner: Runner, N, seconds: float, trace_path: str) -> dict:
    start = time.perf_counter()
    untraced = runner.run_pass()
    tracer = Tracer()
    tracer.install(vars(N))
    traced, passes = runner.run_passes(start, seconds, PASSES - 1, tracer,
                                       tracer.name_id("op"))
    tracer.write(trace_path, [slot.name for slot in runner.deck])
    print(f"traced passes {passes}, spans kept {len(tracer.spans)}, "
          f"dropped {tracer.dropped}, trace file {os.path.relpath(trace_path, ROOT)}")
    return tracer.metrics(passes, traced / passes, untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (os.path.join(SRC, "navol", "__init__.py"),
                   os.path.join(TESTS, "_oracles.py")):
        if not os.path.isfile(needed):
            print(f"error: {os.path.relpath(needed, ROOT)} not found; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, TESTS]

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            speed = speed_factor()
            t0 = time.perf_counter()
            N, deck = set_up(args.workload, args.seed, work_dir)
            setups.append(normalized(t0, speed))
        runner = Runner(deck)
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            values = measure_traced(runner, N, args.seconds, trace_path)
            specs = [(name, unit) for name, unit, _ in per_layer_specs()]
        else:
            values = {"setup_s": statistics.median(setups),
                      **measure(runner, args.seconds)}
            specs = END_TO_END
        runner.run_checks()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in runner.problems:
        print(f"problem: {problem}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"deck {len(deck)} slots")
    print(f"digest sha256 {runner.digest()}")
    print(f"fail_ratio {runner.failed / runner.attempted} ratio "
          f"({runner.failed} of {runner.attempted})")
    for name, unit in specs:
        print(f"{name} {values[name]} {unit}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
