"""Per-stage timings of `navol verify-all` on the benchmark's instance files.

    python3 tools/stage_timing.py --out BENCH_<n>.json \\
        [--root before=PATH --root after=PATH]

Each `--root NAME=PATH` names a checkout to measure (default: the one holding
this script, as `this`); its `src/` package and `perfbench/workloads.py` are
imported afresh, so two checkouts are timed by one script in one process,
in alternating order over ROUNDS rounds. The instance files are the ones
the benchmark's `verify-all` workload generates for SEED, plus the bundled
instances. Stages, each timed REPEATS times per round, reported per
checkout as the median over rounds of the per-round medians, in ms. Every
sample is normalized to the benchmark's nominal machine speed by
perfbench/run.py's `speed_factor` and `normalized`, as the benchmark's own
op times are:

  parse/<kind>/<instance>  parse_instance_text on the file's text
  check/<kind>/<instance>  the instance's own verify-all checks
  check/<theorem>/<instance>  each of those checks alone, named by its
                           report's theorem (checkouts whose cli names its
                           checks, `_verify_all_checks`)
  bundled_suite            run_bundled_suite, median over the deck's seeds
  emit                     writing the summary JSON and the CSV
  op                       one whole `navol verify-all` call, median over the deck

Normalized wall clock, no machine tuning: read the numbers beside the machine
and Python version the file records.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 811  # the benchmark's default seed
REPEATS = 15
ROUNDS = 7

sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from run import normalized, speed_factor   # noqa: E402


def _load(root: str) -> SimpleNamespace:
    """The checkout's cli, harness, serialize and perfbench workloads,
    imported afresh."""
    for name in [n for n in sys.modules
                 if n == "navol" or n.startswith("navol.") or n == "workloads"]:
        del sys.modules[name]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    try:
        mods = {n: importlib.import_module(f"navol.{n}")
                for n in ("cli", "harness", "serialize")}
        return SimpleNamespace(workloads=importlib.import_module("workloads"), **mods)
    finally:
        del sys.path[:2]


def parse_roots(parser: argparse.ArgumentParser, specs) -> dict:
    """Checkout path by name from `--root NAME=PATH` values."""
    roots = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name:
            parser.error(f"--root needs NAME=PATH, got {spec!r}")
        roots[name] = os.path.abspath(path)
    return roots


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        speed = speed_factor()
        start = time.perf_counter()
        fn()
        times.append(normalized(start, speed))
    return statistics.median(times) * 1000


def _quiet(fn):
    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return fn()
    return run


def measure(root: str, seed: int, repeats: int) -> dict:
    """Stage name -> median ms for one checkout."""
    N = _load(root)
    groups = N.workloads.verify_instances(random.Random(f"verify-all:{seed}"))
    texts = [(name, text) for name, text in N.cli.bundled_instance_texts()]
    texts += [(name, json.dumps(payload))
              for items in groups.values() for name, payload in items]
    stages = {}
    for name, text in texts:
        inst = N.serialize.parse_instance_text(text, origin=name)
        stages[f"parse/{inst.kind}/{name}"] = _median_ms(
            lambda: N.serialize.parse_instance_text(text, origin=name), repeats)
        stages[f"check/{inst.kind}/{name}"] = _median_ms(
            lambda: N.cli._instance_checks(inst), repeats)
        for check in getattr(N.cli, "_verify_all_checks", lambda _: [])(inst):
            run = functools.partial(check, inst, "verify-all", None)
            stages[f"check/{run().theorem}/{name}"] = _median_ms(run, repeats)
    deck = N.workloads.VERIFY_DECK_SIZE
    stages["bundled_suite"] = statistics.median(
        _median_ms(lambda: N.harness.run_bundled_suite(seed=i), repeats)
        for i in range(deck))
    with tempfile.TemporaryDirectory() as work:
        paths = N.workloads.write_instances(groups, os.path.join(work, "instances"))
        out = os.path.join(work, "out")
        args = N.cli.build_parser().parse_args(
            ["verify-all", "--seed", "0", "--out-dir", out])
        result = _quiet(lambda: N.cli._cmd_verify_all(args, []))()
        stages["emit"] = _median_ms(_quiet(lambda: N.cli._emit(result, args)), repeats)
        ops = []
        for i in range(deck):
            extra = [paths[g][i % len(paths[g])] for g in ("toric", "tree", "surface")]
            argv = ["verify-all", *extra, "--seed", str(i), "--out-dir", out]
            ops.append(_median_ms(_quiet(lambda: N.cli.main(argv)), repeats))
    stages["op"] = statistics.median(ops)
    return stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--root", action="append", metavar="NAME=PATH",
                        help="checkout to measure (repeatable; default: "
                             "this one, as 'this')")
    args = parser.parse_args(argv)
    roots = parse_roots(parser, args.root or [f"this={os.path.dirname(HERE)}"])
    runs = {name: [] for name in roots}
    for r in range(ROUNDS):
        for name in (list(roots) if r % 2 == 0 else list(roots)[::-1]):
            runs[name].append(measure(roots[name], SEED, REPEATS))
    medians = {name: {stage: round(statistics.median(run[stage] for run in rounds), 3)
                      for stage in rounds[0]}
               for name, rounds in runs.items()}
    payload = {
        "command": "verify-all stage timing (tools/stage_timing.py)",
        "seed": SEED,
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "unit": "ms, median wall time at the benchmark's nominal speed",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "stages": medians,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    names = list(medians)
    stages = list(dict.fromkeys(stage for n in names for stage in medians[n]))
    width = max(map(len, stages)) + 2
    print(f"{'stage':{width}s}" + "".join(f"{n:>12s}" for n in names))
    for stage in stages:
        print(f"{stage:{width}s}" + "".join(f"{medians[n].get(stage, float('nan')):12.3f}"
                                           for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
