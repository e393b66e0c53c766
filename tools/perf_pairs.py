"""Alternating benchmark runs of two checkouts, recorded as a BENCH_<n>.json.

    python3 tools/perf_pairs.py --out BENCH_<n>.json \\
        --root parent=PATH --root change=PATH \\
        [--workload NAME ...] [--seed 811] [--pairs 10]

For each workload, `perfbench/run.py` runs SECONDS long in each checkout
--pairs times (10 by default, the least that can show a gain; a check on a
held-out seed may take fewer), the two checkouts alternating which goes
first. Per checkout the file records every end-to-end metric's value in each
run, its median and quartiles, each run's ops_per_s and digest, whether the
two checkouts' digests are equal, and how many pairs the second checkout won
on ops_per_s. Per metric, `verdicts` reads the
pairs against BENCHMARK.json's `better` and `bound`: the pairs the second
checkout won, its median's relative change, whether that median beats the
baseline's by more than the baseline's interquartile range, whether it is
worse than the baseline's by more than the bound, and whether it is
unresolved: either side's interquartile range is wider than the bound and
not every run of the second checkout reads better than every run of the
baseline. The console shows each checkout's medians, the pairs won on
ops_per_s, whether the digests are equal, and one line per end-to-end
metric with its verdict. One traced run per checkout then gives the per-layer counts per
pass (calls and counted work, no timings or bytes), which repeat exactly
from run to run; the bytes written are left out, as the summaries they count
hold the run's timings. The file also records each checkout's line count
of `src/navol/*.py` (`src_lines`), and the console prints the two.

Runs are sequential, one process at a time, in the checkouts' own
directories; read the timings beside the machine and Python version the
file records. A checkout that holds a `__pycache__` directory is refused
(exit 2) before any run starts: its side would import compiled bytecode
while perfbench compiles the other side's source, which moves `setup_s`.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 40   # the length of one benchmark run, in s

sys.path[:0] = [HERE, os.path.join(ROOT, "perfbench")]
from run import WORKLOADS   # noqa: E402
from stage_timing import parse_roots   # noqa: E402


def bench(root: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its result JSON (last line) plus its digest."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    result["digest"] = next(line.split()[-1] for line in out if line.startswith("digest"))
    return result


def src_lines(root: str) -> int:
    """The number of lines in the checkout's `src/navol/*.py`."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "navol", "*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def end_to_end_specs() -> dict:
    """BENCHMARK.json's end-to-end metrics by name: unit, better, bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {spec["name"]: spec for spec in json.load(handle)["end_to_end"]}


def quartiles(values: list) -> list:
    """[Q1, median, Q3] of two or more values (inclusive method)."""
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(base: list, change: list, spec: dict) -> dict:
    """One metric's runs, paired in order, read in its `better` direction."""
    sign = 1 if spec["better"] == "higher" else -1
    (b_lo, b_med, b_hi), (c_lo, c_med, c_hi) = quartiles(base), quartiles(change)
    gain = sign * (c_med - b_med)
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    return {
        "pairs_won": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
        "median_change": (c_med - b_med) / b_med,
        "beats_base_iqr": gain > b_hi - b_lo,
        "worse_beyond_bound": -gain > spec["bound"] * b_med,
        "unresolved": max(b_hi - b_lo, c_hi - c_lo) > spec["bound"] * b_med and not all_better,
    }


def summarize(runs: dict, counts: dict, specs: dict) -> dict:
    """A workload's entry from the untraced results of the two checkouts
    (baseline first, each a list of run.py result objects with their
    digests, in pair order) and each checkout's traced counts per pass."""
    base, change = runs
    entry = {}
    for name, results in runs.items():
        values = {m: [r["metrics"][m]["value"] for r in results] for m in results[0]["metrics"]}
        entry[name] = {
            "median": {m: statistics.median(v) for m, v in values.items()},
            "ops_per_s": [round(v, 2) for v in values["ops_per_s"]],
            "digests": sorted({r["digest"] for r in results}),
            "failed": sum(r["failed"] for r in results),
            "counts_per_pass": counts[name],
            "runs": values,
            "quartiles": {m: quartiles(v) for m, v in values.items()},
        }
    entry["digests_equal"] = entry[base]["digests"] == entry[change]["digests"]
    entry["pairs_won_by_" + change] = sum(
        b["metrics"]["ops_per_s"]["value"] < c["metrics"]["ops_per_s"]["value"]
        for b, c in zip(runs[base], runs[change]))
    entry["verdicts"] = {m: verdict(entry[base]["runs"][m], entry[change]["runs"][m], spec)
                         for m, spec in specs.items() if m in entry[base]["runs"]}
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--root", action="append", required=True, metavar="NAME=PATH",
                        help="checkout to run; give exactly two, the baseline first")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=811)
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload")
    args = parser.parse_args(argv)
    roots = parse_roots(parser, args.root)
    if len(roots) != 2:
        parser.error("give exactly two --root checkouts")
    if args.pairs < 2:
        parser.error("--pairs needs at least two pairs, for the quartiles")
    for name, path in roots.items():
        caches = [d for d, _, _ in os.walk(path) if os.path.basename(d) == "__pycache__"]
        if caches:
            parser.error(f"--root {name} holds {caches[0]}: remove its __pycache__"
                         " directories, or only one side imports compiled bytecode")
    base, change = roots
    specs = end_to_end_specs()
    workloads = {}
    for workload in args.workload or WORKLOADS:
        runs = {name: [] for name in roots}
        for i in range(args.pairs):
            for name in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
                runs[name].append(bench(roots[name], workload, args.seed, 0))
                print(workload, name, i, runs[name][-1]["metrics"]["ops_per_s"]["value"],
                      file=sys.stderr)
        counts = {name: {m: v["value"] for m, v in
                         bench(roots[name], workload, args.seed, 1)["metrics"].items()
                         if v["unit"] == "count"} for name in roots}
        workloads[workload] = summarize(runs, counts, specs)
    payload = {
        "command": "perfbench/run.py pairs (tools/perf_pairs.py)",
        "seed": args.seed,
        "seconds": SECONDS,
        "pairs": args.pairs,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "src_lines": {name: src_lines(path) for name, path in roots.items()},
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    lines = payload["src_lines"]
    print(f"src lines: {base} {lines[base]} -> {change} {lines[change]}")
    for workload, entry in workloads.items():
        for name in roots:
            med = entry[name]["median"]
            print(f"{workload:14s} {name:8s} " + " ".join(
                f"{m}={v:.4g}" for m, v in med.items()))
        print(f"{workload:14s} pairs won by {change}: {entry['pairs_won_by_' + change]}"
              f" of {args.pairs}; digests equal: {entry['digests_equal']}")
        for metric, v in entry["verdicts"].items():
            print(f"{workload:14s} {metric}: pairs won {v['pairs_won']} of {args.pairs},"
                  f" median {v['median_change']:+.2%}, beats_base_iqr {v['beats_base_iqr']},"
                  f" worse_beyond_bound {v['worse_beyond_bound']},"
                  f" unresolved {v['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
