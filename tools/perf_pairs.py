"""Alternating benchmark runs of two checkouts, recorded as a BENCH_<n>.json.

    python3 tools/perf_pairs.py --out BENCH_<n>.json \\
        --root parent=PATH --root change=PATH \\
        [--workload NAME ...] [--seed 811]

For each workload, `perfbench/run.py` runs SECONDS long in each checkout
PAIRS times, the two checkouts alternating which goes first. Per checkout
the file records the median of every end-to-end metric, each run's
ops_per_s and digest, and how many pairs the second checkout won on
ops_per_s. One traced run per checkout then gives the per-layer counts per
pass (calls and counted work, no timings or bytes), which repeat exactly
from run to run; the bytes written are left out, as the summaries they count
hold the run's timings.

Runs are sequential, one process at a time, in the checkouts' own
directories; read the timings beside the machine and Python version the
file records.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10
SECONDS = 40   # the length of one benchmark run, in s

sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from run import WORKLOADS   # noqa: E402


def bench(root: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its result JSON (last line) plus its digest."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    result["digest"] = next(line.split()[-1] for line in out if line.startswith("digest"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--root", action="append", required=True, metavar="NAME=PATH",
                        help="checkout to run; give exactly two, the baseline first")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=811)
    args = parser.parse_args(argv)
    roots = {}
    for spec in args.root:
        name, sep, path = spec.partition("=")
        if not sep or not name:
            parser.error(f"--root needs NAME=PATH, got {spec!r}")
        roots[name] = os.path.abspath(path)
    if len(roots) != 2:
        parser.error("give exactly two --root checkouts")
    base, change = roots
    workloads = {}
    for workload in args.workload or WORKLOADS:
        runs = {name: [] for name in roots}
        for i in range(PAIRS):
            for name in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
                runs[name].append(bench(roots[name], workload, args.seed, 0))
                print(workload, name, i, runs[name][-1]["metrics"]["ops_per_s"]["value"],
                      file=sys.stderr)
        entry = {}
        for name, results in runs.items():
            metrics = results[0]["metrics"]
            traced = bench(roots[name], workload, args.seed, 1)["metrics"]
            entry[name] = {
                "median": {m: statistics.median(r["metrics"][m]["value"] for r in results)
                           for m in metrics},
                "ops_per_s": [round(r["metrics"]["ops_per_s"]["value"], 2) for r in results],
                "digests": sorted({r["digest"] for r in results}),
                "failed": sum(r["failed"] for r in results),
                "counts_per_pass": {m: v["value"] for m, v in traced.items()
                                    if v["unit"] == "count"},
            }
        entry["pairs_won_by_" + change] = sum(
            b["metrics"]["ops_per_s"]["value"] < c["metrics"]["ops_per_s"]["value"]
            for b, c in zip(runs[base], runs[change]))
        workloads[workload] = entry
    payload = {
        "command": "perfbench/run.py pairs (tools/perf_pairs.py)",
        "seed": args.seed,
        "seconds": SECONDS,
        "pairs": PAIRS,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for workload, entry in workloads.items():
        for name in roots:
            med = entry[name]["median"]
            print(f"{workload:14s} {name:8s} " + " ".join(
                f"{m}={v:.4g}" for m, v in med.items()))
        print(f"{workload:14s} pairs won by {change}: {entry['pairs_won_by_' + change]}"
              f" of {PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
