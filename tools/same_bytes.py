"""Whether two checkouts give the same `navol` output: verify-all seed by seed, then every command.

    python3 tools/same_bytes.py --root parent=PATH --root change=PATH \\
        [--seeds 0-59]

Each `--root NAME=PATH` names a checkout; exactly two are compared. Each
checkout's `src/` package is imported afresh, as `tools/stage_timing.py`
does, and both run in this one process. The instance files the benchmark's
`verify-all` workload generates for seed 811 are written once, from the first
checkout's `perfbench/workloads.py`. For each seed N of `--seeds` (a range
A-B, inclusive, or one number), both checkouts run

    verify-all <one toric, tree and surface file> --seed N --format csv \\
        --out-dir DIR

in-process, with the files cycling by N as the benchmark's deck takes them.
Then every other command of `cli.COMMANDS` runs on each bundled instance
file, the first checkout's `src/navol/instances/*.json` written once to a
temporary directory:

    <command> <file> --format csv --out-dir DIR

Each run is compared by its exit code, stderr, stdout and every file it
writes: stdout and each CSV without the `# generated` timestamp line, each
JSON summary once parsed, with every `runtime_seconds` removed and each
object kept as its key-value pairs in order, so two writers of the same
content agree. Exit 0 if every run matches; at the first run that differs,
the script names it and the first output that differs, and exits 1.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import random
import shutil
import sys
import tempfile
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 811  # the benchmark's default seed, which draws the instance files

sys.path.insert(0, HERE)
from stage_timing import _load, parse_roots   # noqa: E402


def _modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "navol" or n.startswith("navol.")}


def _body(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("# generated"))


def _content(text: str) -> list:
    """The parsed summary, each object as its (key, value) pairs in order
    less any `runtime_seconds`."""
    return json.loads(text, object_pairs_hook=lambda pairs: [
        (key, value) for key, value in pairs if key != "runtime_seconds"])


def run(checkout, argv, out_dir: str) -> dict:
    """The exit code, stderr, stdout and each file written of one navol call
    into an emptied out_dir, by name, with the checkout's navol modules in
    sys.modules while it runs."""
    N, modules = checkout
    for name in _modules():
        del sys.modules[name]
    sys.modules.update(modules)
    shutil.rmtree(out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = N.cli.main([*argv, "--out-dir", out_dir])
    outputs = {"exit code": code, "stderr": err.getvalue(), "stdout": _body(out.getvalue())}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
            text = handle.read()
        outputs[name] = _content(text) if name.endswith(".json") else _body(text)
    return outputs


def first_difference(left: dict, right: dict) -> Optional[str]:
    """The first output, by name, that the two runs do not share."""
    return next((label for label in [*left, *right] if left.get(label) != right.get(label)),
                None)


def seed_range(text: str) -> range:
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", required=True, metavar="NAME=PATH",
                        help="checkout to compare (exactly two)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-59"),
                        help="verify-all seeds, A-B inclusive (default 0-59)")
    args = parser.parse_args(argv)
    roots = parse_roots(parser, args.root)
    if len(roots) != 2:
        parser.error("give exactly two --root checkouts")
    checkouts = {}
    for name, path in roots.items():
        N = _load(path)
        checkouts[name] = (N, _modules())
    names = list(checkouts)
    first = checkouts[names[0]][0]
    with tempfile.TemporaryDirectory() as work:
        groups = first.workloads.verify_instances(random.Random(f"verify-all:{SEED}"))
        paths = first.workloads.write_instances(groups, os.path.join(work, "instances"))
        bundled = os.path.join(work, "bundled")
        os.makedirs(bundled)
        for path in glob.glob(os.path.join(roots[names[0]], "src", "navol", "instances", "*.json")):
            shutil.copy(path, bundled)
        calls = [(f"seed {seed}", ["verify-all", *[paths[g][seed % len(paths[g])]
                                                   for g in ("toric", "tree", "surface")],
                                   "--seed", str(seed), "--format", "csv"])
                 for seed in args.seeds]
        calls += [(f"{command} {file}", [command, os.path.join(bundled, file), "--format", "csv"])
                  for command in first.cli.COMMANDS if command != "verify-all"
                  for file in sorted(os.listdir(bundled))]
        for what, call in calls:
            outs = [run(checkouts[name], call, os.path.join(work, name)) for name in names]
            label = first_difference(*outs)
            if label is not None:
                print(f"{what}: {label} differs between {names[0]} and {names[1]}")
                return 1
    print(f"same bytes: {' and '.join(names)} agree on seeds "
          f"{args.seeds.start}-{args.seeds.stop - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
