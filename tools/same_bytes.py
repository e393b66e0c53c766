"""Whether two checkouts give the same `navol verify-all` output, seed by seed.

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
The exit code, stdout and `verify_all.csv` are compared, each without its
`# generated` timestamp line, and so is `verify_all.json` once parsed, with
every `runtime_seconds` removed and each object kept as its key-value pairs
in order, so two writers of the same content agree. Exit 0 if every seed matches; at the first seed
that differs, the script names it and the first output that differs, and
exits 1.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 811  # the benchmark's default seed, which draws the instance files

sys.path.insert(0, HERE)
from stage_timing import _load, parse_roots   # noqa: E402


def _modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "navol" or n.startswith("navol.")}


def _body(text: Optional[str]) -> Optional[str]:
    return None if text is None else "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("# generated"))


def _content(text: Optional[str]) -> Optional[list]:
    """The parsed summary, each object as its (key, value) pairs in order
    less any `runtime_seconds`."""
    return None if text is None else json.loads(text, object_pairs_hook=lambda pairs: [
        (key, value) for key, value in pairs if key != "runtime_seconds"])


def _read(path: str) -> Optional[str]:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def run(checkout, argv, out_dir: str) -> tuple:
    """(exit code, stdout, verify_all.csv, verify_all.json) of one verify-all
    call, with the checkout's navol modules in sys.modules while it runs."""
    N, modules = checkout
    for name in _modules():
        del sys.modules[name]
    sys.modules.update(modules)
    paths = [os.path.join(out_dir, f"verify_all.{ext}") for ext in ("csv", "json")]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = N.cli.main([*argv, "--out-dir", out_dir])
    return (code, _body(out.getvalue()), _body(_read(paths[0])),
            _content(_read(paths[1])))


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
    workloads = next(iter(checkouts.values()))[0].workloads
    names = list(checkouts)
    with tempfile.TemporaryDirectory() as work:
        groups = workloads.verify_instances(random.Random(f"verify-all:{SEED}"))
        paths = workloads.write_instances(groups, os.path.join(work, "instances"))
        for seed in args.seeds:
            extra = [paths[g][seed % len(paths[g])] for g in ("toric", "tree", "surface")]
            argv = ["verify-all", *extra, "--seed", str(seed), "--format", "csv"]
            outs = [run(checkouts[name], argv, os.path.join(work, name)) for name in names]
            for label, left, right in zip(
                    ("exit code", "stdout", "verify_all.csv", "verify_all.json"), *outs):
                if left != right:
                    print(f"seed {seed}: {label} differs between {names[0]} and {names[1]}")
                    return 1
    print(f"same bytes: {' and '.join(names)} agree on seeds "
          f"{args.seeds.start}-{args.seeds.stop - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
