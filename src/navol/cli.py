"""Command-line front end.

Commands operate on JSON instance files (see serialize module for the
schema) and write one JSON summary plus one CSV per series into the output
directory (flag ``--out-dir``, else ``NAVOL_OUT_DIR``, else ``./navol-out``).
Standard output carries the summary in the format chosen by ``--format``;
progress lines go to standard error.

Every command but verify-all is one entry of `CHECKS`: the instance kind it
reads and its check. A check takes the instance, the command's name and the
``--schedule`` text (None when absent; only `SCHEDULED` commands take one, and
resolve their levels once: ``--schedule``, its entries read by the instance
file's schedule reader, else the instance's schedule, else the default) and
returns a VerificationReport, or its own summary fields with its series and
verdict. One driver, `_run`, refuses a wrong kind, prints a report whole and
other fields after ``command`` and ``instance``, and writes
``<command>.json`` and the series as ``<command>.csv`` with ``-`` as ``_``.
verify-all, the one command that takes ``--seed``, runs the same checks on
each instance file with no ``--schedule``. A flag the command does not take
is refused before any file is opened; each argument error prints one line.

Exit codes: 0 all checks passed, 1 a verification criterion failed,
2 malformed instance or arguments (an output directory that cannot be
written included), 3 violated operation precondition.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cohomology import (COHOMOLOGY_SCHEDULE, MORSE_Q, MORSE_SCHEDULE,
                         cohomology_consistency, cohomology_table, morse_check,
                         perturbation_scan)
from .errors import InstanceFormatError, PreconditionError
from .harness import (DIFF_EPS, H0_SCHEDULE, VerificationReport, run_bundled_suite,
                      verify_differentiability, verify_h0_envelope_equality,
                      verify_orthogonality, verify_tree_net_rows, verify_vol_is_energy)
from .measures import energy, monge_ampere
from .plmetric import envelope, is_semipositive
from .rational import frac_str, point_str
from .serialize import (Instance, SurfaceInstance, ToricInstance, TreeInstance,
                        _parse_schedule, csv_text, decimal_str, parse_instance,
                        parse_instance_text, write_json, write_text)
from .trees import potential_rows
from .volumes import default_schedule, navol as navol_run

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
SCHEDULE_LEVEL_LIMIT = 1_000   # the most levels one --schedule may list
_LEVEL = re.compile(r"[+-]?[0-9]+")


def _report_payload(rep: VerificationReport) -> Dict[str, object]:
    return {
        "theorem": rep.theorem,
        "instance": rep.instance,
        "passed": rep.passed,
        "exact": dict(rep.exact),
        "series": [list(row) for row in rep.series],
        "runtime_seconds": rep.runtime,
    }


def _report_csv(rep: VerificationReport) -> Tuple[Sequence[str], Sequence[Sequence[str]]]:
    if rep.series:
        return rep.series[0], rep.series[1:]
    return ["key", "value"], sorted(rep.exact.items())


@dataclass
class CommandResult:
    """A command's summary, its series as a CSV header and rows of string
    cells (written as <name, - as _>.csv) and its verdict."""
    name: str
    summary: Dict[str, object]
    series: Optional[Tuple[Sequence[str], Sequence[Sequence[str]]]]
    passed: bool = True


# ---------------------------------------------------------------------------
# checks: (instance, command, --schedule text or None) -> a VerificationReport,
# or (summary fields, (header, rows) of the series or None, passed)


def _levels(text: Optional[str], inst_schedule: Optional[Sequence], default: Sequence,
            eps: bool = False) -> List:
    """--schedule, else the instance's schedule, else default. The option is
    split on commas and each level range a-b expanded, refused past
    SCHEDULE_LEVEL_LIMIT levels; serialize's schedule reader then checks the
    entries as an instance's levels (ε values with eps). A level that is not
    ASCII digits with an optional sign reaches the reader as its text."""
    if text is None:
        return list(inst_schedule or default)
    chunks = [chunk for chunk in map(str.strip, text.split(",")) if chunk]
    levels: List = []
    for chunk in [] if eps else chunks:
        lo_text, dash, hi_text = chunk.partition("-")
        is_range = bool(dash and lo_text)   # "-3" is one level, below 1
        ends = (lo_text, hi_text) if is_range else (chunk, chunk)
        try:   # not int() alone, which reads "1_0" as 10 and "٣" as 3
            lo, hi = (int(_LEVEL.fullmatch(end)[0]) for end in ends)
        except (TypeError, ValueError):   # no match, or more digits than int() reads
            if is_range:
                raise InstanceFormatError(f"bad schedule range {chunk!r}") from None
            levels.append(chunk)
            continue
        if lo > hi:
            raise InstanceFormatError(f"empty schedule range {chunk!r}")
        if len(levels) + hi - lo >= SCHEDULE_LEVEL_LIMIT:
            raise PreconditionError(f"--schedule lists more than {SCHEDULE_LEVEL_LIMIT} levels")
        levels.extend(range(lo, hi + 1))
    return _parse_schedule(chunks if eps else levels, "--schedule", eps)


def _measure(toric, command, schedule):
    mu = monge_ampere(toric.single_metric(command))
    atoms = mu.items_sorted()
    fields = {"atoms": [{"point": [frac_str(c) for c in key], "mass": frac_str(mass)}
                        for key, mass in atoms],
              "total_mass": frac_str(mu.total_mass)}
    rows = [[point_str(key), frac_str(mass), decimal_str(mass)] for key, mass in atoms]
    return fields, (["atom", "mass", "mass_decimal"], rows), True


def _energy(toric, command, schedule):
    value = energy(*toric.metric_pair(command))
    return {"energy": frac_str(value), "energy_decimal": decimal_str(value)}, None, True


def _navol(toric, command, schedule):
    m1, m2 = toric.metric_pair(command)
    result = navol_run(m1, m2, _levels(schedule, toric.schedule,
                                       default_schedule(toric.polytope.ambient_dim)))
    fields = {"exact": frac_str(result.exact),
              "exact_decimal": decimal_str(result.exact),
              "estimate": frac_str(result.estimate),
              "semipositive_pair": result.semipositive_pair,
              "max_tail_gap": frac_str(result.max_gap)}
    rows = [[str(r.m), frac_str(r.length), frac_str(r.normalized), decimal_str(r.normalized)]
            for r in result.rows]
    return fields, (["m", "length", "normalized", "normalized_decimal"], rows), True


def _vol_is_energy(toric, command, schedule) -> VerificationReport:
    return verify_vol_is_energy(*toric.metric_pair(command), instance=toric.name)


def _envelope(toric, command, schedule):
    psi = toric.single_metric(command)
    pieces = list(envelope(psi).blocks[0])
    fields = {"input_semipositive": is_semipositive(psi),
              "pieces": [{"slope": [frac_str(c) for c in s], "constant": frac_str(c0)}
                         for s, c0 in pieces]}
    rows = [[point_str(s), frac_str(c0)] for s, c0 in pieces]
    return fields, (["slope", "constant"], rows), True


def _ortho(toric, command, schedule) -> VerificationReport:
    return verify_orthogonality(toric.single_metric(command), instance=toric.name)


def _diff(toric, command, schedule) -> VerificationReport:
    base = toric.metric_or_canonical("psi")
    pos, neg = toric.metric("pos", command), toric.metric("neg", command)
    eps = _levels(schedule, toric.eps_schedule, DIFF_EPS, eps=True)
    return verify_differentiability(base, pos, neg, eps, instance=toric.name)


def _h0(toric, command, schedule) -> VerificationReport:
    psi = toric.single_metric(command)
    levels = _levels(schedule, toric.schedule, H0_SCHEDULE)
    return verify_h0_envelope_equality(psi, levels, instance=toric.name)


def _ma_solve(tree_inst, command, schedule):
    tree, net = tree_inst.tree, tree_inst.net_mass_rows(command)
    scale, phi = potential_rows(tree, *net)
    verified = verify_tree_net_rows(tree, *net).passed
    rows = [(v, frac_str(x), decimal_str(x))
            for v, x in zip(tree.vertices, (Fraction(n, scale) for n in phi))]
    fields = {"values": {v: value for v, value, _ in rows}, "root": tree.root,
              "curvature_matches_target": verified}
    return fields, (["vertex", "value", "value_decimal"], rows), verified


def _tree_rows(tree_inst, command, schedule) -> VerificationReport:
    return verify_tree_net_rows(tree_inst.tree, *tree_inst.net_mass_rows(command),
                                instance=tree_inst.name)


def _divisor_levels(surface: SurfaceInstance, command: str, schedule: Optional[str]):
    """The divisor D with its levels (default: COHOMOLOGY_SCHEDULE)."""
    return (surface.divisor("D", command),
            _levels(schedule, surface.schedule, COHOMOLOGY_SCHEDULE))


def _cohomology(surface, command, schedule):
    div, levels = _divisor_levels(surface, command, schedule)
    qs = None if surface.q is None else [surface.q]
    table = cohomology_table(surface.family, div, levels, qs=qs)
    serre, h1_ok = table.serre_consistent(), table.h1_all_nonnegative()
    fields = {"family": surface.family.name,
              "divisor_class": [frac_str(c) for c in div.total()],
              "serre_consistent": serre, "h1_all_nonnegative": h1_ok}
    rows = [[str(m), str(q), str(h), frac_str(norm), decimal_str(norm)]
            for m, q, h, norm in table.rows]
    header = ["m", "q", "h", "normalized", "normalized_decimal"]
    return fields, (header, rows), serre and h1_ok


def _consistency(surface, command, schedule) -> VerificationReport:
    div, levels = _divisor_levels(surface, command, schedule)
    return cohomology_consistency(surface.family, div, levels, instance=surface.name)


def _morse(surface, command, schedule) -> VerificationReport:
    d, e = surface.divisor("D", command), surface.divisor("E", command)
    q = surface.q if surface.q is not None else MORSE_Q
    levels = _levels(schedule, surface.schedule, MORSE_SCHEDULE)
    return morse_check(surface.family, d, e, q, levels, instance=surface.name)


def _perturb(surface, command, schedule) -> VerificationReport:
    scan = surface.scan
    if scan is None:
        raise PreconditionError(
            f"command {command!r} needs a 'scan' section in the instance")
    d_list = [surface.divisor(n, command) for n in scan.d_names]
    p_list = [surface.divisor(n, command) for n in scan.p_names]
    return perturbation_scan(surface.family, d_list, p_list, scan.q, scan.grid_max,
                             instance=surface.name)


def _digest(check: Callable, *keys: str) -> Callable:
    """A surface report's check as a command printing the family, q, the
    report's exact values under keys and its verdict."""
    def run(surface, command, schedule):
        rep = check(surface, command, schedule)
        fields = {"family": surface.family.name, "q": int(rep.exact["q"]),
                  **{k: rep.exact[k] for k in keys}, "passed": rep.passed}
        return fields, _report_csv(rep), rep.passed
    return run


# command -> (instance kind, check)
CHECKS: Dict[str, Tuple[str, Callable]] = {
    "measure": ("toric", _measure),
    "energy": ("toric", _energy),
    "navol": ("toric", _navol),
    "envelope": ("toric", _envelope),
    "ortho-check": ("toric", _ortho),
    "diff-check": ("toric", _diff),
    "h0-check": ("toric", _h0),
    "ma-solve": ("tree", _ma_solve),
    "cohomology": ("surface", _cohomology),
    "morse-check": ("surface", _digest(_morse, "leading", "fitted_constant")),
    "perturb-scan": ("surface", _digest(_perturb, "fitted_constant")),
}
COMMANDS = (*CHECKS, "verify-all")
# the commands whose check reads --schedule
SCHEDULED = ("navol", "diff-check", "h0-check", "cohomology", "morse-check")


def _run(command: str, inst: Instance, schedule: Optional[str]) -> CommandResult:
    """The command's check on inst: a report is printed whole, other fields
    follow command and instance; the series is named after the command."""
    kind, check = CHECKS[command]
    if inst.kind != kind:
        raise PreconditionError(
            f"command {command!r} needs a {kind} instance, got {inst.kind!r}")
    out = check(inst, command, schedule)
    if isinstance(out, VerificationReport):
        summary, series, passed = _report_payload(out), _report_csv(out), out.passed
    else:
        fields, series, passed = out
        summary = {"command": command, "instance": inst.name, **fields}
    return CommandResult(command, summary, series, passed)


# ---------------------------------------------------------------------------
# verify-all: packaged instances plus the seeded generator suite


def bundled_instance_texts() -> List[Tuple[str, str]]:
    entries = resources.files("navol").joinpath("instances").iterdir()
    return [(entry.name, entry.read_text(encoding="utf-8"))
            for entry in sorted(entries, key=lambda e: e.name)
            if entry.name.endswith(".json")]


def _verify_all_checks(inst: Instance) -> List[Callable]:
    """verify-all's checks of one instance file, each run as check(inst, "verify-all", None)."""
    if isinstance(inst, ToricInstance):
        return [_vol_is_energy] if "psi1" in inst.metrics else [_ortho, _h0]
    if isinstance(inst, TreeInstance):
        return [_tree_rows]
    has = inst.divisors
    return [check for check, runs in ((_morse, "D" in has and "E" in has),
                                      (_consistency, "D" in has),
                                      (_perturb, inst.scan is not None)) if runs]


def _instance_checks(inst: Instance) -> List[VerificationReport]:
    """verify-all's reports on one instance file, at its levels or the defaults."""
    return [check(inst, "verify-all", None) for check in _verify_all_checks(inst)]


def _cmd_verify_all(args, extra_paths: Sequence[str]) -> CommandResult:
    seed = args.seed if args.seed is not None else 0
    instances = ([parse_instance_text(text, origin=name)
                  for name, text in bundled_instance_texts()]
                 + [parse_instance(path) for path in extra_paths])

    reports: List[VerificationReport] = [
        r for inst in instances for r in _instance_checks(inst)]
    reports.extend(run_bundled_suite(seed=seed))

    for rep in reports:
        print(rep.line(), file=sys.stderr)
    passed = all(r.passed for r in reports)
    summary = {
        "command": "verify-all",
        "seed": seed,
        "total": len(reports),
        "failures": sum(1 for r in reports if not r.passed),
        "reports": [_report_payload(r) for r in reports],
    }
    rows = [[r.theorem, r.instance, "pass" if r.passed else "FAIL",
             ";".join(f"{k}={v}" for k, v in sorted(r.exact.items()))]
            for r in reports]
    return CommandResult("verify_all", summary,
                         (["theorem", "instance", "status", "exact"], rows), passed)


# ---------------------------------------------------------------------------
# driver


class _Parser(argparse.ArgumentParser):
    """Its argument errors raise, so main prints each as one line."""

    def error(self, message):
        raise InstanceFormatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="navol", allow_abbrev=False,
        description="Exact toolkit for discrete pluripotential theory on "
                    "polytopes, metric trees and toric surfaces.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("instance", nargs="*",
                        help="instance file(s); verify-all adds them to the "
                             "bundled suite, other commands take exactly one")
    parser.add_argument("--schedule",
                        help=f"levels of {', '.join(SCHEDULED)}: e.g. 1-10,50,100 "
                             "(rationals like 1/2,1/4 for diff-check)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for verify-all's generated instances "
                             "(default 0)")
    parser.add_argument("--out-dir", default=None,
                        help="artifact directory (default: $NAVOL_OUT_DIR "
                             "or ./navol-out)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="what to print on stdout")
    return parser


def _out_dir(args) -> str:
    if args.out_dir:
        return args.out_dir
    return os.environ.get("NAVOL_OUT_DIR", os.path.join(".", "navol-out"))


def _emit(result: CommandResult, args) -> None:
    out_dir = _out_dir(args)
    summary_text = write_json(out_dir, f"{result.name}.json", result.summary)
    series_text = result.series and csv_text(*result.series)
    if series_text:
        write_text(out_dir, f"{result.name.replace('-', '_')}.csv", series_text)
    if args.format == "json":
        sys.stdout.write(summary_text)
    else:
        sys.stdout.write(series_text or csv_text(
            ["key", "value"], [[k, str(v)] for k, v in result.summary.items()
                               if not isinstance(v, (list, dict))]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_intermixed_args(argv)
        for flag, value, reads in (("--schedule", args.schedule, args.command in SCHEDULED),
                                   ("--seed", args.seed, args.command == "verify-all")):
            if value is not None and not reads:
                raise InstanceFormatError(f"command {args.command!r} takes no {flag}")
        if args.command != "verify-all" and len(args.instance) != 1:
            raise InstanceFormatError(
                f"command {args.command!r} takes exactly one instance file")
        if args.command == "verify-all":
            result = _cmd_verify_all(args, args.instance)
        else:
            inst = parse_instance(args.instance[0])
            result = _run(args.command, inst, args.schedule)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        _emit(result, args)
    except OSError as exc:
        print(f"error: cannot write artifacts to {_out_dir(args)!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_PASS if result.passed else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
