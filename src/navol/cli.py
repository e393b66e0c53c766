"""Command-line front end.

Commands operate on JSON instance files (see serialize module for the
schema) and write one JSON summary plus one CSV per series into the output
directory (flag ``--out-dir``, else ``NAVOL_OUT_DIR``, else ``./navol-out``).
Standard output carries the summary in the format chosen by ``--format``;
progress lines go to standard error.

Exit codes: 0 all checks passed, 1 a verification criterion failed,
2 malformed instance or arguments (an output directory that cannot be
written included), 3 violated operation precondition.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cohomology import (COHOMOLOGY_SCHEDULE, MORSE_Q, MORSE_SCHEDULE,
                         cohomology_consistency, cohomology_table, morse_check,
                         perturbation_scan)
from .errors import InstanceFormatError, PreconditionError
from .harness import (DIFF_EPS, H0_SCHEDULE, VerificationReport, run_bundled_suite,
                      verify_differentiability, verify_h0_envelope_equality,
                      verify_orthogonality, verify_tree_net_rows,
                      verify_tree_solvability, verify_vol_is_energy)
from .measures import energy, monge_ampere
from .plmetric import envelope, is_semipositive
from .rational import frac, frac_str, point_str
from .serialize import (Instance, SurfaceInstance, ToricInstance,
                        TreeInstance, csv_text, decimal_str, parse_instance,
                        parse_instance_text, write_json, write_text)
from .trees import ma_solve
from .volumes import default_schedule, navol as navol_run

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

COMMANDS = ("measure", "energy", "navol", "envelope", "ortho-check",
            "diff-check", "h0-check", "ma-solve", "cohomology", "morse-check",
            "perturb-scan", "verify-all")


def _parse_int_schedule(text: str) -> List[int]:
    out: List[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            lo_text, _, hi_text = chunk.partition("-")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise InstanceFormatError(f"bad schedule range {chunk!r}")
            if lo > hi:
                raise InstanceFormatError(f"empty schedule range {chunk!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(chunk))
            except ValueError:
                raise InstanceFormatError(f"bad schedule entry {chunk!r}")
    if not out or any(m < 1 for m in out):
        raise InstanceFormatError(f"schedule {text!r} needs entries >= 1")
    return out


def _parse_eps_schedule(text: str) -> List[Fraction]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(frac(chunk))
        except ValueError as exc:
            raise InstanceFormatError(f"bad eps entry {chunk!r}: {exc}")
        if out[-1] < 0:
            raise InstanceFormatError(f"eps entry {chunk!r} is negative")
    if not out:
        raise InstanceFormatError("empty eps schedule")
    return out


def _expect_kind(inst: Instance, kind: str, command: str):
    if inst.kind != kind:
        raise PreconditionError(
            f"command {command!r} needs a {kind} instance, got {inst.kind!r}")
    return inst


def _report_payload(rep: VerificationReport) -> Dict[str, object]:
    return {
        "theorem": rep.theorem,
        "instance": rep.instance,
        "passed": rep.passed,
        "exact": dict(rep.exact),
        "series": [list(row) for row in rep.series],
        "runtime_seconds": rep.runtime,
    }


def _report_csv(rep: VerificationReport) -> Tuple[List[str], List[List[str]]]:
    if rep.series:
        header = [str(c) for c in rep.series[0]]
        rows = [[str(c) for c in row] for row in rep.series[1:]]
        return header, rows
    return ["key", "value"], [[k, v] for k, v in sorted(rep.exact.items())]


class CommandResult:
    def __init__(self, name: str, summary: Dict[str, object],
                 series: Dict[str, Tuple[List[str], List[List[str]]]],
                 passed: bool = True):
        self.name = name
        self.summary = summary
        self.series = series
        self.passed = passed


# ---------------------------------------------------------------------------
# command implementations


def _cmd_measure(inst: Instance, args) -> CommandResult:
    toric = _expect_kind(inst, "toric", "measure")
    psi = toric.single_metric("measure")
    mu = monge_ampere(psi)
    atoms = mu.items_sorted()
    summary = {
        "command": "measure",
        "instance": toric.name,
        "atoms": [{"point": [frac_str(c) for c in key], "mass": frac_str(mass)}
                  for key, mass in atoms],
        "total_mass": frac_str(mu.total_mass),
    }
    rows = [[point_str(key), frac_str(mass), decimal_str(mass)]
            for key, mass in atoms]
    return CommandResult("measure", summary,
                         {"measure": (["atom", "mass", "mass_decimal"], rows)})


def _cmd_energy(inst: Instance, args) -> CommandResult:
    toric = _expect_kind(inst, "toric", "energy")
    m1, m2 = toric.metric_pair("energy")
    value = energy(m1, m2)
    summary = {
        "command": "energy",
        "instance": toric.name,
        "energy": frac_str(value),
        "energy_decimal": decimal_str(value),
    }
    return CommandResult("energy", summary, {})


def _resolve_schedule(args, inst_schedule: Optional[Sequence], fallback: Sequence,
                      parse: Callable[[str], List] = _parse_int_schedule) -> List:
    """--schedule parsed by parse, else the instance's schedule, else fallback."""
    if getattr(args, "schedule", None):
        return parse(args.schedule)
    return list(inst_schedule or fallback)


def _cmd_navol(inst: Instance, args) -> CommandResult:
    toric = _expect_kind(inst, "toric", "navol")
    m1, m2 = toric.metric_pair("navol")
    schedule = _resolve_schedule(
        args, toric.schedule, default_schedule(toric.polytope.ambient_dim))
    result = navol_run(m1, m2, schedule)
    summary = {
        "command": "navol",
        "instance": toric.name,
        "exact": frac_str(result.exact),
        "exact_decimal": decimal_str(result.exact),
        "estimate": frac_str(result.estimate),
        "semipositive_pair": result.semipositive_pair,
        "max_tail_gap": frac_str(result.max_gap),
    }
    rows = [[str(r.m), str(r.length), frac_str(r.normalized),
             decimal_str(r.normalized)] for r in result.rows]
    return CommandResult(
        "navol", summary,
        {"navol": (["m", "length", "normalized", "normalized_decimal"], rows)})


def _cmd_envelope(inst: Instance, args) -> CommandResult:
    toric = _expect_kind(inst, "toric", "envelope")
    psi = toric.single_metric("envelope")
    env = envelope(psi)
    pieces = list(env.blocks[0])
    summary = {
        "command": "envelope",
        "instance": toric.name,
        "input_semipositive": is_semipositive(psi),
        "pieces": [{"slope": [frac_str(c) for c in s],
                    "constant": frac_str(c0)} for s, c0 in pieces],
    }
    rows = [[point_str(s), frac_str(c0)] for s, c0 in pieces]
    return CommandResult("envelope", summary,
                         {"envelope": (["slope", "constant"], rows)})


def _cmd_ortho(inst: Instance, args) -> CommandResult:
    toric = _expect_kind(inst, "toric", "ortho-check")
    psi = toric.single_metric("ortho-check")
    rep = verify_orthogonality(psi, instance=toric.name)
    header, rows = _report_csv(rep)
    return CommandResult("ortho-check", _report_payload(rep),
                         {"ortho_check": (header, rows)}, passed=rep.passed)


def _cmd_diff(inst: Instance, args) -> CommandResult:
    toric = _expect_kind(inst, "toric", "diff-check")
    base = toric.metric_or_canonical("psi")
    pos = toric.metric("pos", "diff-check")
    neg = toric.metric("neg", "diff-check")
    eps = _resolve_schedule(args, toric.eps_schedule, DIFF_EPS, _parse_eps_schedule)
    rep = verify_differentiability(base, pos, neg, eps, instance=toric.name)
    header, rows = _report_csv(rep)
    return CommandResult("diff-check", _report_payload(rep),
                         {"diff_check": (header, rows)}, passed=rep.passed)


def _cmd_h0(inst: Instance, args) -> CommandResult:
    toric = _expect_kind(inst, "toric", "h0-check")
    psi = toric.single_metric("h0-check")
    schedule = _resolve_schedule(args, toric.schedule, H0_SCHEDULE)
    rep = verify_h0_envelope_equality(psi, schedule, instance=toric.name)
    header, rows = _report_csv(rep)
    return CommandResult("h0-check", _report_payload(rep),
                         {"h0_check": (header, rows)}, passed=rep.passed)


def _cmd_ma_solve(inst: Instance, args) -> CommandResult:
    tree_inst = _expect_kind(inst, "tree", "ma-solve")
    target = tree_inst.measure("target", "ma-solve")
    base = tree_inst.measure("base", "ma-solve")
    phi = ma_solve(tree_inst.tree, target, base)
    verified = verify_tree_solvability(tree_inst.tree, target, base).passed
    summary = {
        "command": "ma-solve",
        "instance": tree_inst.name,
        "values": {v: frac_str(phi.values[v]) for v in tree_inst.tree.vertices},
        "root": tree_inst.tree.root,
        "curvature_matches_target": verified,
    }
    rows = [[v, frac_str(phi.values[v]), decimal_str(phi.values[v])]
            for v in tree_inst.tree.vertices]
    return CommandResult("ma-solve", summary,
                         {"ma_solve": (["vertex", "value", "value_decimal"],
                                       rows)},
                         passed=verified)


def _cmd_cohomology(inst: Instance, args) -> CommandResult:
    surface = _expect_kind(inst, "surface", "cohomology")
    div = surface.divisor("D", "cohomology")
    schedule = _resolve_schedule(args, surface.schedule, COHOMOLOGY_SCHEDULE)
    qs = [surface.q] if surface.q is not None else None
    table = cohomology_table(surface.family, div, schedule, qs=qs)
    serre = table.serre_consistent()
    h1_ok = table.h1_all_nonnegative()
    summary = {
        "command": "cohomology",
        "instance": surface.name,
        "family": surface.family.name,
        "divisor_class": [frac_str(c) for c in div.total()],
        "serre_consistent": serre,
        "h1_all_nonnegative": h1_ok,
    }
    rows = [[str(m), str(q), str(h), frac_str(norm), decimal_str(norm)]
            for m, q, h, norm in table.rows]
    return CommandResult(
        "cohomology", summary,
        {"cohomology": (["m", "q", "h", "normalized", "normalized_decimal"],
                        rows)},
        passed=serre and h1_ok)


def _cmd_morse(inst: Instance, args) -> CommandResult:
    surface = _expect_kind(inst, "surface", "morse-check")
    d = surface.divisor("D", "morse-check")
    e = surface.divisor("E", "morse-check")
    q = surface.q if surface.q is not None else MORSE_Q
    schedule = _resolve_schedule(args, surface.schedule, MORSE_SCHEDULE)
    rep = morse_check(surface.family, d, e, q, schedule, instance=surface.name)
    summary = {
        "command": "morse-check",
        "instance": surface.name,
        "family": surface.family.name,
        "q": q,
        "leading": rep.exact["leading"],
        "fitted_constant": rep.exact["fitted_constant"],
        "passed": rep.passed,
    }
    return CommandResult("morse-check", summary,
                         {"morse_check": _report_csv(rep)}, passed=rep.passed)


def _cmd_perturb(inst: Instance, args) -> CommandResult:
    surface = _expect_kind(inst, "surface", "perturb-scan")
    if surface.scan is None:
        raise PreconditionError(
            "command 'perturb-scan' needs a 'scan' section in the instance")
    scan = surface.scan
    d_list = [surface.divisor(n, "perturb-scan") for n in scan.d_names]
    p_list = [surface.divisor(n, "perturb-scan") for n in scan.p_names]
    rep = perturbation_scan(surface.family, d_list, p_list, scan.q,
                            scan.grid_max, instance=surface.name)
    summary = {
        "command": "perturb-scan",
        "instance": surface.name,
        "family": surface.family.name,
        "q": scan.q,
        "fitted_constant": rep.exact["fitted_constant"],
        "passed": rep.passed,
    }
    return CommandResult("perturb-scan", summary,
                         {"perturb_scan": _report_csv(rep)}, passed=rep.passed)


# ---------------------------------------------------------------------------
# verify-all: packaged instances plus the seeded generator suite


def bundled_instance_texts() -> List[Tuple[str, str]]:
    pkg_files = resources.files("navol").joinpath("instances")
    out = []
    for entry in sorted(pkg_files.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append((entry.name, entry.read_text(encoding="utf-8")))
    return out


def _instance_checks(inst: Instance) -> List[VerificationReport]:
    reports: List[VerificationReport] = []
    if isinstance(inst, ToricInstance):
        if "psi1" in inst.metrics:
            m1, m2 = inst.metric_pair("verify-all")
            schedule = inst.schedule or default_schedule(
                inst.polytope.ambient_dim)
            reports.append(verify_vol_is_energy(m1, m2, schedule,
                                                instance=inst.name))
        else:
            psi = inst.single_metric("verify-all")
            reports.append(verify_orthogonality(psi, instance=inst.name))
            schedule = inst.schedule or list(H0_SCHEDULE)
            reports.append(verify_h0_envelope_equality(psi, schedule,
                                                       instance=inst.name))
    elif isinstance(inst, TreeInstance):
        reports.append(verify_tree_net_rows(
            inst.tree, *inst.net_mass_rows("verify-all"), instance=inst.name))
    elif isinstance(inst, SurfaceInstance):
        if "D" in inst.divisors and "E" in inst.divisors:
            reports.append(morse_check(
                inst.family, inst.divisors["D"], inst.divisors["E"],
                inst.q if inst.q is not None else MORSE_Q,
                inst.schedule or MORSE_SCHEDULE, instance=inst.name))
        if "D" in inst.divisors:
            reports.append(cohomology_consistency(
                inst.family, inst.divisors["D"],
                inst.schedule or COHOMOLOGY_SCHEDULE, instance=inst.name))
        if inst.scan is not None:
            reports.append(perturbation_scan(
                inst.family, [inst.divisors[n] for n in inst.scan.d_names],
                [inst.divisors[n] for n in inst.scan.p_names],
                inst.scan.q, inst.scan.grid_max, instance=inst.name))
    return reports


def _cmd_verify_all(args, extra_paths: Sequence[str]) -> CommandResult:
    seed = args.seed if args.seed is not None else 0
    instances: List[Instance] = []
    for name, text in bundled_instance_texts():
        instances.append(parse_instance_text(text, origin=name))
    for path in extra_paths:
        instances.append(parse_instance(path))

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
    return CommandResult(
        "verify_all", summary,
        {"verify_all": (["theorem", "instance", "status", "exact"], rows)},
        passed=passed)


# ---------------------------------------------------------------------------
# driver


_COMMAND_FNS: Dict[str, Callable] = {
    "measure": _cmd_measure,
    "energy": _cmd_energy,
    "navol": _cmd_navol,
    "envelope": _cmd_envelope,
    "ortho-check": _cmd_ortho,
    "diff-check": _cmd_diff,
    "h0-check": _cmd_h0,
    "ma-solve": _cmd_ma_solve,
    "cohomology": _cmd_cohomology,
    "morse-check": _cmd_morse,
    "perturb-scan": _cmd_perturb,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navol",
        description="Exact toolkit for discrete pluripotential theory on "
                    "polytopes, metric trees and toric surfaces.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("instance", nargs="*",
                        help="instance file(s); verify-all adds them to the "
                             "bundled suite, other commands take exactly one")
    parser.add_argument("--schedule",
                        help="comma list with ranges, e.g. 1-10,50,100 "
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
    csv_payloads = {}
    for series_name, (header, rows) in result.series.items():
        text = csv_text(header, rows)
        write_text(out_dir, f"{series_name}.csv", text)
        csv_payloads[series_name] = text
    if args.format == "csv":
        if csv_payloads:
            for text in csv_payloads.values():
                sys.stdout.write(text)
        else:
            sys.stdout.write(csv_text(["key", "value"],
                                      [[k, str(v)] for k, v in
                                       result.summary.items()
                                       if not isinstance(v, (list, dict))]))
    else:
        sys.stdout.write(summary_text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_intermixed_args(argv)
    try:
        if args.command == "verify-all":
            result = _cmd_verify_all(args, args.instance)
        else:
            if len(args.instance) != 1:
                parser.error(
                    f"command {args.command!r} takes exactly one instance file")
            inst = parse_instance(args.instance[0])
            result = _COMMAND_FNS[args.command](inst, args)
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
