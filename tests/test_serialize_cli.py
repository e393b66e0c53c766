"""Instance files, strict parsing diagnostics, and the command-line front
end with its exit-code contract (0 pass / 1 fail / 2 parse / 3 precondition)."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import navol.cli as cli
import navol.harness as harness
import navol.serialize as serialize
from navol.errors import InstanceFormatError, PreconditionError
from navol.harness import VerificationReport
from navol.serialize import (_as_rational, _Literals, _read_edges, csv_text,
                             decimal_str, parse_instance_text)
from navol.measures import DiscreteMeasure
from navol.rational import plain_pair
from navol.trees import MetricTree, net_mass_rows, potential_rows

from _oracles import (as_rational_oracle, first_primes, instance_json, ma_solve_oracle,
                      recession_at, serialize_instance, support_at, tree_adjacency,
                      tree_edges, tree_measures, tree_rows_oracle)

F = Fraction

TENT = {
    "kind": "toric",
    "polytope": [["0"], ["1"]],
    "metrics": {
        "psi1": [[{"slope": ["0"], "constant": "0"},
                  {"slope": ["1/2"], "constant": "1/2"},
                  {"slope": ["1"], "constant": "0"}]],
        "psi2": "canonical",
    },
}

DIFF = {
    "kind": "toric",
    "polytope": [["0"], ["1"]],
    "metrics": {
        "pos": [[{"slope": ["0"], "constant": "0"},
                 {"slope": ["1/2"], "constant": "1/2"},
                 {"slope": ["1"], "constant": "0"}]],
        "neg": "canonical",
        "canonical": "canonical",
    },
}


def _bundled():
    return dict(cli.bundled_instance_texts())


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


# --------------------------------------------------------------------------
# parsing and serialization
# --------------------------------------------------------------------------

def test_bundled_instances_exist_and_are_sorted():
    names = [name for name, _ in cli.bundled_instance_texts()]
    assert names == sorted(names)
    assert set(names) == {"box_bump.json", "bump_segment.json",
                          "square_shift.json", "surface_f1.json",
                          "surface_p1xp1.json", "surface_p2.json",
                          "tent_segment.json", "tree_star.json"}


def test_round_trip_is_idempotent_for_every_bundled_instance():
    for name, text in cli.bundled_instance_texts():
        first = serialize_instance(parse_instance_text(text, name))
        second = serialize_instance(
            parse_instance_text(json.dumps(first), name))
        assert first == second, name
        assert instance_json(parse_instance_text(text, name)) \
            == instance_json(parse_instance_text(json.dumps(first), name))


def test_unknown_top_level_field_names_the_path():
    bad = dict(TENT, bogus=1)
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(json.dumps(bad))
    assert "bogus" in str(err.value)


def test_unknown_nested_field_names_the_path():
    bad = json.loads(json.dumps(TENT))
    bad["metrics"]["psi1"][0][0]["slop"] = ["0"]
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(json.dumps(bad))
    msg = str(err.value)
    assert "slop" in msg and "psi1" in msg


def test_decimal_literals_are_refused_with_location():
    bad = json.loads(json.dumps(TENT))
    bad["metrics"]["psi1"][0][1]["constant"] = 0.5
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(json.dumps(bad))
    msg = str(err.value)
    assert "0.5" in msg and "constant" in msg


def test_nan_and_bad_rationals_are_refused():
    bad = json.loads(json.dumps(TENT))
    bad["metrics"]["psi1"][0][1]["constant"] = float("nan")
    with pytest.raises(InstanceFormatError):
        parse_instance_text(json.dumps(bad))
    for junk in ("1/0", "x/3", "", "1.5", "3e2"):
        worse = json.loads(json.dumps(TENT))
        worse["metrics"]["psi1"][0][1]["constant"] = junk
        with pytest.raises(InstanceFormatError):
            parse_instance_text(json.dumps(worse))


def test_unknown_kind_rejected():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(json.dumps({"kind": "mystery", "name": "x"}))
    assert "kind" in str(err.value)


def test_invalid_metric_reported_as_precondition_with_name():
    bad = json.loads(json.dumps(TENT))
    bad["metrics"]["psi1"][0][1]["slope"] = ["2"]
    with pytest.raises(PreconditionError) as err:
        parse_instance_text(json.dumps(bad))
    assert "psi1" in str(err.value)


def test_tree_instance_accessors():
    inst = parse_instance_text(_bundled()["tree_star.json"], "tree_star")
    assert inst.kind == "tree"
    measures = tree_measures(inst)
    assert measures["target"].total_mass == measures["base"].total_mass
    del inst.measure_atoms["base"]
    with pytest.raises(PreconditionError) as err:
        inst.net_mass_rows("ma-solve")
    assert str(err.value) == ("command 'ma-solve' needs a measure named 'base' "
                              "(instance has: target)")


def test_surface_instance_accessors():
    inst = parse_instance_text(_bundled()["surface_p1xp1.json"], "p1xp1")
    assert inst.kind == "surface"
    assert inst.family.name == "P1xP1"
    assert inst.divisor("D", "morse-check").total() == (F(2), F(1))
    assert inst.scan is not None and inst.scan.grid_max >= 2
    with pytest.raises(PreconditionError):
        inst.divisor("Z", "morse-check")


def test_metric_name_resolution():
    inst = parse_instance_text(json.dumps(TENT))
    pair = inst.metric_pair("energy")
    assert pair[0].evaluate((F(-1),)) == 0
    single = parse_instance_text(_bundled()["bump_segment.json"], "bump")
    psi = single.single_metric("measure")
    assert psi.blocks and len(psi.blocks) == 2


def test_decimal_rendering():
    assert decimal_str(F(1, 2)) == "0.5"
    assert decimal_str(F(5)) == "5.0"
    assert decimal_str(F(0)) == "0.0"
    assert decimal_str(F(-7, 4)) == "-1.75"
    assert decimal_str(F(1, 3)) == "0.333333333333"
    assert decimal_str(F(2, 3)) == "0.666666666667"


def test_csv_text_layout():
    text = csv_text(["a", "b"], [["1", "2"], ["3", "4"]])
    lines = text.splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == "a,b"
    assert lines[2:] == ["1,2", "3,4"]
    assert text.endswith("\n")


# --------------------------------------------------------------------------
# command-line exit codes and outputs
# --------------------------------------------------------------------------

def _run(args, tmp_path, capsys):
    rc = cli.main([*args, "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    return rc, out


def test_energy_command(tmp_path, capsys):
    psi1_only = dict(TENT, metrics={"psi1": TENT["metrics"]["psi1"]})
    named = dict(TENT, metrics={"psi1": TENT["metrics"]["psi1"],
                                "canonical": "canonical"})
    for name, instance in (("tent.json", TENT), ("psi1.json", psi1_only),
                           ("named.json", named)):
        path = _write(tmp_path, name, instance)
        rc, out = _run(["energy", path], tmp_path, capsys)
        assert rc == 0
        assert json.loads(out)["energy"] == "1/4"
    assert (tmp_path / "out" / "energy.json").exists()


def test_navol_command_csv_output(tmp_path, capsys):
    path = _write(tmp_path, "tent.json", TENT)
    for args in (["navol", path, "--schedule", "2-4", "--format", "csv"],
                 ["navol", "--schedule", "2-4", "--format", "csv", path]):
        rc, out = _run(args, tmp_path, capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == "m,length,normalized,normalized_decimal"
        assert lines[2] == "2,1,1/4,0.25"
        assert lines[3].startswith("3,2,2/9,")
        assert lines[4] == "4,4,1/4,0.25"


def test_measure_command(tmp_path, capsys):
    path = _write(tmp_path, "tent.json", TENT)
    rc, out = _run(["measure", path], tmp_path, capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["total_mass"] == "1"
    assert (tmp_path / "out" / "measure.csv").exists()


def test_envelope_command_reports_nonconvexity(tmp_path, capsys):
    bundle = _bundled()
    path = _write(tmp_path, "bump.json", bundle["bump_segment.json"])
    rc, out = _run(["envelope", path], tmp_path, capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["input_semipositive"] is False


def test_diff_check_command_with_eps_flag(tmp_path, capsys):
    unnamed = dict(DIFF, metrics={k: v for k, v in DIFF["metrics"].items()
                                  if k != "canonical"})
    for name, instance in (("diff.json", DIFF), ("unnamed.json", unnamed)):
        path = _write(tmp_path, name, instance)
        rc, out = _run(["diff-check", path, "--schedule", "1/2,1/4,1/8"],
                       tmp_path, capsys)
        assert rc == 0
        assert json.loads(out)["exact"]["derivative"] == "1/2"


def test_negative_eps_is_refused_as_malformed(tmp_path, capsys):
    # both entry points refuse the entry up front with the same error line
    # after the path, and exit 2, as a level schedule with m < 1 is refused
    path = _write(tmp_path, "diff.json", DIFF)
    listed = _write(tmp_path, "listed.json", dict(DIFF, eps_schedule=["1/2", "-1/4"]))
    for args, where in ((["diff-check", path, "--schedule", "1/2,-1/4"], "--schedule"),
                        (["diff-check", listed], "listed.json.eps_schedule")):
        rc = cli.main([*args, "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: {where}[1]: eps entry -1/4 is negative\n"


# name -> (command, instance, schedule field, --schedule text, the same
# entries as the field's JSON array); a negative eps is the test above
SHARED_SCHEDULE_REFUSALS = {
    "level-0": ("h0-check", TENT, "schedule", "2,0", [2, 0]),
    "no-levels": ("navol", TENT, "schedule", ",", []),
    "no-eps": ("diff-check", DIFF, "eps_schedule", "", []),
    "decimal-eps": ("diff-check", DIFF, "eps_schedule", "0.5", ["0.5"]),
    "exponent-eps": ("diff-check", DIFF, "eps_schedule", "1/2,1e-1", ["1/2", "1e-1"]),
    "fraction-level": ("navol", TENT, "schedule", "1/2", ["1/2"]),
    # int() alone reads these as 10 and 3; a file's schedule holds no such level
    "underscore-level": ("h0-check", TENT, "schedule", "1_0", ["1_0"]),
    "non-ascii-digit": ("navol", TENT, "schedule", "\u0663", ["\u0663"]),
}


@pytest.mark.parametrize("case", sorted(SHARED_SCHEDULE_REFUSALS))
def test_schedule_option_and_file_refuse_an_entry_alike(case, tmp_path, capsys):
    # one reader checks --schedule's entries and an instance's schedule, so
    # each entry is refused with the same line after the path
    command, instance, field_name, text, entries = SHARED_SCHEDULE_REFUSALS[case]
    plain = _write(tmp_path, "plain.json", instance)
    listed = _write(tmp_path, "listed.json", dict(instance, **{field_name: entries}))
    lines = []
    for args, where in (([plain, "--schedule", text], "--schedule"),
                        ([listed], f"listed.json.{field_name}")):
        rc = cli.main([command, *args, "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {where}") and err.count("\n") == 1, err
        lines.append(err[len(f"error: {where}"):])
    assert lines[0] == lines[1]


def test_ma_solve_and_surface_commands(tmp_path, capsys):
    bundle = _bundled()
    tree = _write(tmp_path, "tree.json", bundle["tree_star.json"])
    rc, out = _run(["ma-solve", tree], tmp_path, capsys)
    assert rc == 0
    p1xp1 = _write(tmp_path, "sf.json", bundle["surface_p1xp1.json"])
    rc, out = _run(["morse-check", p1xp1], tmp_path, capsys)
    assert rc == 0
    assert json.loads(out)["leading"] == "10"
    p2 = _write(tmp_path, "p2.json", bundle["surface_p2.json"])
    rc, out = _run(["perturb-scan", p2], tmp_path, capsys)
    assert rc == 0
    assert json.loads(out)["fitted_constant"] == "3/2"
    rc, out = _run(["cohomology", p1xp1], tmp_path, capsys)
    assert rc == 0


def test_json_stdout_is_the_written_summary(tmp_path, capsys):
    tree = _write(tmp_path, "tree.json", _bundled()["tree_star.json"])
    for args, name in ((["verify-all", "--seed", "3"], "verify_all.json"),
                       (["ma-solve", tree], "ma-solve.json")):
        rc, out = _run(args, tmp_path, capsys)
        assert rc == 0
        assert out == (tmp_path / "out" / name).read_text(encoding="utf-8")


def test_exit_code_2_on_parse_problems(tmp_path, capsys):
    garbled = _write(tmp_path, "garbled.json", "{not json")
    assert _run(["energy", garbled], tmp_path, capsys)[0] == 2
    unknown = _write(tmp_path, "unknown.json", dict(TENT, zzz=3))
    assert _run(["energy", unknown], tmp_path, capsys)[0] == 2
    assert _run(["energy", str(tmp_path / "missing.json")],
                tmp_path, capsys)[0] == 2
    tent = _write(tmp_path, "tent.json", TENT)
    assert _run(["navol", tent, "--schedule", "abc"], tmp_path, capsys)[0] == 2
    # a flag must be spelled out: argparse's prefix matching is off
    for args in (["navol", tent, "--sch", "1-3"], ["navol", tent, "--o", str(tmp_path / "o")],
                 ["verify-all", "--se", "3"]):
        rc = cli.main(args + ["--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, args
    assert not (tmp_path / "o").exists()
    cube = _write(tmp_path, "cube.json", {
        "kind": "toric",
        "polytope": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
        "metrics": {"psi": "canonical"}})
    rc = cli.main(["measure", cube, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


# (file bytes, error line) of files the JSON reader cannot take in: nesting
# past the recursion limit, bytes that are not UTF-8, and an integer longer
# than int() converts
UNREADABLE = {
    "deep": (b"[" * 200_000 + b"]" * 200_000,
             "error: deep.json: arrays or objects nested too deeply"),
    "not-utf8": (b'\xff\xfe{"kind": "tree"}',
                 "error: not-utf8.json: not UTF-8 text: invalid start byte at byte 0"),
    "long-int": (b'{"kind": "tree", "seed": ' + b"7" * 5000 + b"}",
                 "error: long-int.json: an integer literal has more than "
                 f"{sys.get_int_max_str_digits()} digits"),
}


@pytest.mark.parametrize("command", ["energy", "verify-all"])
@pytest.mark.parametrize("fault", sorted(UNREADABLE))
def test_unreadable_files_exit_2_with_one_line(fault, command, tmp_path, capsys):
    data, line = UNREADABLE[fault]
    path = tmp_path / f"{fault}.json"
    path.write_bytes(data)
    rc = cli.main([command, str(path), "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == line + "\n"


def test_exit_code_3_on_precondition_problems(tmp_path, capsys):
    bad = json.loads(json.dumps(TENT))
    bad["metrics"]["psi1"][0][1]["slope"] = ["2"]
    slope = _write(tmp_path, "slope.json", bad)
    assert _run(["energy", slope], tmp_path, capsys)[0] == 3
    tree = _write(tmp_path, "tree.json", _bundled()["tree_star.json"])
    assert _run(["measure", tree], tmp_path, capsys)[0] == 3
    tent = _write(tmp_path, "tent.json", TENT)
    assert _run(["ma-solve", tent], tmp_path, capsys)[0] == 3
    mismatch = json.loads(_bundled()["tree_star.json"])
    mismatch["measures"]["target"][0]["mass"] = "99"
    bad_tree = _write(tmp_path, "mismatch.json", mismatch)
    assert _run(["ma-solve", bad_tree], tmp_path, capsys)[0] == 3


def test_exit_code_1_on_failed_verification(tmp_path, capsys, monkeypatch):
    def fake(psi, instance="metric"):
        return VerificationReport(theorem="envelope-orthogonality",
                                  instance=instance, passed=False,
                                  exact={"residual": "1"}, series=[],
                                  runtime=0.0)
    monkeypatch.setattr(cli, "verify_orthogonality", fake)
    path = _write(tmp_path, "bump.json", _bundled()["bump_segment.json"])
    rc, _ = _run(["ortho-check", path], tmp_path, capsys)
    assert rc == 1


def test_ma_solve_fails_on_a_wrong_potential(tmp_path, capsys, monkeypatch):
    # the check re-solves on integer rows; moving leaf2's potential by one
    # unit leaves the slope on its edge wrong at both of its ends
    def nudged(tree, scale, net):
        phi_scale, phi = potential_rows(tree, scale, net)
        phi[tree.position["leaf2"]] += 1
        return phi_scale, phi

    monkeypatch.setattr(harness, "potential_rows", nudged)
    tree = _write(tmp_path, "tree.json", _bundled()["tree_star.json"])
    rc, out = _run(["ma-solve", tree], tmp_path, capsys)
    assert rc == 1
    assert json.loads(out)["curvature_matches_target"] is False


def test_exit_code_2_on_an_unwritable_out_dir(tmp_path, capsys):
    # an existing file, and a directory below it: artifacts cannot be written
    blocker = tmp_path / "blocker"
    blocker.write_text("x", encoding="utf-8")
    tent = _write(tmp_path, "tent.json", TENT)
    for args in (["verify-all", "--seed", "0"], ["energy", tent]):
        for out_dir in (blocker, blocker / "sub"):
            rc = cli.main([*args, "--out-dir", str(out_dir)])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
            assert len(errors) == 1 and str(out_dir) in errors[0]
            assert "Traceback" not in captured.err
    assert blocker.read_text(encoding="utf-8") == "x"


def test_out_dir_environment_variable(tmp_path, capsys, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("NAVOL_OUT_DIR", str(target))
    path = _write(tmp_path, "tent.json", TENT)
    rc = cli.main(["energy", path])
    capsys.readouterr()
    assert rc == 0
    assert (target / "energy.json").exists()


def _csv_bodies(root):
    bodies = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".csv"):
            with open(os.path.join(root, name)) as fh:
                bodies[name] = "".join(line for line in fh
                                       if not line.startswith("#"))
    return bodies


def test_verify_all_deterministic_and_parallel_equal(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        rc = cli.main(["verify-all", "--seed", "0",
                       "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert rc == 0
        outs.append(_csv_bodies(out_dir))
    assert outs[0] == outs[1]
    assert outs[0], "verify-all must write at least one CSV"


def _block(pieces):
    return [{"slope": s, "constant": c} for s, c in pieces]


# psi = min of two branches on a vertical segment in the plane
SEGMENT_IN_PLANE = {
    "kind": "toric", "polytope": [[0, 0], [0, 3]], "schedule": [1, 2, 3],
    "metrics": {"psi": [
        _block([([0, 0], "-1/3"), ([0, 3], 0)]),
        _block([([0, 0], -7), ([0, 3], "7/3"), ([0, "9/4"], -1), ([0, "3/4"], -1)])]}}


def test_checks_on_a_segment_in_the_plane_finish(tmp_path):
    # h0-check and ortho-check once ran for minutes on this instance; a child
    # process with a timeout turns a hang into a failure
    path = _write(tmp_path, "segment.json", SEGMENT_IN_PLANE)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for command in ("h0-check", "ortho-check"):
        done = subprocess.run(
            [sys.executable, "-m", "navol.cli", command, path,
             "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


def test_envelope_on_a_segment_in_the_plane_lists_only_hull_vertices(tmp_path, capsys):
    # the corners are the ends of the roof's cells on the segment; the wall
    # crossing u = (0, 60/71) lies inside the chain between (0, 3/4) and
    # (0, 48/37), so it is no piece of the envelope
    path = _write(tmp_path, "segment.json", SEGMENT_IN_PLANE)
    rc, out = _run(["envelope", path], tmp_path, capsys)
    assert rc == 0
    pieces = {(tuple(p["slope"]), p["constant"]) for p in json.loads(out)["pieces"]}
    assert pieces == {(("0", "0"), "-7"), (("0", "3/4"), "-1"),
                      (("0", "48/37"), "-7/37"), (("0", "3"), "0")}


def test_branches_with_slopes_outside_the_polytope_parse():
    # min(max(0, v), max(-v, 2v)) on [0, 1] is the support function of the
    # segment: its recession is the segment's, though slopes -1 and 2 lie
    # outside it
    instance = {"kind": "toric", "polytope": [[0], [1]], "metrics": {"psi": [
        _block([([0], 0), ([1], 0)]), _block([([-1], 0), ([2], 0)])]}}
    psi = parse_instance_text(json.dumps(instance)).single_metric("envelope")
    values = [psi.evaluate((F(k, 2),)) for k in range(-4, 5)]
    assert values == [0] * 5 + [F(k, 2) for k in range(1, 5)]


# --------------------------------------------------------------------------
# rational literals and tree files
# --------------------------------------------------------------------------

LITERALS = ["3/4", "-3/4", "+3/4", " 3/4 ", "3 / 4", "1/-2", "1/0", "0/7",
            "1_000/3", "\u0661/\u0662", "\u00b2/3", "", "/", "3/", "1.5", "1e3",
            "-0", "007/010", "1/\u0660", "\u2460", "12345678901234567890/3",
            "9" * 5000,
            0, 7, -12, 10 ** 30, True, False]


def _outcome(thunk):
    try:
        value = thunk()
    except InstanceFormatError as exc:
        return "error", str(exc)
    return "value", value, type(value)


def test_plain_literals_parse_like_fraction_strings():
    # the one-pass reader reads plain 'p/q' strings (through its literal
    # table) and JSON ints straight to ints, and hands any other literal to
    # the validator; on every literal it must agree with Fraction's own parser
    for literal in LITERALS:
        expected = _outcome(lambda: as_rational_oracle(literal, "f[0].length"))
        assert _outcome(lambda: _as_rational(literal, "f[0].length")) == expected
        rows = _outcome(lambda: _read_edges([{"ends": ["a", "b"], "length": literal}],
                                            _Literals(), "f"))
        assert rows == (expected if expected[0] == "error" else (
            "value", [("a", "b", expected[1].numerator, expected[1].denominator)], list))
        tree = {"kind": "tree",
                "tree": {"vertices": ["a", "b"],
                         "edges": [{"ends": ["a", "b"], "length": 1}]},
                "measures": {"m": [{"vertex": "a", "mass": literal}]}}
        parsed = _outcome(lambda: tree_measures(parse_instance_text(json.dumps(tree), "t"))
                          ["m"].total_mass)
        assert parsed == _outcome(
            lambda: as_rational_oracle(literal, "t.measures.m[0].mass"))


def _tree_mutation(change):
    instance = json.loads(_bundled()["tree_star.json"])
    change(instance)
    return instance


TREE_MUTATIONS = {
    "extra-edge-key": (
        lambda t: t["tree"]["edges"][0].update(color="red"),
        "error: tree.json.tree.edges[0].color: unknown field"),
    "three-ends": (
        lambda t: t["tree"]["edges"][1].update(ends=["center", "leaf2", "leaf3"]),
        "error: tree.json.tree.edges[1].ends: exactly two endpoints"),
    "non-string-end": (
        lambda t: t["tree"]["edges"][2].update(ends=["center", 3]),
        "error: tree.json.tree.edges[2].ends[1]: expected a string"),
    "float-length": (
        lambda t: t["tree"]["edges"][1].update(length=0.5),
        "error: tree.json.tree.edges[1].length: decimal literal '0.5' is not "
        "exact; write rationals as 'p/q' strings"),
    "unknown-atom-vertex": (
        lambda t: t["measures"]["target"][2].update(vertex="leaf9"),
        "error: tree.json.measures.target[2].vertex: unknown vertex"),
    "missing-mass": (
        lambda t: t["measures"]["base"][0].pop("mass"),
        "error: tree.json.measures.base[0]: missing required field 'mass'"),
    # vertex functions are no instance field: a file carrying them is
    # refused whole, whatever they hold
    "unknown-function-vertex": (
        lambda t: t.update(functions={"f": {"center": 0, "leaf1": 1, "leaf2": 2,
                                            "leaf3": 3, "leaf9": 4}}),
        "error: tree.json.functions: unknown field"),
    "missing-function-value": (
        lambda t: t.update(functions={"f": {"center": 0, "leaf1": 1, "leaf3": 3}}),
        "error: tree.json.functions: unknown field"),
}


@pytest.mark.parametrize("mutation", sorted(TREE_MUTATIONS))
def test_tree_file_errors_name_the_field(mutation, tmp_path, capsys):
    change, line = TREE_MUTATIONS[mutation]
    path = _write(tmp_path, "tree.json", _tree_mutation(change))
    rc = cli.main(["ma-solve", path, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == line + "\n"


# (change, exit code, error line) of tree files the edge checks, the field
# validators or the mass balance refuse
TREE_REFUSALS = {
    "zero-length": (
        lambda t: t["tree"]["edges"][0].update(length=0), 2,
        "error: tree.json.tree: edge (center, leaf1) needs a positive length"),
    "negative-length": (
        lambda t: t["tree"]["edges"][2].update(length="-4/2"), 2,
        "error: tree.json.tree: edge (center, leaf3) needs a positive length"),
    "zero-denominator": (
        lambda t: t["tree"]["edges"][1].update(length="1/0"), 2,
        "error: tree.json.tree.edges[1].length: bad rational literal '1/0': "
        "Fraction(1, 0)"),
    "repeated-edge": (
        lambda t: t["tree"]["edges"][2].update(ends=["leaf1", "center"]), 2,
        "error: tree.json.tree: edge (leaf1, center) appears twice"),
    "loop-edge": (
        lambda t: t["tree"]["edges"][0].update(ends=["leaf1", "leaf1"]), 2,
        "error: tree.json.tree: edge (leaf1, leaf1) is a loop"),
    "unknown-edge-end": (
        lambda t: t["tree"]["edges"][1].update(ends=["center", "leaf7"]), 2,
        "error: tree.json.tree: edge (center, leaf7) uses an unknown vertex"),
    "null-root": (
        lambda t: t["tree"].update(root=None), 2,
        "error: tree.json.tree.root: expected a string"),
    # edges[0] has the length 1: a true later on is no cached 1
    "boolean-length-after-one": (
        lambda t: t["tree"]["edges"][2].update(length=True), 2,
        "error: tree.json.tree.edges[2].length: expected a rational"),
    "boolean-mass": (
        lambda t: t["measures"]["target"][0].update(mass=True), 2,
        "error: tree.json.measures.target[0].mass: expected a rational"),
    "mass-mismatch": (
        lambda t: t["measures"]["target"][1].update(mass="4/3"), 3,
        "error: cannot solve: target mass 10/3 differs from base mass 3"),
    "missing-base": (
        lambda t: t["measures"].pop("base"), 3,
        "error: command '{command}' needs a measure named 'base' "
        "(instance has: target)"),
}


@pytest.mark.parametrize("command", ["ma-solve", "verify-all"])
@pytest.mark.parametrize("mutation", sorted(TREE_MUTATIONS) + sorted(TREE_REFUSALS))
def test_tree_refusals_read_the_same_on_both_commands(mutation, command,
                                                      tmp_path, capsys):
    # ma-solve and verify-all both read the measures as atom rows
    if mutation in TREE_MUTATIONS:
        (change, line), rc = TREE_MUTATIONS[mutation], 2
    else:
        change, rc, line = TREE_REFUSALS[mutation]
    path = _write(tmp_path, "tree.json", _tree_mutation(change))
    assert cli.main([command, path, "--out-dir", str(tmp_path / "out")]) == rc
    assert capsys.readouterr().err == line.format(command=command) + "\n"


def _assert_rows_match_the_fraction_route(instance):
    """The parsed tree's integer rows, its lazy edges and adjacency, and the
    measures' net rows equal those of the tree and measures built from
    Fractions."""
    inst = parse_instance_text(json.dumps(instance), "t.json")
    raw = instance["tree"]
    tree = MetricTree(raw["vertices"],
                      [(*e["ends"], F(e["length"])) for e in raw["edges"]],
                      root=raw.get("root"))
    for attr in ("order", "parent", "length_scale", "lengths",
                 "conductance_scale", "conductances"):
        assert getattr(inst.tree, attr) == getattr(tree, attr), attr
    target, base = (DiscreteMeasure([(a["vertex"], F(a["mass"]))
                                     for a in instance["measures"][name]])
                    for name in ("target", "base"))
    scale, net = inst.net_mass_rows("test")
    want_scale, want = net_mass_rows(tree, target, base)
    assert [F(x, scale) for x in net] == [F(x, want_scale) for x in want]
    assert tree_measures(inst) == {"target": target, "base": base}
    assert tree_edges(inst.tree) == tree_edges(tree)
    assert tree_adjacency(inst.tree) == tree_adjacency(tree)


def _prime_tree_instance(rng, primes, mass_primes):
    """Edge lengths over primes, masses over mass_primes, written as
    reduced, unreduced, signed or integer literals; repeated and cancelling
    atoms."""
    names = [f"v{i}" for i in range(len(primes) + 1)]

    def literal(k, p):
        return rng.choice([f"{k}/{p}", f"{2 * k}/{2 * p}", f"{k:+d}/{p}",
                           k if p == 1 else f"{k * p}/{p * p}"])

    edges = [{"ends": [names[rng.randrange(i)], names[i]][::rng.choice((1, -1))],
              "length": literal(rng.randint(1, 9), p)}
             for i, p in enumerate(primes, start=1)]
    target = [{"vertex": rng.choice(names),
               "mass": literal(rng.randint(-6, 6), rng.choice(mass_primes))}
              for _ in range(len(names))]
    v = rng.choice(names)
    target += [{"vertex": v, "mass": "5/7"}, {"vertex": v, "mass": "-10/14"}]
    total = sum(F(a["mass"]) for a in target)
    base = [{"vertex": rng.choice(names), "mass": "-0"},
            {"vertex": names[0], "mass": str(total - 2)},
            {"vertex": rng.choice(names), "mass": 2}]
    return {"kind": "tree",
            "tree": {"vertices": names, "edges": edges, "root": rng.choice(names)},
            "measures": {"target": target, "base": base}}


def test_parsed_rows_match_the_fraction_route_on_prime_trees():
    rng = random.Random(416)
    primes = first_primes(80)
    for count in (0, 1, 2, 9, 40, 80):
        for _ in range(3):
            chosen = [rng.choice(primes + [1]) for _ in range(count)]
            _assert_rows_match_the_fraction_route(
                _prime_tree_instance(rng, chosen, primes))


def _tree_outcome(text):
    """The parsed tree instance's rows, or the error line that refuses it."""
    try:
        inst = parse_instance_text(text, "t.json")
    except (InstanceFormatError, PreconditionError) as exc:
        return "error", str(exc)
    tree = inst.tree
    rows = (tree.vertices, tree.root, tree._edge_rows, tree.order, tree.parent,
            tree.length_scale, tree.lengths, tree.conductance_scale, tree.conductances)
    assert rows[3:] == tree_rows_oracle(tree)
    return rows, inst.measure_atoms


def _edge_fault(rng, t):
    edges, names = t["tree"]["edges"], t["tree"]["vertices"]
    e = rng.choice(edges)
    fault = rng.randrange(9)
    if fault == 0:
        e["length"] = rng.choice([True, False, None, 0.5, "1/0", " 1/2 ", "1_0/3", "0",
                                  "-3", "abc", [1], {"p": 1}, 10 ** 30, "+4/6"])
    elif fault == 1:
        e["ends"] = rng.choice(["ab", ["v0"], names[:3], [1, names[0]], [None, names[0]],
                                [0.5, names[0]], {"a": names[0]}])
    elif fault == 2:
        e["ends"] = [e["ends"][0]] * 2
    elif fault == 3:
        e["ends"] = [e["ends"][0], "nowhere"]
    elif fault == 4:
        e["ends"] = rng.choice(edges)["ends"][::-1]
    elif fault == 5:
        e[rng.choice(["color", "ends"])] = "red"
    elif fault == 6:
        e.pop(rng.choice(["ends", "length"]))
    elif fault == 7:
        edges[edges.index(e)] = rng.choice([[e["ends"], e["length"]], "edge", 3, None])
    else:
        edges.append({"ends": rng.sample(names, 2), "length": 1})


def _atom_fault(rng, t):
    atoms = t["measures"][rng.choice(["target", "base"])]
    a = rng.choice(atoms)
    fault = rng.randrange(5)
    if fault == 0:
        a["vertex"] = rng.choice(["nowhere", 3, None, True, 0.5, ["v0"]])
    elif fault == 1:
        a["mass"] = rng.choice([True, None, 0.5, "1/0", " 2 ", "2/-3", [1], "7"])
    elif fault == 2:
        a[rng.choice(["weight", "mass"])] = 1
    elif fault == 3:
        a.pop(rng.choice(["vertex", "mass"]))
    else:
        atoms[atoms.index(a)] = rng.choice([["v0", 1], "atom", 2])


def _tree_fault(rng, t):
    fault = rng.randrange(4)
    if fault == 0:
        t["tree"]["root"] = rng.choice([None, 5, "nowhere", 0.5, ["v0"]])
    elif fault == 1:
        names = t["tree"]["vertices"]
        names.append(rng.choice(names + [1, None]))
    else:
        (_edge_fault if fault == 2 else _atom_fault)(rng, t)


def _validators_only(m):
    """Route every tree entry through its validator."""
    m.setattr(serialize, "_read_edges", lambda raw, literals, path: [
        serialize._edge(e, f"{path}[{i}]")
        for i, e in enumerate(serialize._as_array(raw, path))])
    m.setattr(serialize, "_read_atoms", lambda raw, position, literals, path: [
        serialize._atom(a, f"{path}[{i}]", position)
        for i, a in enumerate(serialize._as_array(raw, path))])


def test_one_pass_reader_gives_the_validator_route_s_rows_and_lines(monkeypatch):
    # the one-pass reader and the validators alone give equal trees and atom
    # rows (and the oracle's), or the same error line, on seeded valid trees
    # and one seeded fault of each
    rng = random.Random(421)
    primes = first_primes(40)
    texts, lines = [], set()
    for count in (1, 2, 5, 12, 40):
        for _ in range(6):
            chosen = [rng.choice(primes + [1]) for _ in range(count)]
            valid = json.dumps(_prime_tree_instance(rng, chosen, primes))
            texts.append(valid)
            for _ in range(8):
                broken = json.loads(valid)
                _tree_fault(rng, broken)
                texts.append(json.dumps(broken))
    for text in texts:
        fast = _tree_outcome(text)
        with monkeypatch.context() as m:
            _validators_only(m)
            assert _tree_outcome(text) == fast
        if fast[0] == "error":
            lines.add(re.sub(r"\[\d+\]|\(.*\)|'.*'|root \S+", "", fast[1]))
    assert len(lines) >= 20, sorted(lines)


def test_an_entry_the_pass_refuses_is_the_only_one_validated(monkeypatch):
    # a 1,500-edge path whose edge k has a length that is not plain: the pass
    # reads every other entry, the validator reads edge k alone, at its own
    # path, and the rows are the validators'
    names = [f"v{i}" for i in range(1501)]
    edge, paths = serialize._edge, []
    monkeypatch.setattr(serialize, "_edge",
                        lambda e, epath: paths.append(epath) or edge(e, epath))
    for k in (0, 731, 1499):
        edges = [{"ends": [names[i], names[i + 1]], "length": f"{i % 7 + 1}/{i % 5 + 2}"}
                 for i in range(1500)]
        edges[k]["length"] = " 4/6 "
        paths.clear()
        rows = _tree_outcome(json.dumps(
            {"kind": "tree", "tree": {"vertices": names, "edges": edges}}))[0][2]
        assert paths == [f"t.json.tree.edges[{k}]"]
        assert rows == [edge(e, "e") for e in edges] and rows[k][2:] == (2, 3)


# values a tree file may hold in a wrong place: wrong types, booleans, zero
# and negative lengths, literals that are not plain, loops and lone ends
NASTY = st.sampled_from([True, False, None, 0, -1, 1, "0", "-1/2", "1/0", " 1/2 ",
                         "1.5", 0.5, 10 ** 30, "", "v0", "center", [], {}, ["v0"],
                         ["v0", "v0"], ["center", "leaf1"], {"ends": 1}])


def _containers(node):
    """Every object and array inside node, node first."""
    found = [node]
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            found += _containers(child)
    return found


def _mutate(data, t):
    """One drawn change: a value replaced, a key dropped or added, an entry
    appended, or an edge turned into a loop or a repeat of another."""
    edges = [e for e in _containers(t) if isinstance(e, dict) and "ends" in e]
    kind = data.draw(st.sampled_from(["value", "drop", "extra", "append", "loop",
                                      "repeat"]))
    if kind in ("loop", "repeat") and edges:
        e = data.draw(st.sampled_from(edges))
        ends = data.draw(st.sampled_from(edges))["ends"]
        if isinstance(ends, list) and ends:
            e["ends"] = [ends[0]] * 2 if kind == "loop" else ends[::-1]
        return
    node = data.draw(st.sampled_from(_containers(t)))
    if kind == "append" and isinstance(node, list):
        node.append(data.draw(NASTY | st.sampled_from([*node, {"vertex": "v0", "mass": 1}])))
    elif kind == "extra" and isinstance(node, dict):
        node["extra"] = 1
    elif node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        if kind == "drop":
            del node[key]
        else:
            node[key] = data.draw(NASTY)


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_tree_files_keep_the_exit_code_contract(data, tmp_path_factory):
    # bundled and seeded tree files with drawn faults: ma-solve and
    # verify-all exit 0-3 without a traceback, and 1 only with a FAIL line
    seed = data.draw(st.integers(0, 40))
    t = (json.loads(_bundled()["tree_star.json"]) if seed == 0 else _prime_tree_instance(
        random.Random(seed), first_primes(seed % 7), first_primes(5)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, t)
    tmp = tmp_path_factory.mktemp("mutated-tree")
    path = tmp / "tree.json"
    path.write_text(json.dumps(t), encoding="utf-8")
    for command in ("ma-solve", "verify-all"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([command, str(path), "--out-dir", str(tmp / "out")])
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert rc != 1 or "[FAIL] " in err.getvalue()
        assert rc < 2 or err.getvalue().startswith("error: ")


# a tree whose lengths and masses repeat the strings "1/2", "0" and "1"
REPEATED_LITERALS = {
    "kind": "tree",
    "tree": {"vertices": ["a", "b", "c", "d"],
             "edges": [{"ends": ["a", "b"], "length": "1/2"},
                       {"ends": ["b", "c"], "length": "1/2"},
                       {"ends": ["c", "d"], "length": 3}],
             "root": "a"},
    "measures": {"target": [{"vertex": "a", "mass": "1/2"},
                            {"vertex": "b", "mass": "0"},
                            {"vertex": "c", "mass": "1/2"}],
                 "base": [{"vertex": "d", "mass": "1"},
                          {"vertex": "a", "mass": "0"}]},
}


def test_a_tree_parse_reads_each_distinct_literal_once(monkeypatch):
    read = []

    def counting(text):
        read.append(text)
        return plain_pair(text)

    monkeypatch.setattr(serialize, "plain_pair", counting)
    module_state = dict(vars(serialize))
    text = json.dumps(REPEATED_LITERALS)
    inst = parse_instance_text(text, "tree.json")
    assert sorted(read) == ["0", "1", "1/2"]
    assert tree_edges(inst.tree) == [("a", "b", F(1, 2)), ("b", "c", F(1, 2)),
                                     ("c", "d", F(3))]
    assert inst.measure_atoms == {"target": [(0, 1, 2), (1, 0, 1), (2, 1, 2)],
                                  "base": [(3, 1, 1), (0, 0, 1)]}
    # the memo lives for one parse: a second parse reads every literal again
    parse_instance_text(text, "tree.json")
    assert sorted(read) == ["0", "0", "1", "1", "1/2", "1/2"]
    assert vars(serialize) == module_state


def test_zero_string_is_a_mass_but_not_a_length(tmp_path, capsys):
    path = _write(tmp_path, "tree.json", REPEATED_LITERALS)
    assert cli.main(["ma-solve", path, "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    zero = json.loads(json.dumps(REPEATED_LITERALS))
    zero["tree"]["edges"][0]["length"] = "0"
    path = _write(tmp_path, "tree.json", zero)
    for command in ("ma-solve", "verify-all"):
        assert cli.main([command, path, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: tree.json.tree: edge (a, b) needs a positive length\n")


def test_a_thousand_distinct_prime_denominators(tmp_path, capsys):
    # every edge length has its own prime denominator, so the common
    # denominator of the tree's integer rows has about 11,000 bits
    rng = random.Random(415)
    names = [f"v{i}" for i in range(1001)]
    edges = [{"ends": [names[rng.randrange(i)], names[i]],
              "length": f"{rng.randint(1, 9)}/{p}"}
             for i, p in enumerate(first_primes(1000), start=1)]
    target = [{"vertex": v, "mass": f"{rng.randint(-6, 6)}/{rng.randint(1, 3)}"}
              for v in names]
    total = sum(F(atom["mass"]) for atom in target)
    instance = {"kind": "tree",
                "tree": {"vertices": names, "edges": edges, "root": "v0"},
                "measures": {"target": target,
                             "base": [{"vertex": "v0", "mass": str(total)}]}}
    _assert_rows_match_the_fraction_route(instance)
    path = _write(tmp_path, "hard.json", instance)
    rc, out = _run(["ma-solve", path], tmp_path, capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["curvature_matches_target"] is True
    inst = parse_instance_text(json.dumps(instance))
    measures = tree_measures(inst)
    expected = ma_solve_oracle(inst.tree, measures["target"], measures["base"])
    assert {v: F(x) for v, x in payload["values"].items()} == expected
    rc, _ = _run(["verify-all", path], tmp_path, capsys)
    assert rc == 0


def test_rejected_metric_names_the_direction():
    # max(0, 2v) grows like 2v where the canonical metric of [0, 1] grows
    # like v (and like v/2 on [0, 1/2]); constants over 3 and 7 change no
    # recession
    for right, support, consts in ((1, "1", (0, 0)), ("1/2", "1/2", (0, 0)),
                                   ("1/2", "1/2", ("1/3", "-2/7"))):
        instance = {"kind": "toric", "polytope": [[0], [right]],
                    "metrics": {"psi": [_block([([0], consts[0]), ([2], consts[1])])]}}
        with pytest.raises(PreconditionError) as err:
            parse_instance_text(json.dumps(instance))
        assert str(err.value) == (
            "metric 'psi': metric is not within bounded distance of the "
            f"canonical metric: rec(w) = 2 but h_P(w) = {support} at w = (1)")


def test_rejected_metric_in_the_plane_names_a_direction_that_differs(tmp_path, capsys):
    # on the square, the second branch has no slope at the vertex (1, 1), so
    # its slope hull is a triangle and rec(w) < h_P(w) for w near (1, 1)
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    blocks = [[(v, 0) for v in square], [([0, 0], 0), ([1, 0], 0), ([0, 1], "1/2")]]
    instance = {"kind": "toric", "polytope": square,
                "metrics": {"psi": [_block(b) for b in blocks]}}
    with pytest.raises(PreconditionError) as err:
        parse_instance_text(json.dumps(instance))
    match = re.fullmatch(
        r"metric 'psi': metric is not within bounded distance of the canonical "
        r"metric: rec\(w\) = (\S+) but h_P\(w\) = (\S+) at w = \((\S+), (\S+)\)",
        str(err.value))
    assert match is not None, str(err.value)
    rec, sup, *w = (F(x) for x in match.groups())
    assert rec == recession_at(blocks, w) != sup == support_at(square, w)
    path = _write(tmp_path, "square.json", instance)
    assert _run(["energy", path], tmp_path, capsys)[0] == 3


# --------------------------------------------------------------------------
# malformed and refused arguments, seed fields and exact results too long to
# print
# --------------------------------------------------------------------------

# (command, instance, --schedule text, error line) of schedules refused as
# malformed (exit 2)
BAD_SCHEDULES = {
    "bad-range": ("navol", TENT, "1-x", "error: bad schedule range '1-x'"),
    "empty-range": ("navol", TENT, "5-3", "error: empty schedule range '5-3'"),
    "underscore-range": ("h0-check", TENT, "1_0-20", "error: bad schedule range '1_0-20'"),
    "bad-entry": ("navol", TENT, "1/2", "error: --schedule[0]: expected an integer"),
    "zero-level": ("h0-check", TENT, "0,2", "error: --schedule[0]: schedule entries are >= 1"),
    "negative-level": ("navol", TENT, "2,-3",
                       "error: --schedule[1]: schedule entries are >= 1"),
    "no-levels": ("navol", TENT, ",", "error: --schedule: schedule must be nonempty"),
    "empty-text": ("h0-check", TENT, "", "error: --schedule: schedule must be nonempty"),
    "no-eps": ("diff-check", DIFF, ",", "error: --schedule: schedule must be nonempty"),
    "eps-range": ("diff-check", DIFF, "1-4", "error: --schedule[0]: bad rational literal "
                  "'1-4': Invalid literal for Fraction: '1-4'"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCHEDULES))
def test_malformed_schedules_exit_2_with_one_line(case, tmp_path, capsys):
    command, instance, schedule, line = BAD_SCHEDULES[case]
    path = _write(tmp_path, "inst.json", instance)
    rc = cli.main([command, path, "--schedule", schedule, "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == line + "\n"


def test_a_schedule_past_the_level_limit_is_refused_before_it_is_expanded(tmp_path, capsys):
    limit = cli.SCHEDULE_LEVEL_LIMIT
    assert cli._levels(f"1-{limit}", None, [1]) == list(range(1, limit + 1))
    path = _write(tmp_path, "tent.json", TENT)
    # the first range is longer than a list can be, so expanding it at all
    # would raise; the others pass the limit by one level
    for schedule in ("1-100000000000000000000", f"1-{limit + 1}", f"2,3,1-{limit - 1}",
                     f"1-{limit},7"):
        rc = cli.main(["navol", path, "--schedule", schedule, "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err == f"error: --schedule lists more than {limit} levels\n"


@pytest.mark.parametrize("count", [0, 2])
def test_a_command_takes_exactly_one_instance_file(count, tmp_path, capsys):
    paths = [_write(tmp_path, f"tent{i}.json", TENT) for i in range(count)]
    rc = cli.main(["energy", *paths, "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: command 'energy' takes exactly one instance file\n"
    assert not (tmp_path / "out").exists()


# (command, flag) of every flag a command does not read
REFUSED_FLAGS = [(command, flag) for command in cli.COMMANDS
                 for flag, reads in (("--schedule", command in cli.SCHEDULED),
                                     ("--seed", command == "verify-all"))
                 if not reads]


@pytest.mark.parametrize("command, flag", REFUSED_FLAGS)
def test_a_flag_the_command_does_not_read_exits_2_with_one_line(command, flag,
                                                                tmp_path, capsys):
    # the file does not exist: the refusal comes before any file is opened
    missing = str(tmp_path / "missing.json")
    out_dir = tmp_path / "out"
    rc = cli.main([command, missing, flag, "2", "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"error: command {command!r} takes no {flag}\n"
    assert not out_dir.exists()


# command -> (instance file, a --schedule that must change its output); no
# bundled file carries the pos and neg metrics diff-check reads
SCHEDULE_CHANGES = {
    "navol": ("tent_segment.json", "1-3"),
    "diff-check": ("diff.json", "1/2,1/3"),
    "h0-check": ("bump_segment.json", "1-3"),
    "cohomology": ("surface_p2.json", "1-3"),
    "morse-check": ("surface_f1.json", "1-3"),
}


@pytest.mark.parametrize("command", cli.SCHEDULED)
def test_every_scheduled_command_reads_its_schedule(command, tmp_path, capsys):
    name, schedule = SCHEDULE_CHANGES[command]
    path = _write(tmp_path, name, _bundled().get(name, DIFF))
    bodies = []
    for extra in ([], ["--schedule", schedule]):
        rc, out = _run([command, path, "--format", "csv", *extra], tmp_path, capsys)
        assert rc == 0
        bodies.append(out.split("\n", 1)[1])  # the series, below its timestamp
    assert bodies[0] != bodies[1]


@pytest.mark.parametrize("name", ["tent_segment.json", "tree_star.json",
                                  "surface_p2.json"])
def test_a_seed_field_is_refused_with_its_path(name, tmp_path, capsys):
    # no instance kind has a seed: only verify-all's --seed draws instances
    path = _write(tmp_path, name, dict(json.loads(_bundled()[name]), seed=7))
    assert cli.main(["verify-all", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {name}.seed: unknown field\n"


# two 4,001-digit denominators: the reader takes them, but an exact result
# over their product has about 8,000 digits, past what str() converts; and
# 4,300-digit constants, whose lattice lengths at m = 1000 are longer
LENGTH = f"1/{10 ** 4000 + 1}"
MASS = f"1/{10 ** 4000 + 3}"
LONG_PAIR = {"kind": "toric", "polytope": [[0], [1]],
             "metrics": {"psi1": [[{"slope": [0], "constant": LENGTH},
                                   {"slope": [1], "constant": 0}]],
                         "psi2": [[{"slope": [0], "constant": MASS},
                                   {"slope": [1], "constant": 0}]]}}
LONG_TREE = {"kind": "tree",
             "tree": {"vertices": ["a", "b"],
                      "edges": [{"ends": ["a", "b"], "length": LENGTH}]},
             "measures": {"target": [{"vertex": "b", "mass": MASS}],
                          "base": [{"vertex": "a", "mass": MASS}]}}
BIG = str(10 ** 4299)
BIG_CONSTANTS = {"kind": "toric", "polytope": [[0], [1]],
                 "metrics": {"psi1": [[{"slope": [0], "constant": BIG},
                                       {"slope": [1], "constant": BIG}]]}}
# name -> (command line before the file, instance, command line after it)
TOO_LONG = {
    "ma-solve": ("ma-solve", LONG_TREE, []),
    "energy": ("energy", LONG_PAIR, []),
    "navol": ("navol", LONG_PAIR, ["--schedule", "1-3"]),
    "navol-length": ("navol", BIG_CONSTANTS, ["--schedule", "1000"]),
}


@pytest.mark.parametrize("case", sorted(TOO_LONG))
def test_results_too_long_to_print_exit_3_with_one_line(case, tmp_path, capsys):
    command, instance, extra = TOO_LONG[case]
    path = _write(tmp_path, "long.json", instance)
    rc = cli.main([command, path, *extra, "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == ("error: an exact result has an integer of more than "
                   f"{sys.get_int_max_str_digits()} digits\n")


# name -> (command, file name, command line after the file) of the fitted
# checks given one level: none would be left to verify the fitted constant
ONE_LEVEL = {
    "diff-check": ("diff-check", "diff.json", ["--schedule", "1/2"]),
    "morse-check": ("morse-check", "surface_f1.json", ["--schedule", "5"]),
}


@pytest.mark.parametrize("case", sorted(ONE_LEVEL))
def test_a_fitted_check_on_one_level_exits_3_with_one_line(case, tmp_path, capsys):
    command, name, extra = ONE_LEVEL[case]
    files = {**_bundled(), "diff.json": DIFF}
    path = _write(tmp_path, name, files[name])
    rc = cli.main([command, path, *extra, "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == "error: a fitted check needs at least two levels, got 1\n"


# (command, file name, instance, error line) of the argparse errors: each is
# one line, as every other refusal with exit 2
BAD_ARGUMENTS = {
    "unknown-command": (
        ["bogus", "x.json"],
        "error: argument command: invalid choice: 'bogus' (choose from "
        + ", ".join(repr(c) for c in cli.COMMANDS) + ")"),
    "bad-seed": (["verify-all", "--seed", "abc"],
                 "error: argument --seed: invalid int value: 'abc'"),
    "unknown-flag": (["energy", "x.json", "--bogus"],
                     "error: unrecognized arguments: --bogus"),
    "no-command": ([], "error: the following arguments are required: command, instance"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_argument_errors_exit_2_with_one_line(case, tmp_path, capsys):
    args, line = BAD_ARGUMENTS[case]
    out_dir = tmp_path / "out"
    rc = cli.main([*args, "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == line + "\n"
    assert not out_dir.exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: navol")


SURFACE = json.loads(_bundled()["surface_p2.json"])
TREE = json.loads(_bundled()["tree_star.json"])


DROP = object()


def _with(instance, path, value):
    """A deep copy of instance with the field at path (keys and indices) set
    to value, or removed when value is DROP."""
    copy = json.loads(json.dumps(instance))
    *head, last = path
    parent = copy
    for key in head:
        parent = parent[key]
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    return copy


PIECE = ("metrics", "psi1", 0, 0)
# name -> (instance, field path, new value, error line after "error: f.json")
MALFORMED_FILES = {
    "not-an-object": (TENT, ("metrics",), [], ".metrics: expected an object"),
    "not-an-array": (TENT, ("polytope",), "box", ".polytope: expected an array"),
    "not-an-integer": (TENT, ("schedule",), ["1"], ".schedule[0]: expected an integer"),
    "list-as-rational": (TENT, (*PIECE, "constant"), [1],
                         ".metrics.psi1[0][0].constant: expected a rational as "
                         "integer or 'p/q' string"),
    "q-out-of-range": (SURFACE, ("q",), 3, ".q: must be between 0 and 2"),
    "empty-point": (TENT, ("polytope", 0), [], ".polytope[0]: a point needs coordinates"),
    "level-below-1": (TENT, ("schedule",), [2, 0],
                      ".schedule[1]: schedule entries are >= 1"),
    "empty-schedule": (TENT, ("schedule",), [], ".schedule: schedule must be nonempty"),
    "empty-eps-schedule": (DIFF, ("eps_schedule",), [],
                           ".eps_schedule: schedule must be nonempty"),
    "bad-shorthand": (TENT, ("metrics", "psi2"), "flat",
                      ".metrics.psi2: metric shorthand must be 'canonical'"),
    "empty-metric": (TENT, ("metrics", "psi1"), [],
                     ".metrics.psi1: a metric needs at least one block"),
    "empty-block": (TENT, ("metrics", "psi1", 0), [],
                    ".metrics.psi1[0]: a block needs at least one piece"),
    "slope-arity": (TENT, (*PIECE, "slope"), ["0", "1"],
                    ".metrics.psi1[0][0].slope: needs 1 coordinates"),
    "empty-polytope": (TENT, ("polytope",), [], ".polytope: needs at least one vertex"),
    "mixed-dimension": (TENT, ("polytope",), [["0"], ["1", "0"]],
                        ".polytope: points of mixed dimension"),
    "unknown-family": (SURFACE, ("family",), "P3",
                       ".family: unsupported family 'P3'; use P1, P2, P1xP1 or Fa (a >= 0)"),
    # str.isdigit passes these, int() refuses them
    "superscript-family": (SURFACE, ("family",), "F\u00b2",
                           ".family: unsupported family 'F\u00b2'; "
                           "use P1, P2, P1xP1 or Fa (a >= 0)"),
    "family-too-long": (SURFACE, ("family",), "F" + "1" * 5000,
                        ".family: unsupported family 'F" + "1" * 5000
                        + "'; use P1, P2, P1xP1 or Fa (a >= 0)"),
    "divisor-basis": (SURFACE, ("divisors", "D", 0, "class"), [1, 0],
                      ".divisors.D: basis divisor (1, 0) needs 1 coordinates"),
    "scan-unknown-divisor": (SURFACE, ("scan", "p", 0), "Z",
                             ".scan: references unknown divisor 'Z'"),
    "grid-max-below-2": (SURFACE, ("scan", "grid_max"), 1, ".scan.grid_max: must be >= 2"),
    "grid-max-above-256": (SURFACE, ("scan", "grid_max"), 257,
                           ".scan.grid_max: must be <= 256, as the scan evaluates "
                           "grid_max*(grid_max+1) cells"),
    "no-kind": (TREE, ("kind",), DROP, ": missing required field 'kind'"),
    "repeated-vertex": (TREE, ("tree", "vertices", 1), "center",
                        ".tree: tree has repeated vertex ids"),
    "no-vertices": (_with(TREE, ("measures",), DROP), ("tree",),
                    {"vertices": [], "edges": []}, ".tree: tree needs at least one vertex"),
    "unknown-root": (TREE, ("tree", "root"), "leaf9", ".tree: root leaf9 is not a vertex"),
    "disconnected": (TREE, ("tree", "edges", 2, "ends"), ["leaf1", "leaf2"],
                     ".tree: tree is not connected"),
}


def test_the_largest_scan_grid_is_accepted():
    inst = parse_instance_text(json.dumps(_with(SURFACE, ("scan", "grid_max"), 256)), "s")
    assert inst.scan.grid_max == 256


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_files_exit_2_with_one_line_naming_the_field(case, tmp_path, capsys):
    instance, field_path, value, line = MALFORMED_FILES[case]
    command = {"toric": "energy", "surface": "cohomology"}.get(instance["kind"], "ma-solve")
    path = _write(tmp_path, "f.json", _with(instance, field_path, value))
    rc = cli.main([command, path, "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: f.json" + line + "\n"


def test_spaced_and_underscored_edge_lengths_parse_like_plain_ones():
    # " 1/2 " and "1_0/3" are no plain literals: the field validator reads them
    plain = _with(_with(TREE, ("tree", "edges", 1, "length"), "1/2"),
                  ("tree", "edges", 2, "length"), "10/3")
    spaced = _with(_with(TREE, ("tree", "edges", 1, "length"), " 1/2 "),
                   ("tree", "edges", 2, "length"), "1_0/3")
    want, got = (parse_instance_text(json.dumps(t), "t.json").tree for t in (plain, spaced))
    assert tree_edges(got) == tree_edges(want)
    assert (got.length_scale, got.lengths) == (want.length_scale, want.lengths)


def test_a_lone_canonical_metric_is_the_single_metric(tmp_path, capsys):
    lone = dict(TENT, metrics={"flat": "canonical"})
    inst = parse_instance_text(json.dumps(lone), "lone.json")
    assert inst.single_metric("measure") is inst.metrics["flat"]
    two = dict(TENT, metrics={"a": "canonical", "b": "canonical"})
    path = _write(tmp_path, "two.json", two)
    rc = cli.main(["measure", path, "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == ("error: command 'measure' needs a metric named 'psi' "
                   "(instance has: a, b)\n")
