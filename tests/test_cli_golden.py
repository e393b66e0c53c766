"""Golden outputs of every `navol` command: the exit code, stdout, stderr and
each artifact, hashed per command.

Each command but verify-all runs on the bundled instances plus a diff-check
file and a surface file with neither `q` nor a schedule, in both formats,
with no `--schedule`, with `1-4` and with `1/2,1/4` (660 runs); verify-all
runs at seeds 0 and 3. Wrong instance kinds, missing metrics, malformed
schedules and `--schedule` on a command that does not read it are part of
the record: their exit codes and error lines are pinned too. The
`# generated` timestamp line and every `runtime_seconds` value are masked
before hashing.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil

import navol.cli as cli

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

SURFACE = {
    "kind": "surface",
    "family": "F2",
    "divisors": {"D": [{"coeff": "3/2", "class": [1, 3]}],
                 "E": [{"coeff": 1, "class": [1, 2]}]},
    "scan": {"d": ["D"], "p": ["E"], "q": 1, "grid_max": 5},
}

SCHEDULES = (None, "1-4", "1/2,1/4")

# SHA-256 per command over its runs, recorded before the command table
# replaced the per-command wrappers; measure, energy, envelope, ortho-check,
# ma-solve and perturb-scan re-recorded when their `--schedule` runs began
# to exit 2; diff-check re-recorded when its `--schedule` entries began to go
# through the instance file's schedule reader, whose error line for `1-4`
# names the entry as `--schedule[0]` (its only two runs that changed); navol,
# h0-check, cohomology and morse-check re-recorded when a level that is not
# an integer began to reach that reader too, so `--schedule 1/2,1/4` prints
# `error: --schedule[0]: expected an integer`, the line a file's "1/2" gives,
# instead of `error: bad schedule entry '1/2'` (their only 30 runs that
# changed); verify-all re-recorded when the seeded suite dropped its copies
# of the bundled files' instances, the rows (vol-is-energy, tent),
# (vol-is-energy, square-shift), (envelope-orthogonality, bump) and
# (h0-envelope-equality, bump), and every other row kept its bytes, and
# again when vol-is-energy became one exact identity at the pair's Ehrhart
# period (its rows carry energy and period, its series n+2 levels) and each
# seeded check began to draw its instances from its own stream, and again
# when the suite dropped its `length-cocycle` row and the tree reports their
# `laplacian_mass` field; h0-check and verify-all re-recorded when
# h0-envelope-equality began to compare the two roofs at their cell corners,
# so its reports gained `corner_defects` and its series became the one
# length at the schedule's top level
GOLDEN = {
    "measure":
        "c03016349c0a4938a6302a4b1e6b5268d9204e9b65b4944c578e4d49d38b55e2",
    "energy":
        "5891479c9bc5af516d242d9e8e44a733e40e319494bd13d0da8b72390b9c7627",
    "navol":
        "c6722b0c492e2de9c7e2c96cd7b63dbeed65b22372e252eb062bdfd69df4641a",
    "envelope":
        "d36f79e9f8d52700ff41519bf4cc618b59f3f63bb507cef3acaf131bdac67b9c",
    "ortho-check":
        "d905424db762b713e342864d9f3a41db556603a031107e1c2e1fcf7782ce5bfc",
    "diff-check":
        "e9ae6853860c56f3b6c25c5201742bac4e206cf26cd7c3ea3c10f0c2e5ecaeba",
    "h0-check":
        "c18df9840b11fbf88b10794b28066f641d9eab5b5f0428e472b076d94dd2c52b",
    "ma-solve":
        "728d09f83d9f1a3ec2919c6de202647e1cfb5829735ec914c966327de0476bae",
    "cohomology":
        "24a4624dd597d9f76c911031c135ed0176631e5a57d2d2e5269a710cb0a85648",
    "morse-check":
        "ad603631bce1cd1138fa2db6d6dd4310842137e6ef75a4a61ebfcbbe4bdcd361",
    "perturb-scan":
        "b44a085ae8b051f7c68a5510823cc1d2a1bfa409115bf17f7f859649d34e57fc",
    "verify-all":
        "90c390062f75f300977657ee555e5a0451ec6e1a6be4221e3cf9de64ebc195c5",
}

_STAMP = re.compile(r"# generated [^\n]*")
_RUNTIME = re.compile(r'"runtime_seconds": [^,\n}]+')


def _masked(text, root):
    text = _STAMP.sub("# generated -", text.replace(root, "<tmp>"))
    return _RUNTIME.sub('"runtime_seconds": -', text)


def _record(argv, out_dir, root):
    """The masked exit code, stdout, stderr and artifacts of one run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main([*argv, "--out-dir", out_dir])
        except SystemExit as exc:
            rc = exc.code
    parts = [" ".join(argv), str(rc), stdout.getvalue(), stderr.getvalue()]
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                parts += [name, handle.read()]
        shutil.rmtree(out_dir)
    return _masked("\0".join(parts), root) + "\0\0"


def golden_digests(root):
    """Command -> SHA-256 of its runs, with instance files written under root."""
    files = dict(cli.bundled_instance_texts())
    files["diff.json"] = json.dumps(DIFF)
    files["surface_noq.json"] = json.dumps(SURFACE)
    paths = []
    for name, text in sorted(files.items()):
        paths.append(os.path.join(root, name))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            handle.write(text)
    out_dir = os.path.join(root, "out")
    digests = {}
    for command in cli.COMMANDS[:-1]:
        sha = hashlib.sha256()
        for path in paths:
            for fmt in ("json", "csv"):
                for schedule in SCHEDULES:
                    argv = [command, path, "--format", fmt]
                    if schedule is not None:
                        argv += ["--schedule", schedule]
                    sha.update(_record(argv, out_dir, root).encode())
        digests[command] = sha.hexdigest()
    sha = hashlib.sha256()
    for seed, fmt in (("0", "json"), ("3", "csv")):
        sha.update(_record(["verify-all", "--seed", seed, "--format", fmt],
                           out_dir, root).encode())
    digests["verify-all"] = sha.hexdigest()
    return digests


def test_every_command_writes_its_golden_bytes(tmp_path):
    assert golden_digests(str(tmp_path)) == GOLDEN
