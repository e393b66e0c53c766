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
# length at the schedule's top level; every command re-recorded when the
# summary became one line of `json.dumps(summary)` instead of the indented
# text of `json.dumps(summary, indent=2)`: each run writes `<command>.json`,
# so each hash moved, and the code before that change with only its writer
# swapped gives these same hashes
GOLDEN = {
    "measure":
        "5b2b1b6c37896a4ec104f21773a3d83f86092b25550d16a15183610bd1df7a0f",
    "energy":
        "96abe88609272e3f38813debebca63819ed52d7a6abef297a17b9fe3dbbc9409",
    "navol":
        "e22939f017b79b59fdcd0a09608d90ded7076712e478fe14ba12c23321b36041",
    "envelope":
        "df926ec4b2a845970c38f98862c7778d0e02d16b7b0ee66da3ab875750047154",
    "ortho-check":
        "aef59ef48e71c315583e66fd8240b3cfa4067ba725609a4e8a518837054c279b",
    "diff-check":
        "d55c2a41c4641d42a1e2fc948ac2901d0237fa45ec5a9d142a6daf4b3e75fbcd",
    "h0-check":
        "40fa8f6ef97a4c7ba087a86af2f24cb23f7e902b54e163bd74d0440876a1d129",
    "ma-solve":
        "83a16b413af8648a78373ae58ab82eb7ef3f111a0754cef37d3fb4a9c1e51b6b",
    "cohomology":
        "6779d9e2534a3a06e259224a1a40986ec993e3907f90b677254c8b9a2d8c60ff",
    "morse-check":
        "f61ac321fea4108d76a0fd5bc14f367f186f66d918a91015cd4864278264b98a",
    "perturb-scan":
        "75d38c7fca4de6a34248bfb2d41d3c2851076fea645e797417061f2ec7a0e0ee",
    "verify-all":
        "fafd941f7b0ccd78c02a17258b9773d68839d2f020cf84df9ef88a684e0b677c",
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
