"""`tools/stage_timing.py` still runs against this checkout.

The script reaches into `navol.cli` (`_instance_checks`, `_verify_all_checks`,
`_cmd_verify_all`, `_emit`, `build_parser`) and re-imports `navol` from the
checkout it times, so it runs here in its own process, with one repeat per
stage.
"""

import json
import os
import subprocess
import sys

import navol.cli as cli
from navol.serialize import parse_instance_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, "tools")
import stage_timing
print(json.dumps(stage_timing.measure(sys.argv[1], stage_timing.SEED, 1)))
"""


def test_stage_timing_measures_every_stage():
    out = subprocess.run([sys.executable, "-c", SCRIPT, ROOT], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    stages = json.loads(out.splitlines()[-1])
    assert {"bundled_suite", "emit", "op"} <= set(stages)
    kinds = {"toric", "tree", "surface"}
    parsed = {key.split("/", 1)[1] for key in stages if key.startswith("parse/")}
    checked = {key.split("/", 1)[1] for key in stages
               if key.startswith("check/") and key.split("/")[1] in kinds}
    assert parsed == checked
    assert {key.split("/")[0] for key in parsed} == kinds
    names = {key.split("/", 1)[1] for key in parsed}
    assert {name for name, _ in cli.bundled_instance_texts()} < names
    # each check alone, as check/<theorem>/<instance>: every instance's own
    # theorems, and the three surface theorems on each generated surface file
    alone = {tuple(key.split("/")[1:]) for key in stages
             if key.startswith("check/") and key.split("/")[1] not in kinds}
    assert {name for _, name in alone} == names
    for name, text in cli.bundled_instance_texts():
        inst = parse_instance_text(text, origin=name)
        assert {t for t, n in alone if n == name} == \
            {r.theorem for r in cli._instance_checks(inst)}, name
    surfaces = {name for kind, name in (key.split("/") for key in parsed)
                if kind == "surface" and name.startswith("surface-")}
    assert surfaces
    for name in surfaces:
        assert {t for t, n in alone if n == name} == {
            "cohomology-morse-bound", "cohomology-consistency",
            "cohomology-twist-stability"}, name
    assert len(stages) == 2 * len(parsed) + len(alone) + 3
    assert all(ms > 0 for ms in stages.values())
