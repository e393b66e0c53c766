"""`tools/stage_timing.py` still runs against this checkout.

The script reaches into `navol.cli` (`_instance_checks`, `_cmd_verify_all`,
`_emit`, `build_parser`) and re-imports `navol` from the checkout it times,
so it runs here in its own process, with one repeat per stage.
"""

import json
import os
import subprocess
import sys

import navol.cli as cli

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
    parsed = {key.split("/", 1)[1] for key in stages if key.startswith("parse/")}
    checked = {key.split("/", 1)[1] for key in stages if key.startswith("check/")}
    assert parsed == checked
    kinds = {key.split("/")[0] for key in parsed}
    assert kinds == {"toric", "tree", "surface"}
    names = {key.split("/", 1)[1] for key in parsed}
    assert {name for name, _ in cli.bundled_instance_texts()} < names
    assert len(stages) == 2 * len(parsed) + 3
    assert all(ms > 0 for ms in stages.values())
