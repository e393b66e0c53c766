"""`tools/same_bytes.py` runs against this checkout.

The script re-imports `navol` from each checkout it compares, so it runs
here in its own process: this checkout against itself agrees on two seeds,
and a malformed `--root` is refused."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "same_bytes.py")


def _run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], cwd=ROOT,
                          capture_output=True, text=True)


def test_a_checkout_has_the_same_bytes_as_itself():
    done = _run("--root", f"a={ROOT}", "--root", f"b={ROOT}", "--seeds", "3-4")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "same bytes: a and b agree on seeds 3-4"


def test_same_bytes_needs_two_named_roots():
    assert _run("--root", f"a={ROOT}", "--seeds", "0").returncode == 2
    assert _run("--root", ROOT, "--root", f"b={ROOT}", "--seeds", "0").returncode == 2
