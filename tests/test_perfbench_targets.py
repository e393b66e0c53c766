"""Every function the benchmark tracer wraps still exists in the package.

`perfbench/tracer.py` looks up each of its TARGETS by name when a traced run
starts, so a renamed or deleted library function breaks every `--trace 1`
run. The tracer file is loaded here without being installed or edited.
"""

import importlib
import importlib.util
import inspect
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_targets", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        module = importlib.import_module(f"navol.{module_name}")
        if "." in path:
            # a method is replaced in its class's own namespace
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert not missing, missing
    # the perturbation_scan hook reads grid_max as the fifth positional argument
    scan = importlib.import_module("navol.cohomology").perturbation_scan
    assert list(inspect.signature(scan).parameters)[4] == "grid_max"
