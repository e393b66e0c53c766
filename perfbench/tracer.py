"""Span tracing of navol from outside the package.

`Tracer.install` replaces each listed public function by a wrapper that
records a span (name, start, end, parent, op) and, for some functions, a work
count computed from the call's arguments and result. A plain function is
replaced in every navol module namespace that holds it, because `harness`,
`volumes`, `measures` and `cli` bind imported names at import time; a method
is replaced on its class. Nothing inside `src/` is edited.

Self time of a span is its duration minus the time its child spans (and the
count hooks of those children) cover. Spans are kept in memory, up to
`SPAN_CAP` of them, and written to one JSON file when the run ends; per-layer
totals are accumulated for every call, kept spans or not.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional

SPAN_CAP = 100_000

# (module, attribute path, metric prefix); methods are "Class.method".
TARGETS = [
    ("polytope", "Polytope.lattice_points", "polytope.lattice_points"),
    ("volumes", "lattice_length", "volumes.lattice_length"),
    ("volumes", "navol", "volumes.navol"),
    ("volumes", "proportionality_check", "volumes.proportionality_check"),
    ("volumes", "lipschitz_check", "volumes.lipschitz_check"),
    ("plmetric", "PLMetric.__init__", "plmetric.PLMetric.init"),
    ("plmetric", "legendre", "plmetric.legendre"),
    ("plmetric", "envelope", "plmetric.envelope"),
    ("plmetric", "distance", "plmetric.distance"),
    ("plmetric", "is_semipositive", "plmetric.is_semipositive"),
    ("plmetric", "metric_deform", "plmetric.metric_deform"),
    ("measures", "monge_ampere", "measures.monge_ampere"),
    ("measures", "mixed_monge_ampere", "measures.mixed_monge_ampere"),
    ("measures", "energy", "measures.energy"),
    ("trees", "ma_solve", "trees.ma_solve"),
    ("trees", "curvature", "trees.curvature"),
    ("trees", "tree_laplacian", "trees.tree_laplacian"),
    ("cohomology", "hq", "cohomology.hq"),
    ("cohomology", "ToricFamily.h0_integral", "cohomology.h0_integral"),
    ("cohomology", "cohomology_table", "cohomology.cohomology_table"),
    ("cohomology", "morse_check", "cohomology.morse_check"),
    ("cohomology", "perturbation_scan", "cohomology.perturbation_scan"),
    ("harness", "verify_vol_is_energy", "harness.verify_vol_is_energy"),
    ("harness", "verify_differentiability", "harness.verify_differentiability"),
    ("harness", "verify_orthogonality", "harness.verify_orthogonality"),
    ("harness", "verify_h0_envelope_equality", "harness.verify_h0_envelope_equality"),
    ("harness", "verify_length_cocycle", "harness.verify_length_cocycle"),
    ("harness", "verify_tree_solvability", "harness.verify_tree_solvability"),
    ("harness", "run_bundled_suite", "harness.run_bundled_suite"),
    ("serialize", "parse_instance_text", "serialize.parse_instance_text"),
    ("serialize", "csv_text", "serialize.csv_text"),
    ("serialize", "write_json", "serialize.write_json"),
    ("serialize", "write_text", "serialize.write_text"),
    ("cli", "main", "cli.main"),
]

# work counts summed over the traced passes (name, unit, better)
COUNTS = [
    ("polytope.lattice_points.points", "count", "lower"),
    ("volumes.lattice_length.point_pieces", "count", "lower"),
    ("plmetric.legendre.roof_pieces", "count", "lower"),
    ("plmetric.envelope.hull_pieces", "count", "lower"),
    ("measures.monge_ampere.atoms", "count", "lower"),
    ("trees.ma_solve.vertices", "count", "lower"),
    ("cohomology.h0_integral.loop_terms", "count", "lower"),
    ("cohomology.perturbation_scan.cells", "count", "lower"),
    ("serialize.write.bytes", "bytes", "lower"),
]
# ratios and run-level figures, filled in by `Tracer.metrics`
RATIOS = [
    ("polytope.lattice_points.hit_ratio", "ratio", "higher"),
    ("polytope.lattice_points.calls_per_length", "ratio", "lower"),
    ("plmetric.legendre.cache_hit_ratio", "ratio", "higher"),
    ("trace.op_s", "s", "lower"),
    ("trace.untraced_op_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def per_layer_specs() -> List[tuple]:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    specs = []
    for _, _, prefix in TARGETS:
        specs.append((f"{prefix}.calls", "count", "lower"))
        specs.append((f"{prefix}.self_s", "s", "lower"))
    return specs + COUNTS + RATIOS


def _box_candidates(polytope, m: int) -> int:
    """Bounding-box candidates `Polytope.lattice_points` scans for m*P."""
    total = 1
    for c in range(polytope.ambient_dim):
        coords = [m * v[c] for v in polytope.vertices]
        lo, hi = min(coords), max(coords)
        total *= (hi.numerator // hi.denominator) + (-lo.numerator // lo.denominator) + 1
    return total


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.counts: Dict[str, float] = {name: 0 for name, _, _ in COUNTS}
        self.box_candidates = 0
        self.legendre_hits = 0
        self.spans: List[list] = []
        self.dropped = 0
        self.op = -1
        self._stack: List[list] = []   # [span index, -2 if dropped; child seconds]
        self._last_points = 0
        self._originals: Dict[str, Callable] = {}
        self._conjugated = weakref.WeakValueDictionary()
        self._enveloped = weakref.WeakValueDictionary()

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def span(self, fid: int, fn: Callable, hook: Optional[Callable], args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        start = time.perf_counter()
        if len(self.spans) < SPAN_CAP:
            record = [fid, start, start, parent, self.op]
            self.spans.append(record)
            frame = [len(self.spans) - 1, 0.0]
        else:
            record, frame = None, [-2, 0.0]
            self.dropped += 1
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if record is not None:
                record[2] = end
            self.calls[fid] += 1
            self.self_s[fid] += end - start - frame[1]
            if stack:
                stack[-1][1] += end - start
        if hook is not None:
            hook(self, args, kwargs, result)
            if stack:
                stack[-1][1] += time.perf_counter() - end
        return result

    def op_span(self, fid: int, fn: Callable):
        """Run one benchmark op as a root span; its id tags every span below."""
        self.op += 1
        return self.span(fid, fn, None, (), {})

    # -- installation ----------------------------------------------------------

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every target in `modules` (short name -> navol submodule)."""
        navol_modules = [m for name, m in sys.modules.items()
                         if m is not None and (name == "navol" or name.startswith("navol."))]
        for module_name, path, prefix in TARGETS:
            fid = self.name_id(prefix)
            hook = _HOOKS.get(prefix)
            module = modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(fid, original, hook))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(fid, original, hook)
                for mod in navol_modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            self._originals[prefix] = original

    def _wrap(self, fid: int, fn: Callable, hook: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(fid, fn, hook, args, kwargs)
        return wrapper

    # -- results ---------------------------------------------------------------

    def metrics(self, passes: int, traced_pass_s: float, untraced_pass_s: float
                ) -> Dict[str, float]:
        """Per-layer metrics per deck pass (counts and times divided by the
        number of traced passes; ratios as they are). The two pass times
        are speed-normalized, like the end-to-end latencies; `trace.op_s`
        is plain wall time, the sum of every self time, so that self times
        can be read as shares of it."""
        out: Dict[str, float] = {}
        index = {name: i for i, name in enumerate(self.names)}
        for _, _, prefix in TARGETS:
            i = index[prefix]
            out[f"{prefix}.calls"] = self.calls[i] / passes
            out[f"{prefix}.self_s"] = self.self_s[i] / passes
        for name, _, _ in COUNTS:
            out[name] = self.counts[name] / passes
        lp_calls = self.calls[index["polytope.lattice_points"]]
        ll_calls = self.calls[index["volumes.lattice_length"]]
        lg_calls = self.calls[index["plmetric.legendre"]]
        points = self.counts["polytope.lattice_points.points"]
        out["polytope.lattice_points.hit_ratio"] = (
            points / self.box_candidates if self.box_candidates else 0.0)
        out["polytope.lattice_points.calls_per_length"] = (
            lp_calls / ll_calls if ll_calls else 0.0)
        out["plmetric.legendre.cache_hit_ratio"] = (
            self.legendre_hits / lg_calls if lg_calls else 0.0)
        out["trace.op_s"] = sum(self.self_s) / passes
        out["trace.untraced_op_s"] = untraced_pass_s
        out["trace.overhead_ratio"] = traced_pass_s / untraced_pass_s - 1
        return out

    def write(self, path: str, slots: List[str]) -> None:
        """Op k of the traced passes ran slot k % len(slots)."""
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": self.names,
            "slots": slots,
            "spans_dropped": self.dropped,
            "spans": [[fid, round(s, 7), round(e, 7), parent, op]
                      for fid, s, e, parent, op in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# -- work-count hooks: (tracer, args, kwargs, result) -----------------------

def _lattice_points(t: Tracer, args, kwargs, result) -> None:
    polytope = args[0]
    m = args[1] if len(args) > 1 else kwargs.get("m", 1)
    t._last_points = len(result)
    t.counts["polytope.lattice_points.points"] += len(result)
    if m > 0:
        t.box_candidates += _box_candidates(polytope, m)


def _lattice_length(t: Tracer, args, kwargs, result) -> None:
    # The conjugates are cached on both metrics by now, so the unwrapped
    # `legendre` only looks them up.
    if t._last_points:
        legendre = t._originals["plmetric.legendre"]
        pieces = len(legendre(args[0]).pieces) + len(legendre(args[1]).pieces)
        t.counts["volumes.lattice_length.point_pieces"] += t._last_points * pieces


def _seen_before(registry: weakref.WeakValueDictionary, obj) -> bool:
    if registry.get(id(obj)) is obj:
        return True
    registry[id(obj)] = obj
    return False


def _legendre(t: Tracer, args, kwargs, result) -> None:
    if _seen_before(t._conjugated, args[0]):
        t.legendre_hits += 1
    else:
        t.counts["plmetric.legendre.roof_pieces"] += len(result.pieces)


def _envelope(t: Tracer, args, kwargs, result) -> None:
    if not _seen_before(t._enveloped, args[0]):
        t.counts["plmetric.envelope.hull_pieces"] += len(result.blocks[0])


def _monge_ampere(t: Tracer, args, kwargs, result) -> None:
    t.counts["measures.monge_ampere.atoms"] += len(result.atoms)


def _ma_solve(t: Tracer, args, kwargs, result) -> None:
    t.counts["trees.ma_solve.vertices"] += len(args[0].vertices)


def _h0_integral(t: Tracer, args, kwargs, result) -> None:
    family, cls = args[0], args[1]
    if hasattr(family, "hirzebruch_a") and int(cls[0]) >= 0:
        t.counts["cohomology.h0_integral.loop_terms"] += int(cls[0]) + 1


def _perturbation_scan(t: Tracer, args, kwargs, result) -> None:
    grid_max = args[4] if len(args) > 4 else kwargs["grid_max"]
    t.counts["cohomology.perturbation_scan.cells"] += (grid_max + 1) * grid_max


def _write_text(t: Tracer, args, kwargs, result) -> None:
    text = args[2] if len(args) > 2 else kwargs["text"]
    t.counts["serialize.write.bytes"] += len(text.encode("utf-8"))


_HOOKS = {
    "polytope.lattice_points": _lattice_points,
    "volumes.lattice_length": _lattice_length,
    "plmetric.legendre": _legendre,
    "plmetric.envelope": _envelope,
    "measures.monge_ampere": _monge_ampere,
    "trees.ma_solve": _ma_solve,
    "cohomology.h0_integral": _h0_integral,
    "cohomology.perturbation_scan": _perturbation_scan,
    "serialize.write_text": _write_text,
}
