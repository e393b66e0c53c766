"""Instance files and tabular artifacts.

Instances are JSON objects with a required ``kind`` tag:

* ``toric``: a polytope (vertex list) plus named piecewise-linear metrics,
  each either the literal string ``"canonical"`` or a list of blocks, every
  block a list of ``{"slope": [...], "constant": ...}`` pieces (the metric is
  the minimum over blocks of the maximum over pieces).
* ``tree``: a metric tree (vertices, edges with positive rational lengths,
  optional root) plus named measures. Lengths and masses are read to integer
  (numerator, denominator) pairs, each distinct literal once; each measure is
  kept as the atom rows of its file.
* ``surface``: a toric surface family name, named rational divisors (lists of
  ``{"coeff": ..., "class": [...]}`` decomposition terms), and optional scan
  parameters, with 2 <= ``grid_max`` <= 256 bounding the scan's work.

All rationals are written as ``"p/q"`` strings (or plain JSON integers);
decimal literals are refused so floats can never contaminate exact data.
Unknown fields are rejected with their full path. Three readers build the
paths: ``_array`` (each entry at ``path[i]``), ``_object`` (keys checked) and
``_optional`` (a field at ``path.key``, if present); a tree file's edges and
atoms keep their own one-pass readers, which fall back to the validators.

Artifact writers keep CSV bodies byte-deterministic: the only
run-dependent line is a leading ``#`` comment carrying the timestamp. A
summary is one line of ASCII-escaped JSON from ``json.dumps`` with its
defaults, which run the json module's C encoder (``indent`` would not);
``python -m json.tool`` indents it.
"""
from __future__ import annotations

import csv
import datetime
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from .cohomology import RealDivisor, ToricFamily, toric_family
from .errors import InstanceFormatError, PreconditionError
from .plmetric import PLMetric, canonical_metric
from .polytope import Polytope
from .rational import frac, frac_str, plain_pair
from .trees import AtomRow, MetricTree, net_rows


# ---------------------------------------------------------------------------
# strict JSON loading


class _FloatLiteral(str):
    """Marker for decimal literals so validators can refuse them."""


def _loads(text: str, origin: str) -> object:
    def bad_constant(name: str):
        raise InstanceFormatError(f"{origin}: non-finite number {name!r}")

    try:
        return json.loads(text, parse_float=_FloatLiteral,
                          parse_constant=bad_constant)
    except InstanceFormatError:
        raise
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{origin}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise InstanceFormatError(
            f"{origin}: arrays or objects nested too deeply") from None
    except ValueError:  # int() refuses a literal this long
        raise InstanceFormatError(
            f"{origin}: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits") from None


# ---------------------------------------------------------------------------
# schema helpers (every validator takes the value and its field path)


T = TypeVar("T")


def _as_object(value, path: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise InstanceFormatError(f"{path}: expected an object")
    return value


def _as_array(value, path: str) -> List[object]:
    if not isinstance(value, list):
        raise InstanceFormatError(f"{path}: expected an array")
    return value


def _as_string(value, path: str) -> str:
    if isinstance(value, _FloatLiteral) or not isinstance(value, str):
        raise InstanceFormatError(f"{path}: expected a string")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(f"{path}: expected an integer")
    return value


def _as_rational(value, path: str) -> Fraction:
    if isinstance(value, _FloatLiteral):
        raise InstanceFormatError(
            f"{path}: decimal literal {value!r} is not exact; "
            "write rationals as 'p/q' strings")
    if isinstance(value, bool):
        raise InstanceFormatError(f"{path}: expected a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "." in value or "e" in value or "E" in value:
            raise InstanceFormatError(
                f"{path}: decimal notation {value!r} is not accepted; "
                "write rationals as 'p/q' strings")
        try:
            return frac(value)
        except ValueError as exc:
            raise InstanceFormatError(f"{path}: {exc}") from None
    raise InstanceFormatError(
        f"{path}: expected a rational as integer or 'p/q' string")


def _check_keys(obj: Dict[str, object], path: str,
                required: Sequence[str], optional: Sequence[str] = ()) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise InstanceFormatError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise InstanceFormatError(f"{path}: missing required field {key!r}")


def _array(value, path: str, read: Callable[[object, str], T],
           empty: Optional[str] = None) -> List[T]:
    """read(entry, path[i]) of each entry of the array at path; an empty
    array is refused with the message empty, unless it is None."""
    arr = _as_array(value, path)
    if not arr and empty is not None:
        raise InstanceFormatError(f"{path}: {empty}")
    return [read(entry, f"{path}[{i}]") for i, entry in enumerate(arr)]


def _object(value, path: str, required: Sequence[str],
            optional: Sequence[str] = ()) -> Dict[str, object]:
    obj = _as_object(value, path)
    _check_keys(obj, path, required, optional)
    return obj


def _optional(obj: Dict[str, object], key: str, path: str,
              read: Callable[..., T], *args) -> Optional[T]:
    """read(obj[key], path.key, *args), or None when obj has no key."""
    return read(obj[key], f"{path}.{key}", *args) if key in obj else None


def _as_degree(value, path: str, dim: int) -> int:
    q = _as_int(value, path)
    if not 0 <= q <= dim:
        raise InstanceFormatError(f"{path}: must be between 0 and {dim}")
    return q


def _as_point(value, path: str) -> Tuple[Fraction, ...]:
    return tuple(_array(value, path, _as_rational, "a point needs coordinates"))


# ---------------------------------------------------------------------------
# instance containers


def _named(table: Dict[str, T], what: str, name: str, command: str) -> T:
    """table[name], else the error saying which command needs a `what` of
    that name and which names the instance has."""
    if name not in table:
        have = ", ".join(sorted(table)) or "none"
        raise PreconditionError(
            f"command {command!r} needs a {what} named {name!r} "
            f"(instance has: {have})")
    return table[name]


@dataclass
class ToricInstance:
    name: str
    polytope: Polytope
    metrics: Dict[str, PLMetric]
    canonical_names: Tuple[str, ...]
    schedule: Optional[List[int]] = None
    eps_schedule: Optional[List[Fraction]] = None
    kind: str = field(default="toric", init=False)

    def metric(self, name: str, command: str) -> PLMetric:
        return _named(self.metrics, "metric", name, command)

    def single_metric(self, command: str) -> PLMetric:
        if "psi" in self.metrics:
            return self.metrics["psi"]
        non_canonical = [n for n in self.metrics if n not in self.canonical_names]
        if len(non_canonical) == 1:
            return self.metrics[non_canonical[0]]
        if len(self.metrics) == 1:
            return next(iter(self.metrics.values()))
        return self.metric("psi", command)

    def metric_or_canonical(self, name: str) -> PLMetric:
        """The metric called name, else the one called 'canonical', else the
        canonical metric of the polytope."""
        for key in (name, "canonical"):
            if key in self.metrics:
                return self.metrics[key]
        return canonical_metric(self.polytope)

    def metric_pair(self, command: str) -> Tuple[PLMetric, PLMetric]:
        return self.metric("psi1", command), self.metric_or_canonical("psi2")


@dataclass
class TreeInstance:
    """A tree with named measures, each kept as the atom rows (vertex
    position, p, q) of its file."""
    name: str
    tree: MetricTree
    measure_atoms: Dict[str, List[AtomRow]]
    kind: str = field(default="tree", init=False)

    def net_mass_rows(self, command: str) -> Tuple[int, List[int]]:
        """`trees.net_rows` of the measures named target and base."""
        target = _named(self.measure_atoms, "measure", "target", command)
        base = _named(self.measure_atoms, "measure", "base", command)
        return net_rows(len(self.tree.vertices), target, base)


@dataclass
class ScanParams:
    d_names: List[str]
    p_names: List[str]
    q: int
    grid_max: int


@dataclass
class SurfaceInstance:
    name: str
    family: ToricFamily
    divisors: Dict[str, RealDivisor]
    schedule: Optional[List[int]] = None
    q: Optional[int] = None
    scan: Optional[ScanParams] = None
    kind: str = field(default="surface", init=False)

    def divisor(self, name: str, command: str) -> RealDivisor:
        return _named(self.divisors, "divisor", name, command)


Instance = Union[ToricInstance, TreeInstance, SurfaceInstance]


# ---------------------------------------------------------------------------
# parsing


def _parse_schedule(value, path: str, eps: bool = False) -> List:
    """A nonempty array of levels (integers >= 1), or with eps of ε values
    (exact rationals >= 0). The one reader of a schedule: an instance's
    `schedule` and `eps_schedule`, and the entries of the `--schedule` option
    with the path '--schedule'."""
    def entry(raw, epath: str):
        x = _as_rational(raw, epath) if eps else _as_int(raw, epath)
        if x < (0 if eps else 1):
            why = f"eps entry {x} is negative" if eps else "schedule entries are >= 1"
            raise InstanceFormatError(f"{epath}: {why}")
        return x
    return _array(value, path, entry, "schedule must be nonempty")


def _parse_metric(value, path: str, P: Polytope, name: str) -> PLMetric:
    if isinstance(value, str) and not isinstance(value, _FloatLiteral):
        if value != "canonical":
            raise InstanceFormatError(
                f"{path}: metric shorthand must be 'canonical'")
        return canonical_metric(P)

    def piece(raw, ppath: str):
        obj = _object(raw, ppath, ("slope", "constant"))
        slope = _as_point(obj["slope"], f"{ppath}.slope")
        if len(slope) != P.ambient_dim:
            raise InstanceFormatError(
                f"{ppath}.slope: needs {P.ambient_dim} coordinates")
        return slope, _as_rational(obj["constant"], f"{ppath}.constant")

    def block(raw, bpath: str):
        return _array(raw, bpath, piece, "a block needs at least one piece")

    blocks = _array(value, path, block, "a metric needs at least one block")
    try:
        return PLMetric(P, blocks)
    except PreconditionError as exc:
        raise PreconditionError(f"metric {name!r}: {exc}") from None


def _parse_toric(obj: Dict[str, object], name: str) -> ToricInstance:
    _check_keys(obj, name, ("kind", "polytope", "metrics"), ("schedule", "eps_schedule"))
    verts = _array(obj["polytope"], f"{name}.polytope", _as_point,
                   "needs at least one vertex")
    if len({len(v) for v in verts}) != 1:
        raise InstanceFormatError(f"{name}.polytope: points of mixed dimension")
    try:
        P = Polytope.from_points(verts)
    except PreconditionError as exc:
        raise InstanceFormatError(f"{name}.polytope: {exc}") from None
    metrics_obj = _as_object(obj["metrics"], f"{name}.metrics")
    metrics = {mname: _parse_metric(mval, f"{name}.metrics.{mname}", P, mname)
               for mname, mval in metrics_obj.items()}
    return ToricInstance(
        name=name, polytope=P, metrics=metrics,
        canonical_names=tuple(n for n, v in metrics_obj.items() if v == "canonical"),
        schedule=_optional(obj, "schedule", name, _parse_schedule),
        eps_schedule=_optional(obj, "eps_schedule", name, _parse_schedule, True))


class _Literals(dict):
    """The plain_pair (or None) of each distinct literal string of one tree
    parse: a string is read on its first lookup only. Keyed by strings alone,
    so a JSON true never meets the pair cached for "1"."""

    def __missing__(self, text: str) -> Optional[Tuple[int, int]]:
        pair = self[text] = plain_pair(text)
        return pair


# The tree parser reads each list of edges or atoms in one pass that builds
# no field path and no Fraction and calls no function per entry. An entry the
# pass refuses (a missing key, a literal that is not plain, its pair None, or
# a wrong count of ends) stops it: that entry goes to its validator with its
# own path (its index is len(rows)), which accepts it or names the field that
# is wrong, and the pass goes on from the next entry.

def _read_edges(raw: object, literals: _Literals,
                path: str) -> List[Tuple[str, str, int, int]]:
    """The (u, v, p, q) rows of the array of edges {"ends": [u, v],
    "length": ...} at path."""
    rows = []
    entries = iter(_as_array(raw, path))
    while True:
        try:
            for e in entries:
                ends, length = e["ends"], e["length"]
                if type(length) is str:
                    p, q = literals[length]
                elif type(length) is int:
                    p, q = length, 1
                else:
                    break
                u, v = ends
                if (type(e) is not dict or len(e) != 2 or type(ends) is not list
                        or type(u) is not str or type(v) is not str):
                    break
                rows.append((u, v, p, q))
            else:
                return rows
        except (KeyError, TypeError, ValueError):
            pass
        rows.append(_edge(e, f"{path}[{len(rows)}]"))


def _edge(eraw, epath: str) -> Tuple[str, str, int, int]:
    eobj = _object(eraw, epath, ("ends", "length"))
    ends = _as_array(eobj["ends"], f"{epath}.ends")
    if len(ends) != 2:
        raise InstanceFormatError(f"{epath}.ends: exactly two endpoints")
    u, v = _array(ends, f"{epath}.ends", _as_string)
    length = _as_rational(eobj["length"], f"{epath}.length")
    return u, v, length.numerator, length.denominator


def _read_atoms(raw: object, position: Dict[str, int], literals: _Literals,
                path: str) -> List[AtomRow]:
    """The atom rows of the array of atoms {"vertex": a known vertex,
    "mass": ...} at path."""
    rows = []
    entries = iter(_as_array(raw, path))
    while True:
        try:
            for a in entries:
                vertex, mass = a["vertex"], a["mass"]
                if type(mass) is str:
                    p, q = literals[mass]
                elif type(mass) is int:
                    p, q = mass, 1
                else:
                    break
                if type(a) is not dict or len(a) != 2 or type(vertex) is not str:
                    break
                rows.append((position[vertex], p, q))
            else:
                return rows
        except (KeyError, TypeError):
            pass
        rows.append(_atom(a, f"{path}[{len(rows)}]", position))


def _atom(araw, apath: str, position: Dict[str, int]) -> AtomRow:
    aobj = _object(araw, apath, ("vertex", "mass"))
    vertex = _as_string(aobj["vertex"], f"{apath}.vertex")
    if vertex not in position:
        raise InstanceFormatError(f"{apath}.vertex: unknown vertex")
    mass = _as_rational(aobj["mass"], f"{apath}.mass")
    return position[vertex], mass.numerator, mass.denominator


def _parse_tree(obj: Dict[str, object], name: str) -> TreeInstance:
    _check_keys(obj, name, ("kind", "tree"), ("measures",))
    tobj = _object(obj["tree"], f"{name}.tree", ("vertices", "edges"), ("root",))
    verts = [v if type(v) is str else _as_string(v, f"{name}.tree.vertices[{i}]")
             for i, v in enumerate(_as_array(tobj["vertices"],
                                             f"{name}.tree.vertices"))]
    literals = _Literals()  # lives for this parse only
    edges = _read_edges(tobj["edges"], literals, f"{name}.tree.edges")
    root = _optional(tobj, "root", f"{name}.tree", _as_string)
    try:
        tree = MetricTree.from_pairs(verts, edges, root=root)
    except PreconditionError as exc:
        raise InstanceFormatError(f"{name}.tree: {exc}") from None
    measures = _as_object(obj.get("measures", {}), f"{name}.measures")
    return TreeInstance(name=name, tree=tree, measure_atoms={
        mname: _read_atoms(mval, tree.position, literals, f"{name}.measures.{mname}")
        for mname, mval in measures.items()})


def _divisor_term(raw, tpath: str) -> Tuple[Fraction, List[int]]:
    tobj = _object(raw, tpath, ("coeff", "class"))
    return (_as_rational(tobj["coeff"], f"{tpath}.coeff"),
            _array(tobj["class"], f"{tpath}.class", _as_int))


def _parse_scan(value, spath: str, dim: int,
                divisors: Dict[str, RealDivisor]) -> ScanParams:
    sobj = _object(value, spath, ("d", "p", "q", "grid_max"))
    d_names, p_names = (_array(sobj[k], f"{spath}.{k}", _as_string) for k in "dp")
    for ref in d_names + p_names:
        if ref not in divisors:
            raise InstanceFormatError(f"{spath}: references unknown divisor {ref!r}")
    sq = _as_degree(sobj["q"], f"{spath}.q", dim)
    grid_max = _as_int(sobj["grid_max"], f"{spath}.grid_max")
    if grid_max < 2:
        raise InstanceFormatError(f"{spath}.grid_max: must be >= 2")
    if grid_max > 256:
        raise InstanceFormatError(f"{spath}.grid_max: must be <= 256, as the scan "
                                  "evaluates grid_max*(grid_max+1) cells")
    return ScanParams(d_names, p_names, sq, grid_max)


def _parse_surface(obj: Dict[str, object], name: str) -> SurfaceInstance:
    _check_keys(obj, name, ("kind", "family", "divisors"), ("schedule", "q", "scan"))
    fam_name = _as_string(obj["family"], f"{name}.family")
    try:
        family = toric_family(fam_name)
    except PreconditionError as exc:
        raise InstanceFormatError(f"{name}.family: {exc}") from None
    divisors: Dict[str, RealDivisor] = {}
    for dname, dval in _as_object(obj["divisors"], f"{name}.divisors").items():
        dpath = f"{name}.divisors.{dname}"
        try:
            divisors[dname] = RealDivisor.make(family, _array(dval, dpath, _divisor_term))
        except PreconditionError as exc:
            raise InstanceFormatError(f"{dpath}: {exc}") from None
    return SurfaceInstance(
        name=name, family=family, divisors=divisors,
        schedule=_optional(obj, "schedule", name, _parse_schedule),
        q=_optional(obj, "q", name, _as_degree, family.dim),
        scan=_optional(obj, "scan", name, _parse_scan, family.dim, divisors))


def parse_instance_text(text: str, origin: str = "<instance>") -> Instance:
    data = _loads(text, origin)
    obj = _as_object(data, origin)
    if "kind" not in obj:
        raise InstanceFormatError(f"{origin}: missing required field 'kind'")
    kind = _as_string(obj["kind"], f"{origin}.kind")
    if kind == "toric":
        return _parse_toric(obj, origin)
    if kind == "tree":
        return _parse_tree(obj, origin)
    if kind == "surface":
        return _parse_surface(obj, origin)
    raise InstanceFormatError(
        f"{origin}.kind: unknown kind {kind!r} (expected toric, tree or surface)")


def parse_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            f"{os.path.basename(path)}: not UTF-8 text: {exc.reason} "
            f"at byte {exc.start}") from None
    return parse_instance_text(text, origin=os.path.basename(path))


# ---------------------------------------------------------------------------
# artifact writers


def decimal_str(x: Fraction) -> str:
    """Exact rational as a 12-place fixed-point decimal (reports only),
    rounded half up: for x = p/q, the units of 10**-12 are
    floor(|x| * 10**12 + 1/2) = (2|p| * 10**12 + q) // 2q."""
    if type(x) is not Fraction:
        x = Fraction(x)
    p, q = x.numerator, x.denominator
    whole, fracpart = divmod((2 * abs(p) * 10 ** 12 + q) // (2 * q), 10 ** 12)
    digits = f"{fracpart:012d}".rstrip("0") or "0"
    return f"{'-' if p < 0 else ''}{whole}.{digits}"


def csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """CSV of string cells with a single leading comment line, the time it
    was generated; the body below it is deterministic for identical inputs."""
    buf = io.StringIO()
    buf.write(f"# generated {datetime.datetime.now(datetime.timezone.utc).isoformat()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_text(out_dir: str, filename: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def write_json(out_dir: str, filename: str, payload: object) -> str:
    """Write the payload as one line of JSON, plus a final newline, and
    return the text written."""
    text = json.dumps(payload) + "\n"
    write_text(out_dir, filename, text)
    return text
