"""Potential theory on finite metric trees.

A metric tree carries edge lengths; functions live on vertices and are
understood as piecewise affine along edges. The Laplacian of a function puts
at each vertex the sum of outgoing slopes (difference quotient per edge); its
total mass is always 0. Prescribing a curvature measure mu against a base
measure mu0 of the same total mass has a unique solution up to an additive
constant, found by accumulating subtree masses from the root down.

The solver and the Laplacian run on integer rows: a tree keeps its edge
lengths and their reciprocals as numerators over one common denominator
each, masses, slopes and potentials are scaled the same way, and Fractions
are built only for the functions and measures the public functions return.
A tree is built from (numerator, denominator) length pairs
(`MetricTree.from_pairs`, the instance parser's route) or from Fraction
lengths, and keeps its edges as those integer rows only. Masses enter as
atom rows (vertex position, numerator, denominator), so a parsed measure
reaches the solver without a DiscreteMeasure (`net_rows`).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NoReturn, Optional, Sequence, Tuple

from .errors import PreconditionError
from .measures import DiscreteMeasure
from .rational import frac


class MetricTree:
    """Finite tree with positive rational edge lengths and string vertex ids."""

    def __init__(self, vertices: Sequence[str],
                 edges: Iterable[Tuple[str, str, Fraction]],
                 root: Optional[str] = None):
        self._build(vertices, [(u, v, *_pair(length)) for u, v, length in edges], root)

    @classmethod
    def from_pairs(cls, vertices: Sequence[str],
                   edges: Iterable[Tuple[str, str, int, int]],
                   root: Optional[str] = None) -> "MetricTree":
        """The tree whose edges (u, v, p, q) have length p/q; validated like
        the constructor's Fraction edges, and q must be positive."""
        tree = cls.__new__(cls)
        tree._build(vertices, list(edges), root)
        return tree

    def _build(self, vertices: Sequence[str],
               edges: List[Tuple[str, str, int, int]],
               root: Optional[str]) -> None:
        """Check the tree and build its integer rows.

        The edges are checked by whole-list invariants (_walk): unique ids
        and at least one vertex, n - 1 edges whose ends are all known, every
        numerator and every denominator above 0, a known root, and a walk
        from the root that reaches all n vertices. A connected graph on n
        vertices with n - 1 edges is a tree, so it has no loop and no
        repeated edge: the invariants accept exactly what the per-edge checks
        (_raise_fault) accept. Those run, in their order, only to name the
        fault when an invariant fails."""
        self.vertices: List[str] = list(vertices)
        self.position: Dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        walk = self._walk(edges, root)
        if walk is None:
            self._raise_fault(edges, root)
        self.order, self.parent, p_row, q_row = walk
        # Integer rows by vertex position: the edge from a non-root vertex i
        # to its parent has length lengths[i] / length_scale and reciprocal
        # conductances[i] / conductance_scale, each scale the lcm of the
        # denominators it clears; both rows hold 0 at the root.
        self.length_scale = math.lcm(*set(q_row))
        self.lengths = [p * (self.length_scale // q) for p, q in zip(p_row, q_row)]
        self.conductance_scale = math.lcm(*set(p_row) - {0})
        self.conductances = [q * (self.conductance_scale // p) if p else 0
                             for p, q in zip(p_row, q_row)]

    def _walk(self, edges: List[Tuple[str, str, int, int]], root: Optional[str]):
        """(order, parent, p_row, q_row), or None when a whole-list invariant
        fails: vertex positions in preorder from the root, each position's
        parent position (-1 at the root), and the numerators and denominators
        of each position's parent-edge length (0 and 1 at the root). The walk
        pops the last vertex pushed and pushes each unreached neighbour in
        edge order."""
        n, position = len(self.vertices), self.position
        if not n or len(position) != n or len(edges) != n - 1:
            return None
        us, vs, ps, qs = zip(*edges) if edges else ((),) * 4
        if min(ps, default=1) <= 0 or min(qs, default=1) <= 0:
            return None
        try:
            ends = list(map(position.__getitem__, us))
            other = list(map(operator.add, ends, map(position.__getitem__, vs)))
            self.root = self.vertices[0] if root is None else root
            top = position[self.root]
        except (KeyError, TypeError):
            return None
        # each position's edges by index, in edge order; edge k joins i and
        # other[k] - i
        incident: List[List[int]] = [[] for _ in range(n)]
        for k, i in enumerate(ends):
            incident[i].append(k)
            incident[other[k] - i].append(k)
        order: List[int] = []
        parent = [-1] * n
        parent_edge = [-1] * n  # -1 until reached; the root's is index n - 1,
        parent_edge[top] = n - 1  # where ps and qs get the root's (0, 1)
        stack = [top]
        while stack:
            i = stack.pop()
            order.append(i)
            for k in incident[i]:
                j = other[k] - i
                if parent_edge[j] < 0:
                    parent_edge[j] = k
                    parent[j] = i
                    stack.append(j)
        if len(order) != n:
            return None
        self._edge_rows = edges
        ps, qs = ps + (0,), qs + (1,)
        return order, parent, [ps[k] for k in parent_edge], [qs[k] for k in parent_edge]

    def _raise_fault(self, edges: List[Tuple[str, str, int, int]],
                     root: Optional[str]) -> NoReturn:
        """Raise the first fault of a tree _walk refused, checking edge by
        edge; a tree that passes every check is not connected."""
        if len(self.position) != len(self.vertices):
            raise PreconditionError("tree has repeated vertex ids")
        if not self.vertices:
            raise PreconditionError("tree needs at least one vertex")
        position = self.position
        seen_pairs = set()
        for u, v, p, q in edges:
            i, j = position.get(u), position.get(v)
            if i is None or j is None:
                raise PreconditionError(f"edge ({u}, {v}) uses an unknown vertex")
            if i == j:
                raise PreconditionError(f"edge ({u}, {v}) is a loop")
            if q <= 0:
                raise PreconditionError(f"edge ({u}, {v}) needs a positive denominator")
            if p <= 0:
                raise PreconditionError(f"edge ({u}, {v}) needs a positive length")
            pair = (i, j) if i < j else (j, i)
            if pair in seen_pairs:
                raise PreconditionError(f"edge ({u}, {v}) appears twice")
            seen_pairs.add(pair)
        if len(edges) != len(self.vertices) - 1:
            raise PreconditionError("edge count must be vertex count minus one")
        if root is not None and root not in position:
            raise PreconditionError(f"root {root} is not a vertex")
        raise PreconditionError("tree is not connected")


def _pair(length) -> Tuple[int, int]:
    x = frac(length)
    return x.numerator, x.denominator


@dataclass(frozen=True)
class TreeFunction:
    """Vertex values of a function that is affine along each edge."""
    values: Mapping[str, Fraction]

    def __call__(self, v: str) -> Fraction:
        return self.values[v]


def _check_function(tree: MetricTree, f: TreeFunction) -> None:
    if set(f.values.keys()) != set(tree.vertices):
        raise PreconditionError("function values must cover exactly the tree vertices")


# An atom row is (vertex position, p, q) for an atom of mass p/q, q > 0.
AtomRow = Tuple[int, int, int]


def net_rows(size: int, target: Sequence[AtomRow],
             base: Sequence[AtomRow]) -> Tuple[int, List[int]]:
    """(D, net): D * (target - base) at each of size vertex positions, over
    the lcm D of the atoms' denominators. Needs equal total masses."""
    scale = math.lcm(*{q for _, _, q in target}, *{q for _, _, q in base})
    net = [0] * size
    for i, p, q in target:
        net[i] += p * (scale // q)
    target_mass = sum(net)
    for i, p, q in base:
        net[i] -= p * (scale // q)
    if sum(net):
        raise PreconditionError(
            f"cannot solve: target mass {Fraction(target_mass, scale)} "
            f"differs from base mass {Fraction(target_mass - sum(net), scale)}")
    return scale, net


def net_mass_rows(tree: MetricTree, target: DiscreteMeasure,
                  base: DiscreteMeasure) -> Tuple[int, List[int]]:
    """`net_rows` of two measures, which need to sit on the tree's vertices."""
    for measure, name in ((target, "target"), (base, "base")):
        stray = [k for k in measure.atoms if k not in tree.position]
        if stray:
            raise PreconditionError(
                f"{name} measure has atoms off the tree vertices: {stray}")
    position = tree.position
    return net_rows(len(tree.vertices), *(
        [(position[v], m.numerator, m.denominator) for v, m in measure.atoms.items()]
        for measure in (target, base)))


def potential_rows(tree: MetricTree, scale: int,
                   net: Sequence[int]) -> Tuple[int, List[int]]:
    """(S, phi): S * f at each vertex position for the f with laplacian(f) =
    net / scale and f(root) = 0, where net sums to 0.

    Summing the equation over the subtree below a vertex gives the slope of
    f on the edge into it, so f descends from the root one edge at a time."""
    subtree = list(net)
    for v in reversed(tree.order[1:]):
        subtree[tree.parent[v]] += subtree[v]
    phi = [0] * len(tree.vertices)
    for v in tree.order[1:]:
        phi[v] = phi[tree.parent[v]] - tree.lengths[v] * subtree[v]
    return scale * tree.length_scale, phi


def laplacian_rows(tree: MetricTree, scale: int,
                   values: Sequence[int]) -> Tuple[int, List[int]]:
    """(S, atoms): S * (sum of outgoing slopes of values / scale) at each
    vertex position; each edge's slope is computed once and enters its two
    ends with opposite signs."""
    atoms = [0] * len(tree.vertices)
    for v in tree.order[1:]:
        p = tree.parent[v]
        slope = (values[v] - values[p]) * tree.conductances[v]
        atoms[p] += slope
        atoms[v] -= slope
    return scale * tree.conductance_scale, atoms


def tree_laplacian(tree: MetricTree, f: TreeFunction) -> DiscreteMeasure:
    """Measure with atom at v equal to the sum of outgoing slopes of f."""
    _check_function(tree, f)
    values = [frac(f.values[v]) for v in tree.vertices]
    scale = math.lcm(*{x.denominator for x in values})
    atoms_scale, atoms = laplacian_rows(
        tree, scale, [x.numerator * (scale // x.denominator) for x in values])
    return DiscreteMeasure({v: Fraction(a, atoms_scale)
                            for v, a in zip(tree.vertices, atoms) if a})


def curvature(tree: MetricTree, base: DiscreteMeasure,
              f: TreeFunction) -> DiscreteMeasure:
    """Curvature of the metric given by f against the base measure: base + laplacian(f)."""
    lap = tree_laplacian(tree, f)
    return DiscreteMeasure(list(base.atoms.items()) + list(lap.atoms.items()))


def ma_solve(tree: MetricTree, target: DiscreteMeasure,
             base: DiscreteMeasure) -> TreeFunction:
    """Solve base + laplacian(f) = target with f(root) = 0.

    Needs equal total masses and atoms supported on tree vertices; the
    solution is unique (see `potential_rows`)."""
    scale, phi = potential_rows(tree, *net_mass_rows(tree, target, base))
    return TreeFunction({v: Fraction(x, scale) for v, x in zip(tree.vertices, phi)})
