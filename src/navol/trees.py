"""Potential theory on finite metric trees.

A metric tree carries edge lengths; functions live on vertices and are
understood as piecewise affine along edges. The Laplacian of a function puts
at each vertex the sum of outgoing slopes (difference quotient per edge); its
total mass is always 0. Prescribing a curvature measure mu against a base
measure mu0 of the same total mass has a unique solution up to an additive
constant, found by accumulating subtree masses from the root down.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import PreconditionError
from .measures import DiscreteMeasure
from .rational import ZERO, frac


class MetricTree:
    """Finite tree with positive rational edge lengths and string vertex ids."""

    def __init__(self, vertices: Sequence[str],
                 edges: Iterable[Tuple[str, str, Fraction]],
                 root: Optional[str] = None):
        self.vertices: List[str] = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise PreconditionError("tree has repeated vertex ids")
        if not self.vertices:
            raise PreconditionError("tree needs at least one vertex")
        vertex_set = set(self.vertices)
        self.edges: List[Tuple[str, str, Fraction]] = []
        self.adjacency: Dict[str, List[Tuple[str, Fraction]]] = {
            v: [] for v in self.vertices}
        seen_pairs = set()
        for u, v, length in edges:
            length = frac(length)
            if u not in vertex_set or v not in vertex_set:
                raise PreconditionError(f"edge ({u}, {v}) uses an unknown vertex")
            if u == v:
                raise PreconditionError(f"edge ({u}, {v}) is a loop")
            if length <= 0:
                raise PreconditionError(f"edge ({u}, {v}) needs a positive length")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise PreconditionError(f"edge ({u}, {v}) appears twice")
            seen_pairs.add(pair)
            self.edges.append((u, v, length))
            self.adjacency[u].append((v, length))
            self.adjacency[v].append((u, length))
        if len(self.edges) != len(self.vertices) - 1:
            raise PreconditionError("edge count must be vertex count minus one")
        self.root = root if root is not None else self.vertices[0]
        if self.root not in vertex_set:
            raise PreconditionError(f"root {self.root} is not a vertex")
        self._order, self._parent, self._parent_length = self._traverse()
        if len(self._order) != len(self.vertices):
            raise PreconditionError("tree is not connected")

    def _traverse(self) -> Tuple[List[str], Dict[str, Optional[str]],
                                 Dict[str, Fraction]]:
        order: List[str] = []
        parent: Dict[str, Optional[str]] = {self.root: None}
        parent_length: Dict[str, Fraction] = {}
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w, length in self.adjacency[v]:
                if w not in parent:
                    parent[w] = v
                    parent_length[w] = length
                    stack.append(w)
        return order, parent, parent_length

    def parent_of(self, v: str) -> Optional[str]:
        return self._parent[v]

    def parent_length(self, v: str) -> Fraction:
        """Length of the edge from a non-root vertex to its parent."""
        return self._parent_length[v]

    def preorder(self) -> List[str]:
        return list(self._order)

    def edge_length(self, u: str, v: str) -> Fraction:
        for w, length in self.adjacency[u]:
            if w == v:
                return length
        raise PreconditionError(f"no edge between {u} and {v}")

    def with_subdivided_edge(self, u: str, v: str, new_id: str,
                             at: Fraction) -> "MetricTree":
        """Insert a vertex on edge (u, v) at parameter at in (0, 1) from u."""
        at = frac(at)
        if not (0 < at < 1):
            raise PreconditionError("subdivision parameter must lie strictly inside (0, 1)")
        if new_id in self.vertices:
            raise PreconditionError(f"vertex id {new_id} already exists")
        length = self.edge_length(u, v)
        new_edges: List[Tuple[str, str, Fraction]] = []
        replaced = False
        for a, b, ell in self.edges:
            if frozenset((a, b)) == frozenset((u, v)):
                new_edges.append((u, new_id, length * at))
                new_edges.append((new_id, v, length * (1 - at)))
                replaced = True
            else:
                new_edges.append((a, b, ell))
        if not replaced:
            raise PreconditionError(f"no edge between {u} and {v}")
        return MetricTree(self.vertices + [new_id], new_edges, root=self.root)


@dataclass(frozen=True)
class TreeFunction:
    """Vertex values of a function that is affine along each edge."""
    values: Mapping[str, Fraction]

    def __call__(self, v: str) -> Fraction:
        return self.values[v]


def _check_function(tree: MetricTree, f: TreeFunction) -> None:
    if set(f.values.keys()) != set(tree.vertices):
        raise PreconditionError("function values must cover exactly the tree vertices")


def tree_laplacian(tree: MetricTree, f: TreeFunction) -> DiscreteMeasure:
    """Measure with atom at v equal to the sum of outgoing slopes of f; each
    edge's slope is computed once and enters its two ends with opposite signs."""
    _check_function(tree, f)
    atoms = {v: ZERO for v in tree.vertices}
    for u, v, length in tree.edges:
        slope = (f(v) - f(u)) / length
        atoms[u] += slope
        atoms[v] -= slope
    return DiscreteMeasure(atoms)


def curvature(tree: MetricTree, base: DiscreteMeasure,
              f: TreeFunction) -> DiscreteMeasure:
    """Curvature of the metric given by f against the base measure: base + laplacian(f)."""
    lap = tree_laplacian(tree, f)
    return DiscreteMeasure(list(base.atoms.items()) + list(lap.atoms.items()))


def ma_solve(tree: MetricTree, target: DiscreteMeasure,
             base: DiscreteMeasure) -> TreeFunction:
    """Solve base + laplacian(f) = target with f(root) = 0.

    Needs equal total masses and atoms supported on tree vertices; unique
    solution because summing the equation over a subtree determines the slope
    of f on the edge into that subtree.
    """
    vertex_set = set(tree.vertices)
    for measure, name in ((target, "target"), (base, "base")):
        stray = [k for k in measure.atoms if k not in vertex_set]
        if stray:
            raise PreconditionError(
                f"{name} measure has atoms off the tree vertices: {stray}")
    if target.total_mass != base.total_mass:
        raise PreconditionError(
            "cannot solve: target mass "
            f"{target.total_mass} differs from base mass {base.total_mass}")
    net = {v: target.atoms.get(v, ZERO) - base.atoms.get(v, ZERO)
           for v in tree.vertices}
    order = tree.preorder()
    subtree = dict(net)
    for v in reversed(order):
        p = tree.parent_of(v)
        if p is not None:
            subtree[p] += subtree[v]
    values: Dict[str, Fraction] = {}
    for v in order:
        p = tree.parent_of(v)
        if p is None:
            values[v] = ZERO
        else:
            values[v] = values[p] - tree.parent_length(v) * subtree[v]
    return TreeFunction(values)


def extend_to_subdivision(tree: MetricTree, fine: MetricTree, f: TreeFunction,
                          new_id: str, u: str, v: str, at: Fraction) -> TreeFunction:
    """Affine extension of f to the subdivision of edge (u, v) at parameter at."""
    _check_function(tree, f)
    at = frac(at)
    values = dict(f.values)
    values[new_id] = f(u) + (f(v) - f(u)) * at
    return TreeFunction(values)
