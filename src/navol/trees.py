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
"""
from __future__ import annotations

import math
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
        self.position: Dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        self.edges: List[Tuple[str, str, Fraction]] = []
        self.adjacency: Dict[str, List[Tuple[str, Fraction]]] = {
            v: [] for v in self.vertices}
        seen_pairs = set()
        for u, v, length in edges:
            length = frac(length)
            if u not in self.position or v not in self.position:
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
        if self.root not in self.position:
            raise PreconditionError(f"root {self.root} is not a vertex")
        self.order, self.parent, parent_length = self._traverse()
        if len(self.order) != len(self.vertices):
            raise PreconditionError("tree is not connected")
        # Integer rows by vertex position: the edge from a non-root vertex i
        # to its parent has length lengths[i] / length_scale and reciprocal
        # conductances[i] / conductance_scale, each scale the lcm of the
        # denominators it clears; both rows hold 0 at the root.
        self.length_scale = math.lcm(*{x.denominator for x in parent_length})
        self.lengths = [x.numerator * (self.length_scale // x.denominator)
                        for x in parent_length]
        self.conductance_scale = math.lcm(*{x.numerator for x in parent_length if x})
        self.conductances = [
            x.denominator * (self.conductance_scale // x.numerator) if x else 0
            for x in parent_length]

    def _traverse(self) -> Tuple[List[int], List[int], List[Fraction]]:
        """Vertex positions in preorder from the root, each position's parent
        position (-1 at the root) and parent-edge length (0 at the root)."""
        root = self.position[self.root]
        order: List[int] = []
        parent = [-1] * len(self.vertices)
        parent_length = [ZERO] * len(self.vertices)
        seen = {root}
        stack = [root]
        while stack:
            i = stack.pop()
            order.append(i)
            for w, length in self.adjacency[self.vertices[i]]:
                j = self.position[w]
                if j not in seen:
                    seen.add(j)
                    parent[j] = i
                    parent_length[j] = length
                    stack.append(j)
        return order, parent, parent_length


@dataclass(frozen=True)
class TreeFunction:
    """Vertex values of a function that is affine along each edge."""
    values: Mapping[str, Fraction]

    def __call__(self, v: str) -> Fraction:
        return self.values[v]


def _check_function(tree: MetricTree, f: TreeFunction) -> None:
    if set(f.values.keys()) != set(tree.vertices):
        raise PreconditionError("function values must cover exactly the tree vertices")


def net_mass_rows(tree: MetricTree, target: DiscreteMeasure,
                  base: DiscreteMeasure) -> Tuple[int, List[int]]:
    """(D, net): D * (target - base) at each vertex position, over the lcm D
    of the masses' denominators. Needs both measures on the tree's vertices
    and of equal total mass."""
    for measure, name in ((target, "target"), (base, "base")):
        stray = [k for k in measure.atoms if k not in tree.position]
        if stray:
            raise PreconditionError(
                f"{name} measure has atoms off the tree vertices: {stray}")
    scale = math.lcm(*{m.denominator for m in target.atoms.values()},
                     *{m.denominator for m in base.atoms.values()})
    net = [0] * len(tree.vertices)
    for measure, sign in ((target, 1), (base, -1)):
        for v, m in measure.atoms.items():
            net[tree.position[v]] += sign * m.numerator * (scale // m.denominator)
    if sum(net):
        raise PreconditionError(
            "cannot solve: target mass "
            f"{target.total_mass} differs from base mass {base.total_mass}")
    return scale, net


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
