"""Potential theory on metric trees: Laplacians, curvature, exact solving."""

import random
import re
from fractions import Fraction

import pytest

from navol.errors import PreconditionError
from navol.harness import (random_tree, random_tree_measures,
                           verify_tree_solvability)
from navol.measures import DiscreteMeasure
from navol.trees import MetricTree, TreeFunction, curvature, ma_solve, tree_laplacian

from _oracles import (extend_to_subdivision, first_primes, ma_solve_oracle, tree_edges,
                      tree_laplacian_oracle, tree_rows_oracle, with_subdivided_edge)

F = Fraction


def _star():
    return MetricTree(["r", "a", "b", "c"],
                      [("r", "a", F(1)), ("r", "b", F(1, 2)), ("r", "c", F(2))])


def test_star_solve_frozen_solution():
    tree = _star()
    target = DiscreteMeasure([("a", F(1)), ("b", F(1)), ("c", F(1))])
    base = DiscreteMeasure([("r", F(3))])
    phi = ma_solve(tree, target, base)
    assert phi("r") == 0
    assert phi("a") == -1
    assert phi("b") == F(-1, 2)
    assert phi("c") == -2
    assert curvature(tree, base, phi) == target


def _random_star(rng, leaves):
    """Star with edges listed in random orientation, rooted at a random vertex."""
    names = ["hub"] + [f"l{i}" for i in range(leaves)]
    edges = []
    for leaf in names[1:]:
        length = F(rng.randint(1, 8), rng.randint(1, 4))
        edges.append(("hub", leaf, length) if rng.random() < 0.5
                     else (leaf, "hub", length))
    return MetricTree(names, edges, root=rng.choice(names))


def test_laplacian_matches_direct_formula():
    rng = random.Random(410)
    for i in range(25):
        tree = (random_tree(rng, max_vertices=14) if i < 15
                else _random_star(rng, rng.randint(1, 12)))
        f = TreeFunction({v: F(rng.randint(-9, 9), rng.randint(1, 4))
                          for v in tree.vertices})
        lap = tree_laplacian(tree, f)
        assert lap.atoms == tree_laplacian_oracle(tree, f)
        assert lap.total_mass == 0


def _prime_tree(rng, primes):
    """Random recursive tree with one edge per prime, of length k/p, and a
    random root."""
    names = [f"v{i}" for i in range(len(primes) + 1)]
    edges = [(names[rng.randrange(i)], names[i], F(rng.randint(1, 9), p))
             for i, p in enumerate(primes, start=1)]
    return MetricTree(names, edges, root=rng.choice(names))


def _messy_measures(tree, rng):
    """Target and base of equal mass, each with repeated atoms on one vertex
    and an atom pair that sums to zero."""
    def atoms(size):
        out = [(rng.choice(tree.vertices), F(rng.randint(-6, 6), rng.randint(1, 5)))
               for _ in range(size)]
        v, m = rng.choice(tree.vertices), F(rng.randint(1, 6), rng.randint(1, 7))
        return out + [(v, m), (v, -m)]
    target = DiscreteMeasure(atoms(len(tree.vertices)))
    base = atoms(len(tree.vertices) // 2)
    base.append((rng.choice(tree.vertices),
                 target.total_mass - DiscreteMeasure(base).total_mass))
    return target, DiscreteMeasure(base)


def test_integer_kernels_match_the_fraction_oracles():
    rng = random.Random(414)
    primes = first_primes(60)
    trees = [_prime_tree(rng, primes) for _ in range(4)]
    trees += [MetricTree(["only"], []), _star(),
              MetricTree(["r", "a", "b", "c"],
                         [("r", "a", F(1)), ("r", "b", F(1, 2)), ("r", "c", F(2))],
                         root="b")]
    for tree in trees:
        target, base = _messy_measures(tree, rng)
        phi = ma_solve(tree, target, base)
        assert phi.values == ma_solve_oracle(tree, target, base)
        assert tree_laplacian(tree, phi).atoms == tree_laplacian_oracle(tree, phi)
        assert curvature(tree, base, phi) == target
        assert verify_tree_solvability(tree, target, base).passed
        g = TreeFunction({v: F(rng.randint(-9, 9), rng.choice(primes))
                          for v in tree.vertices})
        lap = tree_laplacian(tree, g)
        assert lap.atoms == tree_laplacian_oracle(tree, g)
        assert lap.total_mass == 0
        solved = ma_solve(tree, curvature(tree, base, g), base)
        assert solved.values == {v: g(v) - g(tree.root) for v in tree.vertices}


def test_laplacian_is_linear_and_kills_constants():
    rng = random.Random(411)
    tree = random_tree(rng, max_vertices=10)
    f = TreeFunction({v: F(rng.randint(-5, 5)) for v in tree.vertices})
    g = TreeFunction({v: F(rng.randint(-5, 5), 2) for v in tree.vertices})
    const = TreeFunction({v: F(7, 3) for v in tree.vertices})
    assert tree_laplacian(tree, const).atoms == {}
    fg = TreeFunction({v: f(v) + g(v) for v in tree.vertices})
    summed = DiscreteMeasure(
        list(tree_laplacian(tree, f).atoms.items())
        + list(tree_laplacian(tree, g).atoms.items()))
    assert tree_laplacian(tree, fg) == summed


def test_solve_roundtrip_on_seeded_trees():
    rng = random.Random(412)
    for _ in range(15):
        tree = random_tree(rng)
        target, base = random_tree_measures(tree, rng)
        phi = ma_solve(tree, target, base)
        assert phi(tree.root) == 0
        assert curvature(tree, base, phi) == target


def test_solve_roundtrip_on_a_large_star():
    rng = random.Random(413)
    tree = _random_star(rng, 5000)
    target, base = random_tree_measures(tree, rng)
    phi = ma_solve(tree, target, base)
    assert phi(tree.root) == 0
    assert curvature(tree, base, phi) == target


def test_solve_rejects_mass_mismatch():
    tree = _star()
    target = DiscreteMeasure([("a", F(2))])
    base = DiscreteMeasure([("r", F(1))])
    with pytest.raises(PreconditionError):
        ma_solve(tree, target, base)


def test_solve_rejects_atoms_off_the_tree():
    tree = _star()
    target = DiscreteMeasure([("nope", F(1))])
    base = DiscreteMeasure([("r", F(1))])
    with pytest.raises(PreconditionError):
        ma_solve(tree, target, base)


def test_subdivision_preserves_curvature():
    tree = _star()
    target = DiscreteMeasure([("a", F(1)), ("b", F(1)), ("c", F(1))])
    base = DiscreteMeasure([("r", F(3))])
    phi = ma_solve(tree, target, base)
    fine = with_subdivided_edge(tree, "r", "c", "mid", F(1, 4))
    phi_fine = extend_to_subdivision(tree, phi, "mid", "r", "c", F(1, 4))
    assert phi_fine("mid") == phi("r") + (phi("c") - phi("r")) * F(1, 4)
    assert curvature(fine, base, phi_fine) == target
    assert tree_laplacian(fine, phi_fine).atoms.get("mid") is None


def test_tree_requires_connected_acyclic_input():
    with pytest.raises(PreconditionError):
        MetricTree(["a", "b", "c"], [("a", "b", F(1))])  # c unreachable
    with pytest.raises(PreconditionError):
        MetricTree(["a", "b", "c"],
                   [("a", "b", F(1)), ("b", "c", F(1)), ("c", "a", F(1))])
    with pytest.raises(PreconditionError):
        MetricTree(["a", "b"], [("a", "b", F(0))])  # zero-length edge


def test_from_pairs_needs_a_positive_denominator():
    tree = MetricTree.from_pairs(["a", "b"], [("a", "b", 2, 4)])
    assert tree_edges(tree) == [("a", "b", F(1, 2))]
    assert tree.lengths[1] * 2 == tree.length_scale
    for p, q in ((1, -2), (-1, -2), (1, 0), (0, 0)):
        with pytest.raises(PreconditionError):
            MetricTree.from_pairs(["a", "b"], [("a", "b", p, q)])


def _built(vertices, edges, root):
    """A tree's rows, or the PreconditionError line that refuses it."""
    try:
        tree = MetricTree.from_pairs(vertices, edges, root=root)
    except PreconditionError as exc:
        return "error", str(exc)
    rows = tuple(getattr(tree, a) for a in ("root", "_edge_rows", "order", "parent",
                                            "length_scale", "lengths",
                                            "conductance_scale", "conductances"))
    assert rows[2:] == tree_rows_oracle(tree)
    return rows


# one fault each, applied to a copy of (vertices, edges, root)
def _loop(rng, vs, es, root):
    k = rng.randrange(len(es))
    es[k] = (es[k][0], es[k][0], *es[k][2:])


def _repeat(rng, vs, es, root):
    k = rng.randrange(len(es))
    u, v, p, q = es[rng.randrange(len(es))]
    es[k] = (v, u, p, q)


def _unknown_end(rng, vs, es, root):
    k = rng.randrange(len(es))
    es[k] = (es[k][0], "nowhere", *es[k][2:])


def _bad_length(rng, vs, es, root):
    k = rng.randrange(len(es))
    es[k] = (*es[k][:2], *rng.choice([(0, 1), (-3, 2), (1, 0), (2, -5), (0, 0)]))


def _extra_edge(rng, vs, es, root):
    es.append((rng.choice(vs), rng.choice(vs), 1, 1))


def _cycle_and_isolated(rng, vs, es, root):
    # n - 1 edges again, but one closes a cycle and a vertex is left alone
    vs.append("isolated")
    es.append((rng.choice(vs[:-1]), rng.choice(vs[:-1]), 1, 1))


FAULTS = [_loop, _repeat, _unknown_end, _bad_length, _extra_edge, _cycle_and_isolated,
          lambda rng, vs, es, root: es.pop(rng.randrange(len(es))),
          lambda rng, vs, es, root: vs.append(rng.choice(vs)),
          lambda rng, vs, es, root: vs.clear(),
          lambda rng, vs, es, root: vs.reverse()]


def test_whole_list_checks_build_the_rows_of_the_per_edge_checks():
    # from_pairs reads any iterable as one list, by whole-list invariants, and
    # checks edge by edge only to name a fault; a list and an iterator give
    # the oracle's rows, or the same first fault
    rng = random.Random(420)
    primes = first_primes(30)
    cases = [(["only"], [], None), (["only"], [], "elsewhere")]
    for size in (2, 3, 8, 31):
        for _ in range(4):
            tree = _prime_tree(rng, [rng.choice(primes + [1]) for _ in range(size - 1)])
            cases.append((tree.vertices, list(tree._edge_rows), tree.root))
    for vertices, edges, root in list(cases[2:]):
        for fault in FAULTS:
            vs, es = list(vertices), list(edges)
            fault(rng, vs, es, root)
            cases.append((vs, es, root))
        cases.append((vertices, edges, "nowhere"))
        cases.append((vertices, edges, None))
    outcomes = set()
    for vertices, edges, root in cases:
        fast = _built(vertices, edges, root)
        assert fast == _built(vertices, iter(edges), root)
        outcomes.add(re.sub(r"edge \(.*\)|root \S+", "", fast[1])
                     if fast[0] == "error" else "rows")
    assert len(outcomes) == 11, outcomes


def test_a_valid_fraction_built_tree_runs_no_per_edge_fault_scan(monkeypatch):
    # both constructors check by whole-list invariants; the edge-by-edge scan
    # runs only once they fail, to name the fault
    scans = []
    scan = MetricTree._raise_fault
    monkeypatch.setattr(MetricTree, "_raise_fault",
                        lambda tree, *args: scans.append(args) or scan(tree, *args))
    tree = _prime_tree(random.Random(43), first_primes(40))
    assert scans == []
    assert MetricTree(tree.vertices, tree_edges(tree), tree.root).order == tree.order
    assert scans == []
    with pytest.raises(PreconditionError, match=r"edge \(r, r\) is a loop"):
        MetricTree(["r", "a"], [("r", "r", F(1))])
    assert len(scans) == 1


@pytest.mark.parametrize("values", [
    {"r": F(0), "a": F(1), "b": F(2)},
    {"r": F(0), "a": F(1), "b": F(2), "c": F(3), "d": F(4)},
    {"r": F(0), "a": F(1), "b": F(2), "d": F(3)},
], ids=["misses-a-vertex", "one-vertex-too-many", "one-vertex-swapped"])
def test_trees_refusals(values):
    with pytest.raises(PreconditionError,
                       match="function values must cover exactly the tree vertices"):
        tree_laplacian(_star(), TreeFunction(values))
