"""`navol verify-all` on a generated tree and a surface with a scan: frozen
output digests, and the tree path reads integer rows only."""

import hashlib
import json
import os
import random
from fractions import Fraction

import navol.cli as cli
from navol.serialize import parse_instance_text

from _oracles import tree_adjacency, tree_edges

F = Fraction

# SHA-256 of the CSV body (all lines but the '#' comment) and of the JSON
# summary's reports with their runtimes dropped, as the Fraction routes of
# the trees and cohomology modules wrote them.
CSV_BODY_SHA256 = "13fd109e81d3e1005fc6b40924df8338e8a20d5286d53730ed1ce804fe7e8764"
REPORTS_SHA256 = "4c9d6dd7d0f0549f68070f9164ad25c6b38ee6b83eba7bdd45b4333e51c54328"


def guard_instances():
    """A 450-vertex tree with edge lengths and masses over small primes, and
    an F1 surface whose divisors have non-integral and negative terms."""
    rng = random.Random(4242)
    names = [f"n{i}" for i in range(450)]
    edges = [{"ends": [names[rng.randrange(i)], names[i]],
              "length": f"{rng.randint(1, 9)}/{rng.choice((1, 2, 3, 5, 7))}"}
             for i in range(1, len(names))]
    target = [{"vertex": v, "mass": f"{rng.randint(-6, 6)}/{rng.randint(1, 4)}"}
              for v in names]
    total = sum(F(atom["mass"]) for atom in target)
    base = [{"vertex": names[0], "mass": str(total - 3)},
            {"vertex": names[1], "mass": 3}]
    tree = {"kind": "tree",
            "tree": {"vertices": names, "edges": edges, "root": names[7]},
            "measures": {"target": target, "base": base}}
    surface = {"kind": "surface", "family": "F1",
               "divisors": {"D": [{"coeff": "7/3", "class": [1, 2]},
                                  {"coeff": "-1/4", "class": [0, 1]}],
                            "E": [{"coeff": "5/6", "class": [1, 1]},
                                  {"coeff": "11/2", "class": [0, 1]}]},
               "schedule": list(range(1, 25)), "q": 1,
               "scan": {"d": ["D"], "p": ["E"], "q": 0, "grid_max": 9}}
    return {"tree-450.json": tree, "surface-f1.json": surface}


def verify_all_digests(directory):
    """(exit code, CSV body digest, reports digest) of `navol verify-all
    --seed 0` with the guard instances added."""
    paths = []
    for name, payload in guard_instances().items():
        paths.append(os.path.join(directory, name))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    out = os.path.join(directory, "out")
    rc = cli.main(["verify-all", *paths, "--seed", "0", "--out-dir", out])
    with open(os.path.join(out, "verify_all.csv"), encoding="utf-8") as handle:
        body = "".join(line for line in handle if not line.startswith("#"))
    with open(os.path.join(out, "verify_all.json"), encoding="utf-8") as handle:
        reports = json.load(handle)["reports"]
    for report in reports:
        del report["runtime_seconds"]
    text = json.dumps(reports, sort_keys=True)
    return (rc, hashlib.sha256(body.encode()).hexdigest(),
            hashlib.sha256(text.encode()).hexdigest())


def test_verify_all_outputs_are_frozen(tmp_path, capsys):
    rc, body, reports = verify_all_digests(str(tmp_path))
    capsys.readouterr()
    assert rc == 0
    assert body == CSV_BODY_SHA256
    assert reports == REPORTS_SHA256


def test_the_tree_check_builds_no_fraction_views():
    # parsing a tree file and running its verify-all check read the tree's
    # integer rows and the measures' atom rows only
    inst = parse_instance_text(json.dumps(guard_instances()["tree-450.json"]),
                               "tree-450.json")
    (report,) = cli._instance_checks(inst)
    assert report.passed and report.exact["vertices"] == "450"
    assert not hasattr(inst.tree, "edges")
    assert not hasattr(inst.tree, "adjacency")
    # the test-side Fraction views read the same rows
    assert len(tree_edges(inst.tree)) == 449
    assert sum(map(len, tree_adjacency(inst.tree).values())) == 2 * 449
