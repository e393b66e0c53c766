"""`navol verify-all` on a generated tree and a surface with a scan: frozen
output digests, and the tree path reads integer rows only."""

import csv
import hashlib
import json
import os
import random
from fractions import Fraction

import navol.cli as cli
from navol.serialize import parse_instance_text

from _oracles import tree_adjacency, tree_edges

F = Fraction

# SHA-256 per theorem of its CSV body rows, in order, and of its reports with
# their runtimes dropped, as the Fraction routes of the trees and cohomology
# modules wrote them; and of the CSV header with the ordered (theorem,
# instance, status) list, which the reports follow too. Together they pin
# every byte of the CSV body (all lines but the '#' comment) and of the JSON
# summary's reports. A change to one theorem's rows moves that theorem's two
# digests, and the order digest too if it adds, drops or renames a row.
CSV_ROWS_SHA256 = {
    "cohomology-consistency":
        "6bdc6e7adf6f71d50255c324053d249e41ab774b432bf8c80a194c9289d6e586",
    "cohomology-morse-bound":
        "f9906394e0880c501fd16d171afaade08b175b636ca74416510bf599bba13d41",
    "cohomology-twist-stability":
        "b2aa38a5d2b529634bba2fe2017fd5f64308b5eaf97e660141e5f34589c14b27",
    "envelope-orthogonality":
        "1be831883e6dda6c8c13b45a7a0efca576527b7e1d125647d66bd302c465195e",
    "h0-envelope-equality":
        "9981c13a604a8a005262b64af7843d28c7c27ae9b826b31b9f8a3d01fe6291bb",
    "tree-monge-ampere-solvability":
        "abbc6fedcc61899c94c017a82ae8dbe8c6abe50f70dc296f45752cbb44032917",
    "vol-is-energy":
        "c796278abe36b723030f01010585297cc5e95b70326aae100d2665b027b0d5ce",
    "volume-differentiability":
        "09bcea7f0ef3ab0bc2e1aadc0c999610e563d2f6036013006965ee90a62a7feb",
}
REPORTS_SHA256 = {
    "cohomology-consistency":
        "470eb16de3e1e06937fddcb85b82d568f66c5e1e116216864d86a3675e783ec3",
    "cohomology-morse-bound":
        "467e9347cc2b72266dd09064cee7dc975956f0c647302fac9f4516a289070f06",
    "cohomology-twist-stability":
        "e99ccdaaba1c94bbd34605ce0c724b0e9865b8a87351e5776db46d41314034a3",
    "envelope-orthogonality":
        "249a31e8a959c62447f742ff86947cca2f080d5727ed5a35957c08bf98f3214c",
    "h0-envelope-equality":
        "2b57a41a18957ef22b0f9c1f8e3a71fe2ab0a751dfd33ecdeea872e8f45458a5",
    "tree-monge-ampere-solvability":
        "281580255c3fa3b42ee7616793d07a51b7a175e3745d6988f1b45841defc1119",
    "vol-is-energy":
        "7e3d6b7af8a3d0ba13f172c7af31623f788cd26736181bb1e43371490fd9fe9c",
    "volume-differentiability":
        "4845cd35731104abc57f58fa5a62502e71fb5c017f2d62daffcc704c8e8f7231",
}
ORDER_SHA256 = "5eb4fef52239e8ad6c94bd24cad0eee6e4ac599ae22bd48635c72db9de9e240c"


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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def verify_all_digests(directory):
    """(exit code, CSV rows digest per theorem, reports digest per theorem,
    order digest) of `navol verify-all --seed 0` with the guard instances
    added."""
    paths = []
    for name, payload in guard_instances().items():
        paths.append(os.path.join(directory, name))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    out = os.path.join(directory, "out")
    rc = cli.main(["verify-all", *paths, "--seed", "0", "--out-dir", out])
    with open(os.path.join(out, "verify_all.csv"), encoding="utf-8") as handle:
        header, *rows = [line for line in handle if not line.startswith("#")]
    with open(os.path.join(out, "verify_all.json"), encoding="utf-8") as handle:
        reports = json.load(handle)["reports"]
    for report in reports:
        del report["runtime_seconds"]
    order = [tuple(fields[:3]) for fields in csv.reader(rows)]
    assert order == [(r["theorem"], r["instance"], "pass" if r["passed"] else "FAIL")
                     for r in reports]
    theorems = sorted({theorem for theorem, _, _ in order})
    csv_rows = {t: _sha256("".join(row for row, (theorem, _, _) in zip(rows, order)
                                   if theorem == t)) for t in theorems}
    report_rows = {t: _sha256(json.dumps([r for r in reports if r["theorem"] == t],
                                         sort_keys=True)) for t in theorems}
    return rc, csv_rows, report_rows, _sha256(header + json.dumps(order))


def test_verify_all_outputs_are_frozen(tmp_path, capsys):
    rc, csv_rows, reports, order = verify_all_digests(str(tmp_path))
    capsys.readouterr()
    assert rc == 0
    assert csv_rows == CSV_ROWS_SHA256
    assert reports == REPORTS_SHA256
    assert order == ORDER_SHA256


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
