"""`tools/perf_pairs.py` reads paired runs the way BENCHMARK.json declares them.

The tool is loaded without running it: its summary is built here from canned
`perfbench/run.py` results, so no benchmark run starts.
"""

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def perf_pairs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location(
        "perf_pairs_under_test", os.path.join(ROOT, "tools", "perf_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        if name in ("run", "workloads", "tracer", "stage_timing"):
            del sys.modules[name]


def _result(ops, p50, rss, digest="d0", failed=0):
    return {"metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "op_p50_ms": {"value": p50, "unit": "ms"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
            "failed": failed, "digest": digest}


def test_summary_reads_each_metric_in_its_direction(perf_pairs):
    specs = perf_pairs.end_to_end_specs()
    assert {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"} <= set(specs)
    base = [_result(100, 2.0, 30.0), _result(104, 2.1, 30.0), _result(96, 1.9, 30.0),
            _result(102, 2.0, 30.0), _result(98, 2.2, 30.0)]
    # ops_per_s: 4 of 5 pairs won, median 115 against 100 with base IQR 4;
    # p50: faster in 2 of 5 and a median 0.1 ms worse, inside its bound;
    # peak RSS: 40 MB against 30, worse beyond its 20 % bound
    change = [_result(115, 2.1, 40.0), _result(116, 2.1, 40.0), _result(90, 2.1, 40.0),
              _result(120, 1.9, 40.0), _result(110, 2.1, 40.0, digest="d1", failed=2)]
    counts = {"parent": {"x.calls": 3.0}, "change": {"x.calls": 3.0}}
    entry = perf_pairs.summarize({"parent": base, "change": change}, counts, specs)

    parent = entry["parent"]
    assert parent["runs"]["ops_per_s"] == [100, 104, 96, 102, 98]
    assert parent["median"]["ops_per_s"] == 100
    assert parent["quartiles"]["ops_per_s"] == [98, 100, 102]
    assert parent["ops_per_s"] == [100, 104, 96, 102, 98]
    assert parent["digests"] == ["d0"] and parent["failed"] == 0
    assert parent["counts_per_pass"] == {"x.calls": 3.0}
    assert entry["change"]["digests"] == ["d0", "d1"] and entry["change"]["failed"] == 2
    assert entry["pairs_won_by_change"] == 4
    # one run of the change wrote other bytes than the parent's runs
    assert entry["digests_equal"] is False
    same = perf_pairs.summarize({"parent": base, "change": base[::-1]}, counts, specs)
    assert same["digests_equal"] is True

    ops = entry["verdicts"]["ops_per_s"]
    assert ops == {"pairs_won": 4, "median_change": 0.15, "beats_base_iqr": True,
                   "worse_beyond_bound": False, "unresolved": False}
    p50 = entry["verdicts"]["op_p50_ms"]
    assert p50["pairs_won"] == 2
    assert p50["median_change"] == pytest.approx(0.05)
    assert not p50["beats_base_iqr"] and not p50["worse_beyond_bound"]
    rss = entry["verdicts"]["peak_rss_mb"]
    assert rss["pairs_won"] == 0 and rss["worse_beyond_bound"]
    # metrics the runs did not report get no verdict
    assert set(entry["verdicts"]) == {"ops_per_s", "op_p50_ms", "peak_rss_mb"}


def test_a_gain_inside_the_base_spread_is_not_beyond_its_iqr(perf_pairs):
    spec = {"better": "higher", "bound": 0.25}
    base, change = [90, 100, 110, 95, 105], [101, 102, 103, 104, 106]
    verdict = perf_pairs.verdict(base, change, spec)
    assert verdict["pairs_won"] == 4
    assert not verdict["beats_base_iqr"]     # median 103 - 100 <= IQR 105 - 95
    lower = perf_pairs.verdict(base, change, {"better": "lower", "bound": 0.25})
    assert lower["pairs_won"] == 1 and not lower["worse_beyond_bound"]
    # a spread wider than the bound leaves a verdict open, unless every run
    # of the change reads better than every run of the parent
    tight = {"better": "higher", "bound": 0.05}
    assert perf_pairs.verdict(base, change, tight)["unresolved"]
    assert not perf_pairs.verdict(base, [120, 121, 122, 123, 124], tight)["unresolved"]


def test_pairs_option_sets_the_runs_and_the_payload(perf_pairs, monkeypatch, tmp_path, capsys):
    calls = []

    def bench(root, workload, seed, trace):
        calls.append((root, trace))
        return _result(100 + len(calls), 2.0, 30.0)

    monkeypatch.setattr(perf_pairs, "bench", bench)
    out = tmp_path / "bench.json"
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert perf_pairs.main(["--out", str(out), "--root", f"parent={a}", "--root", f"change={b}",
                            "--workload", "deform-energy", "--seed", "2027",
                            "--pairs", "3"]) == 0
    # three untimed pairs alternating which side goes first, then one traced
    # run per side
    assert calls == [(a, 0), (b, 0), (b, 0), (a, 0), (a, 0), (b, 0), (a, 1), (b, 1)]
    payload = json.loads(out.read_text())
    assert payload["pairs"] == 3 and payload["seed"] == 2027
    entry = payload["workloads"]["deform-energy"]
    assert entry["parent"]["ops_per_s"] == [101, 104, 105]
    assert entry["change"]["ops_per_s"] == [102, 103, 106]
    printed = capsys.readouterr().out
    assert "pairs won by change: 2 of 3; digests equal: True" in printed
    # one verdict line per end-to-end metric, after the pairs line: ops_per_s
    # 104 -> 103 (2 of 3 pairs), p50 and peak RSS equal in every run
    assert printed.split("digests equal: True\n")[1].splitlines() == [
        "deform-energy  ops_per_s: pairs won 2 of 3, median -0.96%, beats_base_iqr False,"
        " worse_beyond_bound False, unresolved False",
        "deform-energy  op_p50_ms: pairs won 0 of 3, median +0.00%, beats_base_iqr False,"
        " worse_beyond_bound False, unresolved False",
        "deform-energy  peak_rss_mb: pairs won 0 of 3, median +0.00%, beats_base_iqr False,"
        " worse_beyond_bound False, unresolved False"]
    with pytest.raises(SystemExit):
        perf_pairs.main(["--out", str(out), "--root", f"parent={a}", "--root", f"change={b}",
                         "--pairs", "1"])


def test_payload_and_console_carry_each_checkouts_src_lines(perf_pairs, monkeypatch, tmp_path,
                                                            capsys):
    monkeypatch.setattr(perf_pairs, "bench", lambda root, workload, seed, trace:
                        _result(100, 2.0, 30.0))
    roots = {}
    for name, sizes in (("parent", (3, 5)), ("change", (3, 2))):
        package = tmp_path / name / "src" / "navol"
        package.mkdir(parents=True)
        for k, size in enumerate(sizes):
            (package / f"m{k}.py").write_text("x = 1\n" * size)
        (package / "notes.txt").write_text("not counted\n")
        roots[name] = str(tmp_path / name)
    assert perf_pairs.src_lines(roots["parent"]) == 8
    out = tmp_path / "bench.json"
    assert perf_pairs.main(["--out", str(out), "--root", f"parent={roots['parent']}",
                            "--root", f"change={roots['change']}",
                            "--workload", "lattice-sweep", "--pairs", "2"]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 8, "change": 5}
    assert "src lines: parent 8 -> change 5" in capsys.readouterr().out.splitlines()


def test_a_checkout_with_a_bytecode_cache_is_refused_before_any_run(perf_pairs, monkeypatch,
                                                                    tmp_path, capsys):
    def bench(root, workload, seed, trace):
        raise AssertionError("no run may start")

    monkeypatch.setattr(perf_pairs, "bench", bench)
    cache = tmp_path / "change" / "src" / "navol" / "__pycache__"
    cache.mkdir(parents=True)
    (tmp_path / "parent").mkdir()
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        perf_pairs.main(["--out", str(out), "--root", f"parent={tmp_path / 'parent'}",
                         "--root", f"change={tmp_path / 'change'}"])
    assert exit_info.value.code == 2
    assert str(cache) in capsys.readouterr().err
    assert not out.exists()


def test_a_malformed_root_is_refused_before_any_run(perf_pairs, monkeypatch, tmp_path, capsys):
    def bench(root, workload, seed, trace):
        raise AssertionError("no run may start")

    monkeypatch.setattr(perf_pairs, "bench", bench)
    out = tmp_path / "bench.json"
    for spec in (str(tmp_path), f"={tmp_path}"):
        with pytest.raises(SystemExit) as exit_info:
            perf_pairs.main(["--out", str(out), "--root", spec,
                             "--root", f"change={tmp_path}"])
        assert exit_info.value.code == 2
        assert f"--root needs NAME=PATH, got {spec!r}" in capsys.readouterr().err
    assert not out.exists()
