"""``scripts/bench_pairs.py``: its summary of paired runs, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_on_fixed_numbers(script):
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [8.0, 12.0, 10.0, 14.0, 7.0]
    summary = script.summarize(parent, change, "lower")
    # pairs 0, 2 and 4 won, pair 1 a tie, pair 3 lost
    assert summary["change_wins"] == 3 and summary["pairs"] == 5
    # statistics.quantiles(n=4), the exclusive method: (n + 1) p-th order statistics
    assert summary["parent"] == {"q1": 9.5, "median": 11.0, "q3": 12.5, "runs": parent}
    assert summary["change"] == {"q1": 7.5, "median": 10.0, "q3": 13.0, "runs": change}
    assert script.summarize(parent, change, "higher")["change_wins"] == 1
    assert script.summarize([1.0], [1.0], "higher")["parent"]["q1"] == 1.0
    with pytest.raises(ValueError, match="2 parent runs against 1 change runs"):
        script.summarize([1.0, 2.0], [1.0], "lower")


def test_pairs_alternate_which_side_runs_first(script, monkeypatch):
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree, seed))
        value = {"old": 10.0, "new": 8.0}[tree] + seed % 2
        return {"correct": tree == "new", "metrics": {"op_p50_ms": {"value": value}}}

    monkeypatch.setattr(script, "run_once", run_once)
    result = script.compare({"parent": "old", "change": "new"}, ["w"], 3, 5, 1.0,
                            {"op_p50_ms": "lower"})
    assert calls == [("old", 5), ("new", 5), ("new", 6), ("old", 6), ("old", 7), ("new", 7)]
    w = result["w"]
    assert w["seeds"] == [5, 6, 7] and w["first_side"] == ["parent", "change", "parent"]
    assert w["all_ops_correct"] == {"parent": False, "change": True}
    metric = w["metrics"]["op_p50_ms"]
    assert metric["parent"]["runs"] == [11.0, 10.0, 11.0]
    assert metric["change"]["runs"] == [9.0, 8.0, 9.0]
    assert metric["change_wins"] == 3


def test_workloads_and_run_length_come_from_the_benchmark(script, monkeypatch):
    root = PATH.parent.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seen = {}

    def compare(trees, workloads, pairs, seed, seconds, metrics):
        seen.update(workloads=workloads, pairs=pairs, seed=seed, seconds=seconds)
        return {}

    monkeypatch.setattr(script, "compare", compare)
    monkeypatch.setattr(script.compileall, "compile_dir", lambda *args, **kwargs: True)
    script.main(["--parent", str(root), "--change", str(root), "--seed", "7", "--pairs", "2"])
    assert seen == {"workloads": [w["name"] for w in benchmark["workloads"]], "pairs": 2,
                    "seed": 7, "seconds": benchmark["run_seconds"]}
