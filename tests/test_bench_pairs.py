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
    summary = script.summarize(parent, change, "lower", 0.25)
    # pairs 0, 2 and 4 won, pair 1 a tie, pair 3 lost
    assert summary["change_wins"] == 3 and summary["pairs"] == 5
    # statistics.quantiles(n=4), the exclusive method: (n + 1) p-th order statistics
    assert summary["parent"] == {"q1": 9.5, "median": 11.0, "q3": 12.5, "runs": parent}
    assert summary["change"] == {"q1": 7.5, "median": 10.0, "q3": 13.0, "runs": change}
    assert script.summarize(parent, change, "higher", 0.25)["change_wins"] == 1
    assert script.summarize([1.0], [1.0], "higher", 0.25)["parent"]["q1"] == 1.0
    with pytest.raises(ValueError, match="2 parent runs against 1 change runs"):
        script.summarize([1.0, 2.0], [1.0], "lower", 0.25)


# median 12.25, quartiles 10.875 and 13.625
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]


@pytest.mark.parametrize("change, gain", [
    # every pair won, median 9.25: 3.0 below the parent's, past its quartile distance
    ([p - 3.0 for p in PARENT], True),
    # 9 of 10 pairs won by 3.0, the tenth lost
    ([p - 3.0 for p in PARENT[:9]] + [PARENT[9] + 1.0], True),
    # 8 of 10 pairs won, though the median moves as far
    ([p - 3.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]], False),
    # every pair won, by 2.0: inside the parent's quartile distance
    ([p - 2.0 for p in PARENT], False),
], ids=["all-pairs", "nine-pairs", "eight-pairs", "inside-quartiles"])
def test_gain_needs_nine_of_ten_pairs_and_a_median_past_the_quartiles(script, change, gain):
    assert script.summarize(PARENT, change, "lower", 0.25)["gain_holds"] is gain
    # in the other direction the same runs are a loss
    mirrored = [-p for p in PARENT], [-c for c in change]
    assert script.summarize(*mirrored, "higher", 0.25)["gain_holds"] is gain
    assert not script.summarize(PARENT, change, "higher", 0.25)["gain_holds"]


@pytest.mark.parametrize("scale, better, within", [
    (1.25, "lower", True),    # exactly the bound: 12.25 -> 15.3125
    (1.26, "lower", False),
    (0.5, "lower", True),     # any gain is within the bound
    (0.75, "higher", True),   # exactly the bound the other way
    (0.74, "higher", False),
    (2.0, "higher", True),
])
def test_median_within_bound_of_the_parents(script, scale, better, within):
    change = [p * scale for p in PARENT]
    summary = script.summarize(PARENT, change, better, 0.25)
    assert summary["change"]["median"] == pytest.approx(12.25 * scale)
    assert summary["within_bound"] is within


def test_pairs_alternate_which_side_runs_first(script, monkeypatch):
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree, seed))
        value = {"old": 10.0, "new": 8.0}[tree] + seed % 2
        return {"correct": tree == "new", "metrics": {"op_p50_ms": {"value": value}}}

    monkeypatch.setattr(script, "run_once", run_once)
    result = script.compare({"parent": "old", "change": "new"}, ["w"], 3, 5, 1.0,
                            {"op_p50_ms": ("lower", 0.25)})
    assert calls == [("old", 5), ("new", 5), ("new", 6), ("old", 6), ("old", 7), ("new", 7)]
    w = result["w"]
    assert w["seeds"] == [5, 6, 7] and w["first_side"] == ["parent", "change", "parent"]
    assert w["all_ops_correct"] == {"parent": False, "change": True}
    metric = w["metrics"]["op_p50_ms"]
    assert metric["parent"]["runs"] == [11.0, 10.0, 11.0]
    assert metric["change"]["runs"] == [9.0, 8.0, 9.0]
    assert metric["change_wins"] == 3
    # won every pair, by 2.0 against a quartile distance of 1.0
    assert metric["gain_holds"] and metric["within_bound"]


def test_workloads_and_run_length_come_from_the_benchmark(script, monkeypatch):
    root = PATH.parent.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seen = {}

    def compare(trees, workloads, pairs, seed, seconds, metrics):
        seen.update(workloads=workloads, pairs=pairs, seed=seed, seconds=seconds,
                    metrics=metrics)
        return {}

    monkeypatch.setattr(script, "compare", compare)
    monkeypatch.setattr(script.compileall, "compile_dir", lambda *args, **kwargs: True)
    script.main(["--parent", str(root), "--change", str(root), "--seed", "7", "--pairs", "2"])
    assert seen == {"workloads": [w["name"] for w in benchmark["workloads"]], "pairs": 2,
                    "seed": 7, "seconds": benchmark["run_seconds"],
                    "metrics": {m["name"]: (m["better"], m["bound"])
                                for m in benchmark["end_to_end"]}}
