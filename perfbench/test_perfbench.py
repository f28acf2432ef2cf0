"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench``.

They check that inputs are a pure function of the seed, that exact counts
repeat, that the checker catches corrupted outputs, and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

MODULES = run.load_modules()
jjtrim, cli, workloads, checks, tracing = MODULES
COUNT_UNITS = {"count", "B", "MB"}


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _argv(ops, root: Path) -> list:
    return [[a.replace(str(root), "<work>") for a in s.argv] for op in ops for s in op.steps]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(tmp_path, name):
    gen = workloads.WORKLOADS[name].generate
    a = gen(7, 3, tmp_path / "a")
    b = gen(7, 3, tmp_path / "b")
    c = gen(8, 3, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _argv(a, tmp_path / "a") == _argv(b, tmp_path / "b")
    assert (_argv(a, tmp_path / "a"), _files(tmp_path / "a")) != (
        _argv(c, tmp_path / "c"), _files(tmp_path / "c"))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_counts_repeat_for_one_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    ops = w.generate(5, 2, tmp_path)
    counts = []
    for _ in range(2):
        result = run.measure(ops, w, True, MODULES)
        verdicts = result["verdicts"]
        assert not [p for v in verdicts for p in v.problems]
        assert sum(v.identical for v in verdicts) == sum(v.compared for v in verdicts) > 0
        layers = run.per_layer(tracing, result["tracer"], ops, verdicts, result["passes"])
        counts.append({k: val for k, (val, unit) in layers.items() if unit in COUNT_UNITS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def _corrupt_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_record(data):
    rec = data["records"][3]
    rec["r_tuned"] = rec["r_last_pulse"] - 1.0


def _edit_yield(path: Path) -> None:
    header, row = path.read_text().splitlines()
    qubits, sigma, y, lo, hi = row.split(",")
    path.write_text(f"{header}\n{qubits},{sigma},{float(y) + 0.05:.6f},{lo},{hi}\n")


CORRUPTIONS = {
    "tune_round": [
        ("cal/calibration.json", lambda p: _corrupt_json(p, lambda d: d.update(alpha=d["alpha"] * 1.0001))),
        ("sim/campaign.json", lambda p: _corrupt_json(p, _edit_record)),
        ("fit/manifest.json", lambda p: _corrupt_json(p, lambda d: d.update(command="report"))),
    ],
    "yield_sweep": [("y2x6/yield.csv", _edit_yield)],
    "park_lot": [("park/parking.json",
                  lambda p: _corrupt_json(p, lambda d: d.update(parked_count=d["parked_count"] + 1)))],
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_corrupted_output_counts_as_failed_op(tmp_path, name):
    w = workloads.WORKLOADS[name]
    ops = w.generate(3, 1, tmp_path)[:1]
    result = run.measure(ops, w, False, MODULES)
    assert not result["verdicts"][0].problems
    codes = result["passes"][0].results
    for rel, corrupt in CORRUPTIONS[name]:
        path = ops[0].dir / rel
        original = path.read_bytes()
        corrupt(path)
        verdicts = run.check_all(ops, codes, jjtrim.__version__, w, checks)
        path.write_bytes(original)
        failed = sum(1 for v in verdicts if v.problems)
        assert failed / len(ops) > 0, rel


def test_tail_is_the_order_statistic_with_ten_beyond():
    value, pct = run.tail([float(x) for x in range(1, 41)])
    assert value == 30.0 and pct == 75.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune_round", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
