"""The README's Python examples run as written, and the names it cites exist."""

import ast
import csv
import importlib
import pkgutil
import re
from pathlib import Path

import jjtrim
from jjtrim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(capsys, tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    stats = ast.literal_eval(capsys.readouterr().out.strip().splitlines()[-1])
    # the example draws the qubits of `jjtrim simulate-tuning --qubits 61 --seed 7`
    assert main(["simulate-tuning", "--qubits", "61", "--seed", "7", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "precision_report.csv", newline="") as fh:
        report = {row["metric"]: row["value"] for row in csv.DictReader(fh)}
    assert {k: f"{v:.6f}" for k, v in stats.items()} == report


def test_cited_names_resolve():
    # every backticked `module.attr` naming a jjtrim module
    modules = [m.name for m in pkgutil.iter_modules(jjtrim.__path__)]
    pattern = rf"`({'|'.join(modules)})\.(\w+)`"
    cited = set(re.findall(pattern, README.read_text(encoding="utf-8")))
    assert cited
    missing = [f"{m}.{a}" for m, a in sorted(cited)
               if not hasattr(importlib.import_module(f"jjtrim.{m}"), a)]
    assert not missing
