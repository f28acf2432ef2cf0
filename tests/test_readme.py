"""The README's Python examples run as written."""

import ast
import csv
import re
from pathlib import Path

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
