"""Every source file parses at the Python floor ``pyproject.toml`` declares,
so a construct of a later version fails here even when the tests run on one."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_at_declared_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    sources = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
