"""The benchmark's CLI contract.

``perfbench/workloads.py`` builds the argv of every benchmark step and the
manifest ``config`` it expects back. These tests parse every argv of two ops
per workload and run the first op of each, so dropping a flag or a manifest
key that the benchmark relies on fails here, not only in the benchmark.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from jjtrim.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["tune_round", "tune_bulk", "yield_sweep", "park_lot"]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_argv_parses(workloads, tmp_path, name):
    parser = build_parser()
    for op in workloads.WORKLOADS[name].generate(0, 2, tmp_path):
        for step in op.steps:
            assert parser.parse_args(step.argv).command == step.command


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_op_writes_expected_manifests(workloads, tmp_path, name):
    op = workloads.WORKLOADS[name].generate(0, 2, tmp_path)[0]
    for step in op.steps:
        rc = main(step.argv)
        # park's exit code is left to the benchmark's checker (0 or 3); this
        # lot's first op is a die that parks
        assert rc == (0 if step.expect_rc is None else step.expect_rc), step.argv
        manifest = json.loads((step.out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == step.command
        assert manifest["master_seed"] == step.manifest_seed
        config, want = manifest["config"], step.manifest_config
        assert config.keys() == want.keys()
        for key in want:
            if key == "data":  # a path, written as the step gave it
                assert Path(config[key]).resolve() == Path(want[key]).resolve()
            else:
                assert config[key] == want[key], (step.command, key)
