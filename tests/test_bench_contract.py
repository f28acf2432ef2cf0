"""The benchmark's CLI contract.

``perfbench/workloads.py`` builds the argv of every benchmark step and the
manifest ``config`` it expects back. These tests parse every argv of two ops
per workload and run the first op of each, so dropping a flag or a manifest
key that the benchmark relies on fails here, not only in the benchmark.
The noiseless campaign of ``tune_bulk`` is also compared with
``perfbench/reference.py``, which draws its own streams: its ids and
thresholds value for value, and the columns its streams set by their laws,
so a change of the fabrication or tuning law fails here too. The
benchmark's tracer runs over two ops, so a rename of a module or argument
that ``perfbench/tracing.py`` reads fails here too.
"""

import hashlib
import importlib
import json
import math
import statistics
import sys
from pathlib import Path

import pytest
from conftest import ks_2samp

import jjtrim
import jjtrim.cli
from jjtrim.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["tune_round", "tune_bulk", "yield_sweep", "park_lot"]


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


@pytest.fixture(scope="module")
def reference():
    return _perfbench_module("reference")


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
        # the comparison perfbench/checks.py makes, paths resolved
        digests = {Path(p).resolve(): d for p, d in manifest["input_digests"].items()}
        assert digests == {Path(p).resolve(): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                           for p in step.inputs}, step.argv
        config, want = manifest["config"], step.manifest_config
        assert config.keys() == want.keys()
        for key in want:
            if key == "data":  # a path, written as the step gave it
                assert Path(config[key]).resolve() == Path(want[key]).resolve()
            else:
                assert config[key] == want[key], (step.command, key)


def test_tune_bulk_records_match_reference(workloads, reference, tmp_path):
    # reference.py draws every column from NumPy Generator methods, so the
    # stream-dependent columns are compared as perfbench/checks.py compares
    # them, their means within CAMPAIGN_Z standard errors, and the
    # fabricated resistances by a two-sample KS test as well
    op = workloads.WORKLOADS["tune_bulk"].generate(0, 2, tmp_path)[0]
    sim, p = op.steps[0], op.params
    assert p["noise"] == 0.0
    assert main(sim.argv) == 0
    records = json.loads((sim.out / "campaign.json").read_text(encoding="utf-8"))["records"]
    want = reference.campaign_records(
        p["seed"], p["qubits"], p["noise"],
        workloads.DESIGN_RESISTANCE, workloads.AGING_BUDGET, workloads.RESERVE,
    )
    exact = ("qubit_id", "threshold")
    assert [[rec[k] for k in exact] for rec in records] == [[rec[k] for k in exact] for rec in want]
    z_max = _perfbench_module("checks").CAMPAIGN_Z

    def z(got, ref):
        return (statistics.fmean(got) - statistics.fmean(ref)) / statistics.pstdev(ref) * len(ref) ** 0.5

    for column in ("r_untuned", "already_above_target"):
        got, ref = ([float(rec[column]) for rec in recs] for recs in (records, want))
        assert abs(z(got, ref)) <= z_max, column
    assert ks_2samp([rec["r_untuned"] for rec in records], [rec["r_untuned"] for rec in want]) >= 0.01
    tuned = [[rec for rec in recs if not rec["already_above_target"]] for recs in (records, want)]
    for column, value in (("pulses", lambda rec: rec["pulses"]),
                          ("overshoot", lambda rec: rec["r_last_pulse"] - rec["threshold"])):
        got, ref = ([value(rec) for rec in recs] for recs in tuned)
        assert abs(z(got, ref)) <= z_max, column


def test_tune_round_targets_match_reference(workloads, reference, tmp_path):
    # the comparison perfbench/checks.py makes under .4f, against the
    # calibration the run wrote: reference.power_law's np.polyfit differs from
    # the fit in the last bits, and a target's last bit must not flip a digit
    op = workloads.WORKLOADS["tune_round"].generate(0, 1, tmp_path)[0]
    cal, tgt = op.steps[:2]
    assert (cal.command, tgt.command) == ("calibrate-freq", "assign-targets")
    assert main(cal.argv) == 0 and main(tgt.argv) == 0
    model = json.loads((cal.out / "calibration.json").read_text(encoding="utf-8"))
    rows = (tgt.out / "targets.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "qubit_id,design_f_mhz,target_resistance_ohm"
    assert rows[1:] == [
        f"Q{i:03d},{f:.4f},{reference.target_resistance(model, f, workloads.AGING_BUDGET):.4f}"
        for i, f in enumerate(op.params["design_f"])
    ]


def test_tracer_reads_the_layers_it_wraps(workloads, tmp_path):
    # tracing.py imports every module of LAYERS by name, and its notes read
    # mc_chip_yield's config and fit_segmented_power_law's breakpoints
    tracing = _perfbench_module("tracing")
    tracer = tracing.Tracer()
    tracer.install(jjtrim)
    try:
        for i, name in enumerate(["yield_sweep", "tune_round"]):
            tracer.op = i
            for step in workloads.WORKLOADS[name].generate(0, 1, tmp_path / name)[0].steps:
                assert jjtrim.cli.main(step.argv) == 0, step.argv
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, [1.0, 1.0])
    assert metrics["yieldmc.chunks"] > 0
    assert metrics["freqmodel.candidate_pairs"] == math.comb(50, 2)
