import argparse
import builtins
import collections
import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import OracleStream, load, oracle_fabricated, oracle_record, rows
from hypothesis import given, settings
from hypothesis import strategies as st

from jjtrim import __version__, controller, fileio, freqmodel, junction, yieldmc
from jjtrim.cli import build_parser, main
from jjtrim.errors import ValidationError
from jjtrim.freqmodel import PowerLawModel

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def read_metric_csv(path):
    with open(path, newline="") as fh:
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}


class TestSimulateTuning:
    def test_bundled_scenario_precision(self, tmp_path, capsys):
        rc = main(["simulate-tuning", "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        metrics = read_metric_csv(tmp_path / "precision_report.csv")
        assert 0.0025 <= metrics["precision_sigma_frac"] <= 0.0045
        assert (tmp_path / "campaign.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_report_round_trip(self, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["simulate-tuning", "--qubits", "40", "--seed", "3", "--out", str(run_dir)]) == 0
        rep_dir = tmp_path / "rep"
        assert main(["report", "--campaign", str(run_dir / "campaign.json"), "--out", str(rep_dir)]) == 0
        run_metrics = read_metric_csv(run_dir / "precision_report.csv")
        rep_metrics = read_metric_csv(rep_dir / "report.csv")
        assert rep_metrics["precision_sigma_frac"] == pytest.approx(
            run_metrics["precision_sigma_frac"], abs=1e-6
        )

    def test_multi_word_seed_matches_oracle(self, tmp_path):
        # 2**70 + 3 is three uint32 words to SeedSequence, so every key is a
        # row of five words, one past the pool
        seed = 2**70 + 3
        argv = ["simulate-tuning", "--qubits", "3", "--seed", str(seed), "--out", str(tmp_path)]
        assert main(argv) == 0
        records, targets, config = load(fileio.load_campaign, tmp_path / "campaign.json")
        assert config.master_seed == seed
        design = json.loads((tmp_path / "manifest.json").read_text())["config"]["design_resistance"]
        want = [
            oracle_record(*oracle_fabricated(design, OracleStream(seed, "fab:" + t["qubit_id"])),
                          t, 0.0, OracleStream(seed, t["qubit_id"]))
            for t in rows(targets, controller.TARGET_FIELDS)
        ]
        assert targets["qubit_id"] == ["Q000", "Q001", "Q002"]
        assert rows(records) == want

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_noise_exit_2(self, tmp_path, noise, capsys):
        rc = main(["simulate-tuning", "--qubits", "3", "--seed", "1", "--noise", noise,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "noise_sigma" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("noise", ["1e308", "1e200", "5e-324"])
    def test_extreme_noise_exits_cleanly(self, tmp_path, noise):
        # at 1e308 low, 1.25e309 below the threshold, is -inf, so no qubit jumps
        # and each walks; the reads overflow and the statistics are refused
        argv = ["simulate-tuning", "--qubits", "40", "--seed", "1", "--noise", noise]
        assert main([*argv, "--out", str(tmp_path / "o")]) in (0, 2)

    # sha256 of every file a campaign and its report write, recorded when the
    # campaign streams became arrays of PCG64 states read through jjtrim's own
    # transforms; any byte of drift fails here
    PINNED = {
        ("--qubits", "2000"): (
            "90fc48fcee75d75fcb63f2831244a1fbfe9410f27d68e4ca66ca51982c5a95ef",
            "dc3034f0385b8e121507533fd9706da856c0129f331445fb2509acf677da4c09",
            "b3d63365d3368ef41671de945b5a1417e6a681fc01df4cd3baaf2205ef66f762",
        ),
        ("--qubits", "221", "--noise", "0.5"): (
            "657e49af53af4e91b25dc55c36281b68caebc04098e1a1b5a1fc234dcdb7b440",
            "9ee6ecef94fae6d6a1df0d1629bf0699cdc8cea4a1edd498241304805c4533da",
            "557560ed5eb229ac6ab5380e93878825e2b1177ecb2eab6fa7b6516eef38861e",
        ),
    }

    @pytest.mark.parametrize("argv", list(PINNED), ids=["2000-noiseless", "221-noisy"])
    def test_outputs_pinned(self, tmp_path, argv):
        sim, rep = tmp_path / "sim", tmp_path / "rep"
        assert main(["simulate-tuning", *argv, "--seed", "7", "--out", str(sim)]) == 0
        assert main(["report", "--campaign", str(sim / "campaign.json"), "--out", str(rep)]) == 0
        files = (sim / "campaign.json", sim / "precision_report.csv", rep / "report.csv")
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files)
        assert digests == self.PINNED[argv]


class TestCalibrateAssign:
    def test_calibrate_then_assign(self, tmp_path):
        data = tmp_path / "points.csv"
        r = np.linspace(3500, 6500, 40)
        f = 280000.0 * r**-0.51
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["resistance_ohm", "f01max_mhz"])
            w.writerows(zip(r, f))
        cal_dir = tmp_path / "cal"
        assert main(["calibrate-freq", "--data", str(data), "--out", str(cal_dir)]) == 0
        cal = json.loads((cal_dir / "calibration.json").read_text())
        assert cal["alpha"] == pytest.approx(0.51, abs=1e-6)

        design = tmp_path / "design.json"
        design.write_text(
            json.dumps(
                {
                    "rows": 1,
                    "cols": 2,
                    "base_frequency_mhz": 4200.0,
                    "offsets_mhz": [[0.0, 50.0]],
                    "design_window_mhz": [40.0, 110.0],
                }
            )
        )
        tgt_dir = tmp_path / "targets"
        assert main(
            ["assign-targets", "--calibration", str(cal_dir / "calibration.json"),
             "--design", str(design), "--out", str(tgt_dir)]
        ) == 0
        with open(tgt_dir / "targets.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        # aging budget of 2% below the inverted resistance
        rt = float(rows[0]["target_resistance_ohm"])
        r_inv = (cal["beta"] / 4200.0) ** (1.0 / cal["alpha"])
        assert rt == pytest.approx(r_inv * 0.98, rel=1e-6)

    def test_malformed_data_exit_2(self, tmp_path):
        data = tmp_path / "points.csv"
        data.write_text("wrong,header\n1,2\n")
        assert main(["calibrate-freq", "--data", str(data), "--out", str(tmp_path / "o")]) == 2

    # Design frequencies (base 0, one row) against the valid calibration, whose
    # domain [3000, 7000] Ohm holds 3063-4719 MHz. The first qubit in design
    # order with a fault is reported, with its first failing check.
    @pytest.mark.parametrize(
        "freqs, rc, err",
        [
            ([4500.0, 100000.0, -5.0], 2,
             "error: inverted resistance 7.5 Ohm for 100000.0 MHz is outside the calibrated "
             "domain [3000.0, 7000.0] Ohm\n"),
            ([4500.0, -5.0, 100000.0], 2, "error: frequency must be finite and positive\n"),
            ([100000.0, 1e-300], 2,
             "error: inverted resistance 7.5 Ohm for 100000.0 MHz is outside the calibrated "
             "domain [3000.0, 7000.0] Ohm\n"),
            ([1e-300, 100000.0], 2,
             "error: inverted resistance overflows for beta=280000.0, alpha=0.51\n"),
            ([4500.0, 4600.0], 0, ""),
        ],
        ids=["domain-then-negative", "negative-then-domain", "domain-then-overflow",
             "overflow-then-domain", "valid"],
    )
    def test_mixed_faults_name_first_qubit(self, tmp_path, valid, capsys, freqs, rc, err):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"rows": 1, "cols": len(freqs), "base_frequency_mhz": 0.0,
                                      "offsets_mhz": [freqs], "design_window_mhz": [40, 110]}))
        out = tmp_path / "o"
        assert main(["assign-targets", "--calibration", str(valid["calibration"]),
                     "--design", str(design), "--out", str(out)]) == rc
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ("assigned 2 targets (aging budget 2.0%)\n" if rc == 0 else "")
        assert out.exists() == (rc == 0)

    def test_targets_assigned_in_one_call(self, tmp_path, valid, monkeypatch):
        calls, real = [], freqmodel.assign_target_R
        monkeypatch.setattr(freqmodel, "assign_target_R",
                            lambda *args: calls.append(args) or real(*args))
        assert main(["assign-targets", "--calibration", str(valid["calibration"]),
                     "--design", str(valid["design"]), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        assert calls[0][1].shape == (9,)


class TestFitRelaxation:
    def test_bundled_trace_recovers_exponents(self, tmp_path):
        out = tmp_path / "fit"
        rc = main(
            ["fit-relaxation", "--data", str(DATA_DIR / "relaxation_demo.csv"), "--out", str(out)]
        )
        assert rc == 0
        fit = json.loads((out / "relaxation_fit.json").read_text())
        for got, want in zip(fit["exponents"], (0.30, 0.24, 0.16)):
            assert got == pytest.approx(want, abs=0.02)

    def test_given_breakpoints(self, tmp_path):
        out = tmp_path / "fit"
        rc = main(
            ["fit-relaxation", "--data", str(DATA_DIR / "relaxation_demo.csv"),
             "--breakpoints", "0.2,2.0", "--out", str(out)]
        )
        assert rc == 0
        fit = json.loads((out / "relaxation_fit.json").read_text())
        assert fit["breakpoints_hr"] == [0.2, 2.0]

    @pytest.mark.parametrize("column", ["t_hr", "delta_r_ohm"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_trace_exit_2(self, tmp_path, column, bad, capsys):
        with open(DATA_DIR / "relaxation_demo.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[10][column] = bad
        data = tmp_path / "trace.csv"
        with open(data, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        out = tmp_path / "fit"
        assert main(["fit-relaxation", "--data", str(data), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "relaxation_fit.json").exists()


class TestLatticeCommands:
    def _design(self, tmp_path, freq_pairs):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(freq_pairs))
        return path

    CELL = {"rows": 3, "cols": 3, "base_frequency_mhz": 4500.0,
            "offsets_mhz": [[0.0, 50.0, 100.0], [100.0, 150.0, 200.0], [50.0, 100.0, 150.0]],
            "design_window_mhz": [40.0, 110.0]}
    CELL_EDGES = [  # node_a, node_b, signed_mhz, modulated_qubit
        (0, 1, -50, 1), (0, 3, -100, 3), (1, 2, -50, 2), (1, 4, -100, 4),
        (2, 5, -100, 5), (3, 4, -50, 4), (3, 6, 50, 3), (4, 5, -50, 5),
        (4, 7, 50, 4), (5, 8, 50, 5), (6, 7, -50, 7), (7, 8, -50, 8),
    ]
    CELL_OUT = (
        '{"edges": 12, "min_mhz": 50.0, "max_mhz": 100.0, "median_mhz": 50.0, '
        '"modulation_max_count": 3, "modulation_valid": false}\n',
        "12 edges: min 50.0  median 50.0  max 100.0 MHz\n"
        "modulation assignment: max 3 edges per qubit (INVALID)\n",
    )

    @pytest.mark.parametrize(
        "design, window, edges, in_window, summary, stdout",
        [
            pytest.param(CELL, None, CELL_EDGES, [None] * 12, *CELL_OUT, id="3x3"),
            pytest.param(CELL, "20,130", CELL_EDGES, [True] * 12, *CELL_OUT, id="3x3-20,130"),
            pytest.param(CELL, "45,99", CELL_EDGES, [True, False, True, False, False] + [True] * 7,
                         *CELL_OUT, id="3x3-45,99"),
            pytest.param(
                {"rows": 2, "cols": 2, "base_frequency_mhz": 4500.0,
                 "offsets_mhz": [[100.0, 50.0], [50.0, 100.0]], "design_window_mhz": [40.0, 110.0]},
                None, [(0, 1, 50, 0), (0, 2, 50, 0), (1, 3, -50, 3), (2, 3, -50, 3)], [None] * 4,
                '{"edges": 4, "min_mhz": 50.0, "max_mhz": 50.0, "median_mhz": 50.0, '
                '"modulation_max_count": 2, "modulation_valid": true}\n',
                "4 edges: min 50.0  median 50.0  max 50.0 MHz\n"
                "modulation assignment: max 2 edges per qubit (valid)\n",
                id="2x2",
            ),
            pytest.param(
                {"rows": 1, "cols": 2, "base_frequency_mhz": 4500.0,
                 "offsets_mhz": [[0.0, 50.0]], "design_window_mhz": [40.0, 110.0]},
                "20,130", [(0, 1, -50, 1)], [True],
                '{"edges": 1, "min_mhz": 50.0, "max_mhz": 50.0, "median_mhz": 50.0, '
                '"modulation_max_count": 1, "modulation_valid": true}\n',
                "1 edges: min 50.0  median 50.0  max 50.0 MHz\n"
                "modulation assignment: max 1 edges per qubit (valid)\n",
                id="1x2-20,130",
            ),
        ],
    )
    def test_analyze_lattice_outputs(
        self, tmp_path, capsys, design, window, edges, in_window, summary, stdout
    ):
        path = self._design(tmp_path, design)
        out = tmp_path / "out"
        argv = ["analyze-lattice", "--design", str(path), "--out", str(out)]
        assert main(argv + (["--window", window] if window else [])) == 0
        flag = {None: "", True: "true", False: "false"}
        assert (out / "detunings.csv").read_text() == "".join(
            ["node_a,node_b,signed_mhz,abs_mhz,modulated_qubit,in_window\n"]
            + [f"{a},{b},{s:.4f},{abs(s):.4f},{m},{flag[w]}\n"
               for (a, b, s, m), w in zip(edges, in_window, strict=True)]
        )
        assert (out / "lattice_summary.json").read_text() == summary
        assert capsys.readouterr().out == stdout

    def test_analyze_design_without_edges_exit_2(self, tmp_path, capsys):
        design = self._design(
            tmp_path,
            {"rows": 1, "cols": 1, "base_frequency_mhz": 4500, "offsets_mhz": [[0]],
             "design_window_mhz": [40, 110]},
        )
        out = tmp_path / "out"
        assert main(["analyze-lattice", "--design", str(design), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{design}: a 1x1 design has no edges" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_park_feasible(self, tmp_path):
        design = self._design(
            tmp_path,
            {
                "rows": 1,
                "cols": 2,
                "base_frequency_mhz": 4600.0,
                "offsets_mhz": [[0.0, 10.0]],
                "design_window_mhz": [40.0, 110.0],
            },
        )
        out = tmp_path / "out"
        rc = main(["park", "--design", str(design), "--window", "20,130", "--out", str(out)])
        assert rc == 0
        plan = json.loads((out / "parking.json").read_text())
        assert plan["parked_count"] == 1
        assert plan["max_abs_offset_mhz"] == pytest.approx(10.0)

    def test_park_infeasible_exit_3(self, tmp_path):
        design = self._design(
            tmp_path,
            {
                "rows": 1,
                "cols": 2,
                "base_frequency_mhz": 4600.0,
                "offsets_mhz": [[0.0, 0.0]],
                "design_window_mhz": [40.0, 110.0],
            },
        )
        rc = main(
            ["park", "--design", str(design), "--window", "20,130", "--max-park", "5",
             "--out", str(tmp_path / "out")]
        )
        assert rc == 3

    # All nine qubits at one frequency: every edge is out of window until
    # the four edge-centre qubits park 20 MHz down.
    UNIFORM = {"rows": 3, "cols": 3, "base_frequency_mhz": 5000.0,
               "offsets_mhz": [[0.0] * 3] * 3, "design_window_mhz": [40.0, 110.0]}

    def test_park_fine_step_finishes(self, tmp_path):
        design = self._design(tmp_path, self.UNIFORM)
        out = tmp_path / "out"
        rc = main(["park", "--design", str(design), "--window", "20,130", "--step", "0.01",
                   "--out", str(out)])
        assert rc == 0
        plan = json.loads((out / "parking.json").read_text())
        assert plan["offsets_mhz"] == [0.0, -20.0, 0.0, -20.0, 0.0, -20.0, 0.0, -20.0, 0.0]

    def test_park_fine_step_no_plan_exit_3(self, tmp_path, capsys):
        # No offset reaches the 20 MHz window floor, so no plan exists; the
        # bounds of each parked-parked edge prove it within the node budget.
        design = self._design(tmp_path, self.UNIFORM)
        rc = main(["park", "--design", str(design), "--window", "20,130", "--step", "0.01",
                   "--max-park", "19.99", "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: no parking plan") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestYieldCommand:
    def test_yield_band_and_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["yield", "--sigma", "7.7", "--cells", "1x1", "--trials", "100000",
             "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        with open(out / "yield.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert 0.75 <= float(row["yield"]) <= 0.95
        assert int(row["qubits"]) == 9
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7

    def test_bad_cells_flag_exit_2(self, tmp_path):
        rc = main(["yield", "--sigma", "7.7", "--cells", "banana", "--seed", "7",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--sigma", "nan"), ("--sigma", "inf"), ("--sigma", "-1"), ("--window", "nan,130"),
         ("--window", "20,inf"), ("--window", "130,20")],
    )
    def test_bad_sigma_or_window_exit_2(self, tmp_path, flag, value, capsys):
        argv = {"--sigma": "7.7", "--window": "20,130"}
        argv[flag] = value
        rc = main(["yield", "--sigma", argv["--sigma"], "--window", argv["--window"],
                   "--trials", "2000", "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [["yield", "--sigma", "7.7", "--trials", "10"],
         ["simulate-tuning", "--qubits", "3"]],
        ids=["yield", "simulate-tuning"],
    )
    def test_negative_seed_exit_2(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["analyze-lattice", "--design", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_huge_sigma_yields_zero(self, tmp_path):
        # Differences of draws near 1e308 overflow; those trials fail, and no
        # RuntimeWarning escapes (pyproject's filterwarnings makes one an error).
        # The spread is written in a general format, not as 309 digits.
        out = tmp_path / "o"
        rc = main(["yield", "--sigma", "1e308", "--trials", "10", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "yield.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["yield"]) == 0.0
        assert row["sigma_mhz"] == "1e+308"

    def test_design_cell_keeps_its_frequencies(self, tmp_path):
        offsets = [[100.0, 150.0, 200.0], [200.0, 250.0, 300.0], [150.0, 200.0, 250.0]]

        def run(base):
            design = tmp_path / f"cell{base:.0f}.json"
            design.write_text(json.dumps({"rows": 3, "cols": 3, "base_frequency_mhz": base,
                                          "offsets_mhz": offsets,
                                          "design_window_mhz": [40.0, 110.0]}))
            out = tmp_path / f"o{base:.0f}"
            rc = main(["yield", "--sigma", "7.7", "--cells", "1x2", "--trials", "20000",
                       "--seed", "3", "--design", str(design), "--out", str(out)])
            assert rc == 0
            return out

        out = run(3600.0)
        cell = json.loads((out / "unit_cell.json").read_text())
        assert cell == {"rows": 3, "cols": 3, "base_frequency_mhz": 3600.0,
                        "offsets_mhz": offsets, "design_window_mhz": [40.0, 110.0]}
        # Detunings of integer-MHz frequencies do not depend on the base, so
        # the yield is the one written when the cell is rebased to 4500 MHz.
        assert (out / "yield.csv").read_text() == (run(4500.0) / "yield.csv").read_text()

    def test_design_cell_written_back_as_read(self, tmp_path):
        # The base and offsets are not rebased on the lowest frequency, so
        # 4500.3 + 120.1 is not written back as 4620.400000000001 + 0.0.
        cell = {"rows": 3, "cols": 3, "base_frequency_mhz": 4500.3,
                "offsets_mhz": [[170.1, 120.1, 230.1], [120.1, 200.1, 160.1],
                                [230.1, 160.1, 120.1]],
                "design_window_mhz": [40.0, 110.0]}
        design = tmp_path / "cell.json"
        design.write_text(json.dumps(cell))
        out = tmp_path / "o"
        assert main(["yield", "--sigma", "7.7", "--trials", "100", "--seed", "1",
                     "--design", str(design), "--out", str(out)]) == 0
        assert json.loads((out / "unit_cell.json").read_text()) == cell

    def test_generated_cell_round_trip(self, tmp_path):
        # yield -> unit_cell.json -> yield --design -> unit_cell.json
        argv = ["yield", "--sigma", "7.7", "--cells", "2x6", "--trials", "2000", "--seed", "7"]
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([*argv, "--out", str(first)]) == 0
        assert main([*argv, "--design", str(first / "unit_cell.json"), "--out", str(again)]) == 0
        for name in ("unit_cell.json", "yield.csv"):
            assert (again / name).read_bytes() == (first / name).read_bytes()


class TestResultFilesPinned:
    # sha256 of the files written from parking plans, segmented fits and yield
    # estimates, recorded while those results were still frozen records; any
    # byte of drift fails here. Two changes since, on purpose: a die with no
    # parked qubit writes "sum_abs_offset_mhz": 0.0, not 0; and the fits come
    # from prefix sums instead of np.polyfit, which moves exponents and
    # amplitudes in their last bits (3e-14 relative) but no breakpoint.
    PINNED = {
        "park-none": (["park", "--design", "{design}", "--window", "20,130"],
                      ("1ee332378e867a124086b747a263744ccbba292616d6a180a224cb58cfed4b52",)),
        "park-four": (["park", "--design", "{uniform}", "--window", "20,130", "--step", "0.7"],
                      ("dd631dec1e07d10fe672f9a79f49a5baa283c8d58e7996695b498b56f443567e",)),
        "fit-auto": (["fit-relaxation", "--data", "{demo}"],
                     ("61c614e50c1c77ed56f0a007a5359ea0e827f59bc297f14ccf3abecef8ed2b1f",)),
        "fit-given": (["fit-relaxation", "--data", "{demo}", "--breakpoints", "0.2,2"],
                      ("37fa0e131c2863271098696a66ccbb020216e1713527bdc3ea181c474738176b",)),
        "yield-1x1": (["yield", "--sigma", "7.7", "--cells", "1x1", "--trials", "20000",
                       "--seed", "7"],
                      ("629eb6d7f1c607a6dfbda5d23cdfcc120d94610dc2fe1757b824fde99476e862",
                       "33ace50e02ec3c8bf007ca4952e745de3ac62b7c58a658106d89959ff9e74d7f")),
        "yield-2x6": (["yield", "--sigma", "7.7", "--cells", "2x6", "--trials", "20000",
                       "--seed", "7"],
                      ("0e516ba3c2c0cb421578abd83543158580f43739bdde64b92b0a674a0023bccb",
                       "33ace50e02ec3c8bf007ca4952e745de3ac62b7c58a658106d89959ff9e74d7f")),
    }
    FILES = {"park": ("parking.json",), "fit-relaxation": ("relaxation_fit.json",),
             "yield": ("yield.csv", "unit_cell.json")}

    @pytest.mark.parametrize("case", list(PINNED))
    def test_outputs_pinned(self, tmp_path, case):
        argv, want = self.PINNED[case]
        inputs = {"design": tmp_path / "design.json", "uniform": tmp_path / "uniform.json",
                  "demo": DATA_DIR / "relaxation_demo.csv"}
        inputs["design"].write_text(json.dumps(DESIGN))
        inputs["uniform"].write_text(json.dumps(TestLatticeCommands.UNIFORM))
        out = tmp_path / "out"
        assert main([a.format(**inputs) for a in argv] + ["--out", str(out)]) == 0
        files = self.FILES[argv[0]]
        assert tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files) == want


class TestManifestsPinned:
    # Every subcommand's manifest config (in key order), master seed, input
    # files and stdout, recorded while each command still wrote its own
    # manifest; the stdout of simulate-tuning and report re-recorded when the
    # campaign streams became arrays of PCG64 states read through jjtrim's own
    # transforms. Paths are relative to the run's directory.
    PINNED = {
        "simulate-tuning": (
            ["simulate-tuning", "--qubits", "4", "--seed", "7", "--noise", "0.5"],
            {"qubits": 4, "design_resistance": 4587.8, "aging_budget": 0.02, "reserve": 0.0289,
             "noise": 0.5}, 7, [],
            "tuned 4 qubits to target 4496.0 Ohm\nprecision: mean -0.051%  sigma 0.347%\n"
            "overshoot: mean 3.91 Ohm  sigma 5.17 Ohm\nreserve:   mean 2.745%  sigma 0.272%\n"),
        "simulate-tuning-all-flags": (
            ["simulate-tuning", "--qubits", "3", "--seed", "3", "--design-resistance", "5000",
             "--reserve", "0.03", "--aging-budget", "0.01"],
            {"qubits": 3, "design_resistance": 5000.0, "aging_budget": 0.01, "reserve": 0.03,
             "noise": 0.0}, 3, [],
            "tuned 3 qubits to target 4950.0 Ohm\nprecision: mean -0.157%  sigma 0.240%\n"
            "overshoot: mean 1.32 Ohm  sigma 0.75 Ohm\nreserve:   mean 2.811%  sigma 0.234%\n"),
        "calibrate-freq": (
            ["calibrate-freq", "--data", "points.csv"],
            {"data": "points.csv"}, None, ["points.csv"],
            "alpha 0.5100  beta 280000.0000  residual sigma 0.00 MHz  "
            "domain [3500.0, 6500.0] Ohm\n"),
        "assign-targets": (
            ["assign-targets", "--calibration", "calibration.json", "--design", "design.json",
             "--aging-budget", "0.03"],
            {"aging_budget": 0.03}, None, ["calibration.json", "design.json"],
            "assigned 9 targets (aging budget 3.0%)\n"),
        "fit-relaxation": (
            ["fit-relaxation", "--data", "demo.csv"],
            {"breakpoints": None}, None, ["demo.csv"],
            "exponents: 0.298  0.239  0.160\nbreakpoints (hr): 0.182  2.437\n"),
        "fit-relaxation-breakpoints": (
            ["fit-relaxation", "--data", "demo.csv", "--breakpoints", "0.2,2"],
            {"breakpoints": "0.2,2"}, None, ["demo.csv"],
            "exponents: 0.299  0.240  0.157\nbreakpoints (hr): 0.200  2.000\n"),
        "analyze-lattice": (
            ["analyze-lattice", "--design", "design.json"],
            {"window": None}, None, ["design.json"],
            "12 edges: min 45.0  median 51.0  max 104.0 MHz\n"
            "modulation assignment: max 3 edges per qubit (INVALID)\n"),
        "analyze-lattice-window": (
            ["analyze-lattice", "--design", "design.json", "--window", "45,99"],
            {"window": "45,99"}, None, ["design.json"],
            "12 edges: min 45.0  median 51.0  max 104.0 MHz\n"
            "modulation assignment: max 3 edges per qubit (INVALID)\n"),
        "park": (
            ["park", "--design", "design.json", "--window", "20,130", "--step", "0.5",
             "--symmetric"],
            {"window": "20,130", "max_park": 50.0, "step": 0.5, "symmetric": True}, None,
            ["design.json"],
            "parked 0 qubit(s), max offset 0.0 MHz\n"),
        "yield": (
            ["yield", "--sigma", "7.7", "--trials", "2000", "--seed", "7"],
            {"sigma": 7.7, "cells": "1x1", "trials": 2000, "window": "20,130", "dice": 212,
             "design": None}, 7, [],
            "yield 0.8270 [0.8098, 0.8429] on 9 qubits\n"
            "wafer: 175 chips, 1575 qubits per 212 dice\n"),
        "yield-design-threads": (
            ["yield", "--sigma", "7.7", "--cells", "2x2", "--trials", "2000", "--seed", "7",
             "--window", "25,125", "--dice", "100", "--design", "design.json", "--threads", "2"],
            {"sigma": 7.7, "cells": "2x2", "trials": 2000, "window": "25,125", "dice": 100,
             "design": "design.json"}, 7, ["design.json"],
            "yield 0.5500 [0.5281, 0.5717] on 36 qubits\n"
            "wafer: 55 chips, 1980 qubits per 100 dice\n"),
        "report": (
            ["report", "--campaign", "sim/campaign.json"],
            {}, None, ["sim/campaign.json"],
            "4 qubits  precision sigma 0.331%  mean +0.201%\n"),
    }

    # sha256 of result files, beside the manifest, for the cases that pin them.
    OUTPUTS = {
        "assign-targets": {
            "out/targets.csv": "1b29d910f5b906ee278e14ac3e83db0ff84adcae44a2eba8c5bed9721b3ecb96"},
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_manifest_pinned(self, tmp_path, monkeypatch, capsys, valid, case):
        argv, config, seed, inputs, stdout = self.PINNED[case]
        monkeypatch.chdir(tmp_path)
        Path("sim").mkdir()
        for kind, name in [("design", "design.json"), ("calibration", "calibration.json"),
                           ("points", "points.csv"), ("campaign", "sim/campaign.json")]:
            shutil.copy(valid[kind], name)
        shutil.copy(DATA_DIR / "relaxation_demo.csv", "demo.csv")
        capsys.readouterr()
        opened, real_open = collections.Counter(), builtins.open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        # Path.read_bytes and friends reach io.open, not the builtin name
        with monkeypatch.context() as m:
            m.setattr(builtins, "open", counting_open)
            m.setattr(io, "open", counting_open)
            assert main([*argv, "--out", "out"]) == 0
        assert {p: opened[p] for p in inputs} == dict.fromkeys(inputs, 1)
        assert capsys.readouterr().out == stdout
        want = {"command": argv[0], "config": config, "master_seed": seed,
                "input_digests": {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                                  for p in inputs},
                "tool_version": __version__}
        # the text, so the order of every key is pinned too
        assert Path("out/manifest.json").read_text() == json.dumps(want) + "\n"
        for path, digest in self.OUTPUTS.get(case, {}).items():
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest, path

    def test_digest_is_of_the_bytes_before_the_run(self, tmp_path, monkeypatch):
        # yield writes its cell back over the design it read, compactly
        monkeypatch.chdir(tmp_path)
        Path("b").mkdir()
        before = json.dumps(DESIGN, indent=2).encode()
        Path("b/unit_cell.json").write_bytes(before)
        argv = ["yield", "--sigma", "7.7", "--trials", "1000", "--seed", "1",
                "--design", "b/unit_cell.json", "--out", "b"]
        assert main(argv) == 0
        assert Path("b/unit_cell.json").read_bytes() != before
        manifest = json.loads(Path("b/manifest.json").read_text())
        assert manifest["input_digests"] == {"b/unit_cell.json": hashlib.sha256(before).hexdigest()}

    def test_recorded_fields_are_own_flags(self):
        # a name that is not a flag of its subcommand would raise in main
        # after the command had written its outputs
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command, parser in sub.choices.items():
            dests = {a.dest for a in parser._actions} - {"help", "out"}
            assert set(parser.get_default("recorded")) <= dests, command


DESIGN = {
    "rows": 3,
    "cols": 3,
    "base_frequency_mhz": 4500.0,
    "offsets_mhz": [[0.0, 50.0, 100.0], [100.0, 150.0, 200.0], [50.0, 100.0, 150.0]],
    "design_window_mhz": [40.0, 110.0],
    "measured_mhz": [[4501.0, 4552.0, 4597.0], [4603.0, 4648.0, 4701.0], [4552.0, 4600.5, 4653.0]],
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid input of each kind the CLI reads, keyed by kind."""
    d = tmp_path_factory.mktemp("valid")
    (d / "design.json").write_text(json.dumps(DESIGN))
    fileio.save_calibration(
        d / "calibration.json",
        PowerLawModel(beta=280000.0, alpha=0.51, residual_sigma_mhz=2.0, r_min=3000.0, r_max=7000.0),
    )
    assert main(["simulate-tuning", "--qubits", "4", "--seed", "1", "--out", str(d / "sim")]) == 0
    r = np.linspace(3500.0, 6500.0, 8).tolist()  # floats, whose repr is a plain number
    (d / "points.csv").write_text(
        "resistance_ohm,f01max_mhz\n" + "".join(f"{a!r},{280000.0 * a**-0.51!r}\n" for a in r)
    )
    return {"design": d / "design.json", "calibration": d / "calibration.json",
            "campaign": d / "sim" / "campaign.json", "points": d / "points.csv"}


def run_with(kind, path, valid, out):
    """Run the command that reads an input of ``kind`` from ``path``."""
    argv = {
        "design": ["analyze-lattice", "--design", path, "--window", "20,130"],
        "calibration": ["assign-targets", "--calibration", path, "--design", valid["design"]],
        "campaign": ["report", "--campaign", path],
        "points": ["calibrate-freq", "--data", path],
    }[kind]
    return main([str(a) for a in argv] + ["--out", str(out)])


def _edit(kind, valid, tmp_path, edit):
    """A copy of the valid ``kind`` input with ``edit`` applied to its JSON."""
    data = json.loads(valid[kind].read_text())
    edit(data)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    return path


def _set(keys, value):
    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return edit


def _drop(*keys):
    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        del data[keys[-1]]
    return edit


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("design", _set(["rows"], "x"), "rows: expected an integer, got 'x'"),
            ("design", _set(["rows"], 2.5), "rows: expected an integer, got 2.5"),
            ("design", _set(["offsets_mhz", 1, 0], "a"),
             "offsets_mhz[1][0]: expected a finite number, got 'a'"),
            ("design", _set(["offsets_mhz"], 5), "offsets_mhz: expected a list, got 5"),
            ("design", _set(["design_window_mhz"], 5),
             "design_window_mhz: expected a list, got 5"),
            ("design", _set(["measured_mhz", 0, 1], "b"),
             "measured_mhz[0][1]: expected a finite number, got 'b'"),
            # a null cell is a schema fault like any other; the walk names the first
            ("design", _set(["offsets_mhz", 1, 0], None),
             "offsets_mhz[1][0]: expected a finite number, got None\n"),
            ("design", lambda d: (_set(["offsets_mhz", 1, 0], None)(d),
                                  _set(["measured_mhz", 0, 1], None)(d)),
             "offsets_mhz[1][0]: expected a finite number, got None\n"),
            ("design", _set(["base_frequency_mhz"], math.nan),
             "base_frequency_mhz: expected a finite number, got nan"),
            ("design", _set(["base_frequency_mhz"], 10**400),
             "base_frequency_mhz: expected a finite number, got 1000"),
            ("calibration", _set(["beta"], "x"), "beta: expected a finite number, got 'x'"),
            # a field check names the file and its key
            ("calibration", _set(["residual_sigma_mhz"], -1.0),
             "residual_sigma_mhz must be finite and >= 0, got -1.0"),
            ("campaign", _drop("config", "noise_sigma"), "config.noise_sigma: missing"),
            ("campaign", _set(["records", 0, "extra"], 1), "records[0].extra: unknown key"),
            ("campaign", _drop("targets", 2, "relaxation_reserve"),
             "targets[2].relaxation_reserve: missing"),
            ("campaign", _set(["config", "master_seed"], 2.5),
             "config.master_seed: expected an integer, got 2.5"),
            ("campaign", _set(["records"], 7), "records: expected a list, got 7"),
            ("campaign", _set(["records", 1, "r_tuned"], "abc"),
             "records[1].r_tuned: expected a finite number, got 'abc'"),
            ("campaign", _set(["config", "probe_delay_hr"], 5.0),
             "config.probe_delay_hr: unknown key"),
            ("campaign", _set(["config", "relaxation"],
                              {"breakpoints_hr": [0.2, 2.0, 24.0],
                               "exponents": [0.30, 0.24, 0.16, 0.11], "probe_delay_hr": 5.0}),
             "config.relaxation: unknown key"),
            # the step law is a constant; a campaign written with it exits 2
            ("campaign", _set(["config", "step"], {"kind": "exponential", "mean_step": 1.9,
                                                   "low": None, "high": None}),
             "config.step: unknown key"),
            # the pulse budget is the constant controller.MAX_PULSES
            ("campaign", _set(["config", "max_pulses"], 10**6), "config.max_pulses: unknown key"),
            # a repeated id would change the statistics without a word
            ("campaign", lambda d: d["targets"].append({**d["targets"][0],
                                                        "target_resistance": 9000.0}),
             "targets[4].qubit_id: duplicate 'Q000'"),
            ("campaign", lambda d: d["records"].append(d["records"][1]),
             "records[4].qubit_id: duplicate 'Q001'"),
            # ranges, checked once the schema holds; a read is noisy, so
            # r_last_pulse and r_tuned have none
            ("campaign", _set(["records", 0, "threshold"], -5.0),
             "records[0].threshold must be finite and > 0, got -5.0"),
            ("campaign", _set(["records", 1, "pulses"], -3),
             "records[1].pulses must be >= 0, got -3"),
            ("campaign", _set(["records", 1, "pulses"], 10**30),
             "records[1].pulses: an integer does not fit in 64 bits"),
            ("campaign", _set(["records", 1, "r_untuned"], -3.0),
             "records[1].r_untuned must be finite and > 0, got -3.0"),
            ("campaign", _set(["records", 2, "already_above_target"], True),
             "records[2].already_above_target must be true exactly when pulses is 0, "
             "got true with pulses 153"),
            ("campaign", _set(["records", 3, "pulses"], 0),
             "records[3].already_above_target must be true exactly when pulses is 0, "
             "got false with pulses 0"),
            ("campaign", _set(["config", "master_seed"], -1),
             "config.master_seed must be >= 0, got -1"),
            ("campaign", _set(["config", "noise_sigma"], -1.0),
             "config.noise_sigma must be finite and >= 0, got -1.0"),
            ("campaign", _set(["targets", 1, "target_resistance"], -1.0),
             "targets[1].target_resistance must be finite and > 0, got -1.0"),
            ("campaign", _set(["targets", 3, "relaxation_reserve"], 1.0),
             "targets[3].relaxation_reserve must be finite and >= 0 and < 1, got 1.0"),
        ],
    )
    def test_json_field_named(self, tmp_path, valid, capsys, kind, edit, message):
        path = _edit(kind, valid, tmp_path, edit)
        assert run_with(kind, path, valid, tmp_path / "o") == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "rows, detail",
        [
            (b"3500.0,4000.0\n4000.0,3800.0,1.0\n", "line 3: 3 fields, want 2"),
            (b"3500.0,4000.0\n4000.0,inf\n", "line 3:"),
        ],
        ids=["three-fields", "inf"],
    )
    def test_points_csv_line_named(self, tmp_path, valid, capsys, rows, detail):
        path = tmp_path / "points.csv"
        path.write_bytes(b"resistance_ohm,f01max_mhz\n" + rows)
        assert run_with("points", path, valid, tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"error: {path}: 1 invalid rows" in err
        assert f"  {detail}" in err
        assert not (tmp_path / "o").exists()

    def test_unreadable_path_exit_2(self, tmp_path, valid):
        assert run_with("points", tmp_path, valid, tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()


class TestArgumentBoundaries:
    # Input files that rows of test_rejected name in place of a valid one.
    INPUTS = {
        "latin1.json": '{"rows": "\xe9"}'.encode("latin-1"),
        "square.json": json.dumps({**DESIGN, "rows": 2, "cols": 2, "measured_mhz": None,
                                   "offsets_mhz": [[0.0, 50.0], [100.0, 150.0]]}).encode(),
        "zero.csv": b"t_hr,delta_r_ohm\n0.1,1\n0.2,0\n0.3,1.2\n",
        "repeated.csv": b"t_hr,delta_r_ohm\n0.1,1\n0.1,1.1\n0.1,1.2\n1,2\n1,2.1\n1,2.2\n"
                        b"10,3\n10,3.1\n10,3.2\n",
        "overflow.csv": b"t_hr,delta_r_ohm\n0.1,1\n0.2,1.1\n0.3,1.2\n100.0,1\n"
                        b"100.00001,1000\n100.00002,1000000.0\n200,3\n300,3.1\n400,3.2\n",
        "header.csv": b"resistance_ohm,f01max_mhz\n",
        "utf16.json": json.dumps(DESIGN).encode("utf-16"),
        "ff.csv": b"resistance_ohm,f01max_mhz\n3500.0,4000.0\n4000.0,38\xff0.0\n",
        "long-int.json": b'{"rows": ' + b"9" * 4301 + b"}",
        "deep.json": b"[" * 100000 + b"]" * 100000,
        # json alone reads the last of two equal keys, which no schema check sees
        "twice-base.json": json.dumps(DESIGN)[:-1].encode() + b', "base_frequency_mhz": 4600.0}',
        "twice-alpha.json": b'{"beta": 280000.0, "alpha": 0.51, "residual_sigma_mhz": 1.0, '
                            b'"r_min": 3000.0, "r_max": 9000.0, "alpha": 0.5}',
        "twice-r-tuned.json": b'{"config": {"master_seed": 1, "noise_sigma": 0.0}, "targets": '
                              b'[{"qubit_id": "Q000", "target_resistance": 4900.0, '
                              b'"relaxation_reserve": 0.02}], "records": [{"qubit_id": "Q000", '
                              b'"r_untuned": 4000.0, "threshold": 4800.0, "r_last_pulse": 4799.0, '
                              b'"r_tuned": 4950.0, "pulses": 3, "already_above_target": false, '
                              b'"r_tuned": 4801.0}]}',
        # the sum of a finite base and offset overflows
        "inf-design.json": json.dumps({**DESIGN, "rows": 1, "cols": 3, "measured_mhz": None,
                                       "base_frequency_mhz": 1e308,
                                       "offsets_mhz": [[0, 1e308, 1e308]]}).encode(),
        "far-measured.json": json.dumps({**DESIGN, "rows": 1, "cols": 2, "offsets_mhz": [[0, 50]],
                                         "measured_mhz": [[1e308, -1e308]]}).encode(),
        "zero-cell.json": json.dumps({**DESIGN, "measured_mhz": None,
                                      "offsets_mhz": [[0.0] * 3] * 3}).encode(),
        # a domain that once let any target through, and an inverted one
        "any-domain.json": json.dumps({"beta": 1e6, "alpha": 0.5, "residual_sigma_mhz": 1.0,
                                       "r_min": -1e308, "r_max": 1e308}).encode(),
        "inverted-domain.json": json.dumps({"beta": 1e6, "alpha": 0.5, "residual_sigma_mhz": 1.0,
                                            "r_min": 9000.0, "r_max": 3000.0}).encode(),
    }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["park", "--window", "20,130", "--max-park", "inf"], "max_park must be finite"),
            (["park", "--window", "20,130", "--step", "nan"], "step must be finite"),
            (["park", "--window", "nan,130"], "--window must be finite"),
            (["analyze-lattice", "--window", "nan,130"], "--window must be finite"),
            (["assign-targets", "--aging-budget", "nan"], "aging_budget must be finite"),
            (["assign-targets", "--aging-budget", "2"], "aging_budget must be finite"),
            (["yield", "--sigma", "7.7", "--seed", "1", "--threads", "0"], "n_threads"),
            (["park", "--window", "20,130", "--step", "1e-300"],
             "park offsets per qubit (50.0 / 1e-300) must be finite and <= 10000, got 4.99"),
            (["park", "--window", "20,130", "--max-park", "1e308", "--step", "1e-300"],
             "park offsets per qubit (1e+308 / 1e-300) must be finite and <= 10000, got inf"),
            (["simulate-tuning", "--seed", "1", "--qubits", "0"], "--qubits must be >= 1"),
            (["simulate-tuning", "--seed", "1", "--qubits", "-3"], "--qubits must be >= 1"),
            (["simulate-tuning", "--seed", "1", "--design-resistance", "inf"],
             "design_resistance must be finite"),
            (["analyze-lattice", "--window", "130,20"], "window must be finite with lo < hi"),
            # an empty flag is malformed, not the flag left out
            (["analyze-lattice", "--window", ""], "--window must be numeric: ''"),
            (["fit-relaxation", "--breakpoints", ""], "--breakpoints must be numeric: ''"),
            (["yield", "--sigma", "7.7", "--seed", "1", "--design", ""],
             "No such file or directory: ''"),
            (["simulate-tuning", "--seed", "1", "--aging-budget=-0.5"],
             "aging_budget must be finite"),
            (["simulate-tuning", "--seed", "1", "--aging-budget=-1e308"],
             "aging_budget must be finite"),
            (["yield", "--sigma", "7.7", "--seed", "1", "--cells", "1e308x1"],
             "x1 tiling must be <= 100000, got 9000000000000000098"),
            # the longest int Python formats by default
            (["yield", "--sigma", "7.7", "--seed", "1", "--trials", "9" * 4300],
             "trials on 9 qubits must be <= 1111111111, got 999"),
            (["yield", "--sigma", "7.7", "--seed", "1", "--trials", "10", "--dice", "1" + "0" * 400],
             "dice must be >= 0 and < 9007199254740992"),
            # refused before any of the million qubits is sampled
            (["simulate-tuning", "--seed", "1", "--qubits", "1000000", "--reserve", "1"],
             "relaxation_reserve must be finite and >= 0 and < 1, got 1.0"),
            (["yield", "--sigma", "7.7", "--seed", "1", "--cells", "1.5x2"],
             "--cells must be integers like '1x2', got '1.5x2'"),
            (["analyze-lattice", "--design", "latin1.json"], "not valid UTF-8"),
            # a UTF-16 file is not read as JSON of its own encoding
            (["analyze-lattice", "--design", "utf16.json"], "not valid UTF-8"),
            (["calibrate-freq", "--data", "ff.csv"], "ff.csv: not valid UTF-8"),
            (["analyze-lattice", "--design", "long-int.json"],
             "long-int.json: invalid JSON: an integer of more than 4300 digits"),
            (["analyze-lattice", "--design", "deep.json"], "deep.json: invalid JSON: nested too deeply"),
            (["analyze-lattice", "--design", "twice-base.json"],
             "twice-base.json: invalid JSON: repeated key 'base_frequency_mhz'\n"),
            (["assign-targets", "--calibration", "twice-alpha.json"],
             "twice-alpha.json: invalid JSON: repeated key 'alpha'\n"),
            (["report", "--campaign", "twice-r-tuned.json"],
             "twice-r-tuned.json: invalid JSON: repeated key 'r_tuned'\n"),
            # every input is read before any flag or other input is checked
            (["yield", "--sigma", "7.7", "--seed", "1", "--window", "x", "--design", "nothing.json"],
             "No such file or directory: 'nothing.json'"),
            (["assign-targets", "--calibration", "square.json", "--design", "nothing.json"],
             "No such file or directory: 'nothing.json'"),
            (["yield", "--sigma", "7.7", "--seed", "1", "--design", "square.json"],
             "square.json: unit cell must be 3x3, got shape (2, 2)\n"),
            (["fit-relaxation", "--data", "zero.csv"], "t_hr and delta_r must be finite and positive"),
            (["calibrate-freq", "--data", "header.csv"],
             "error: need equal-length 1-D R and f of >= 2 points\n"),
            # each segment would hold one distinct time; np.polyfit once failed on it
            (["fit-relaxation", "--data", "repeated.csv"], "no breakpoint pair leaves enough"),
            (["fit-relaxation", "--data", "repeated.csv", "--breakpoints", "0.5,5"],
             "segment (-inf, 0.5] has one distinct time, 0.1"),
            # the middle segment's slope is 7e7, which once overflowed a float power
            (["fit-relaxation", "--data", "overflow.csv"], "fit overflows"),
            (["fit-relaxation", "--data", "overflow.csv", "--breakpoints", "50,150"],
             "fit overflows"),
            # a design once wrote NaN into lattice_summary.json, and park called it infeasible
            (["analyze-lattice", "--design", "inf-design.json"],
             "inf-design.json: nodes[1].design_mhz must be finite, got inf\n"),
            (["park", "--window", "20,130", "--design", "inf-design.json"],
             "inf-design.json: nodes[1].design_mhz must be finite, got inf\n"),
            (["assign-targets", "--design", "inf-design.json"],
             "inf-design.json: nodes[1].design_mhz must be finite, got inf\n"),
            (["analyze-lattice", "--design", "far-measured.json"],
             "far-measured.json: edge (0, 1) measured_mhz detuning 1e+308 - -1e+308 overflows\n"),
            (["park", "--window", "20,130", "--design", "far-measured.json"],
             "far-measured.json: edge (0, 1) measured_mhz detuning 1e+308 - -1e+308 overflows\n"),
            (["yield", "--sigma", "7.7", "--seed", "1", "--design", "zero-cell.json"],
             "zero-cell.json: unit cell violates its design window: internal (0,0)-(0,1)"),
            (["assign-targets", "--calibration", "any-domain.json"],
             "any-domain.json: r_min must be finite and > 0, got -1e+308\n"),
            (["assign-targets", "--calibration", "inverted-domain.json"],
             "inverted-domain.json: r_max must be finite and >= 9000.0, got 3000.0\n"),
        ],
    )
    def test_rejected(self, tmp_path, valid, capsys, argv, message):
        inputs = {"park": ["--design", valid["design"]],
                  "analyze-lattice": ["--design", valid["design"]],
                  "assign-targets": ["--design", valid["design"],
                                     "--calibration", valid["calibration"]],
                  "fit-relaxation": ["--data", DATA_DIR / "relaxation_demo.csv"],
                  "calibrate-freq": [], "yield": [], "simulate-tuning": [], "report": []}[argv[0]]
        for name, content in self.INPUTS.items():
            (tmp_path / name).write_bytes(content)
        # a flag in the row overrides the valid input given before it
        argv = [argv[0], *inputs, *(tmp_path / a if a in self.INPUTS else a for a in argv[1:])]
        rc = main([str(a) for a in argv] + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "module, cap, argv, at_cap, message",
        [
            (controller, "MAX_CAMPAIGN_QUBITS", ["simulate-tuning", "--seed", "1", "--qubits"],
             lambda cap: cap, "--qubits must be >= 1 and <= "),
            # a 1x1 tiling has 9 qubits
            (yieldmc, "MAX_QUBIT_TRIALS", ["yield", "--sigma", "7.7", "--seed", "1", "--trials"],
             lambda cap: cap // 9, "trials on 9 qubits must be <= "),
        ],
        ids=["campaign-qubits", "yield-qubit-trials"],
    )
    def test_run_size_capped_before_work(self, tmp_path, capsys, monkeypatch, module, cap, argv,
                                         at_cap, message):
        # A run at the real cap takes minutes, so the rule is exercised at a
        # small cap first; the real cap's first size past it is refused at once.
        real = getattr(module, cap)
        monkeypatch.setattr(module, cap, 18)
        assert main([*argv, str(at_cap(18)), "--out", str(tmp_path / "ok")]) == 0
        assert main([*argv, str(at_cap(18) + 1), "--out", str(tmp_path / "o")]) == 2
        monkeypatch.setattr(module, cap, real)
        assert main([*argv, str(at_cap(real) + 1), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count(message) == 2
        assert not (tmp_path / "o").exists()

    @pytest.fixture
    def unpulsed(self, monkeypatch):
        def never(*args):
            raise AssertionError("tuning streams were built before the campaign was checked")

        monkeypatch.setattr(controller, "QubitStreams", never)

    def test_pulse_budget_spent_exit_3(self, tmp_path, capsys, unpulsed):
        # about 8e6 pulses from its gap, past MAX_PULSES, and (at 1e308 Ohm,
        # where a 1.9 Ohm step no longer moves the resistance) about 8e305:
        # each is refused before any stream is built
        for design in ("1e9", "1e308"):
            rc = main(["simulate-tuning", "--qubits", "1", "--seed", "1",
                       "--design-resistance", design, "--out", str(tmp_path / "o")])
            assert rc == 3
            err = capsys.readouterr().err
            assert err == "infeasible: qubit Q000: max_pulses=1000000 exceeded\n"
            assert not (tmp_path / "o").exists()

    def test_campaign_pulses_capped_before_first_pulse(self, tmp_path, capsys, unpulsed):
        # the 5e4 Ohm probe noise spans each gap, so each qubit expects to
        # walk all of its about 150 000 pulses, 1.5e8 in all
        argv = ["simulate-tuning", "--seed", "2", "--qubits", "1000", "--design-resistance", "5e6",
                "--noise", "5e4"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expected walked pulses must be finite and <= 100000000, "
                              "got 149543107.1")
        assert not (tmp_path / "o").exists()

    def test_overflowing_target_resistance(self, tmp_path, valid, capsys):
        path = _edit("calibration", valid, tmp_path, _set(["beta"], 1e308))
        assert run_with("calibration", path, valid, tmp_path / "o") == 2
        assert "inverted resistance overflows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_target_outside_calibrated_domain(self, tmp_path, valid, capsys):
        # alpha 1e308 maps every frequency to 1 Ohm, far below r_min.
        path = _edit("calibration", valid, tmp_path, _set(["alpha"], 1e308))
        assert run_with("calibration", path, valid, tmp_path / "o") == 2
        assert "outside the calibrated domain" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_campaign_statistics(self, tmp_path, valid, capsys):
        path = _edit("campaign", valid, tmp_path, _set(["records", 1, "threshold"], 1e308))
        assert run_with("campaign", path, valid, tmp_path / "o") == 2
        assert "campaign statistics overflow (overshoot_sigma_ohm)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_read_campaign_statistics(self, tmp_path, valid, capsys):
        # the realised reserve divides by the last read
        path = _edit("campaign", valid, tmp_path, _set(["records", 1, "r_last_pulse"], 0.0))
        assert run_with("campaign", path, valid, tmp_path / "o") == 2
        assert "overflow (reserve_mean, reserve_sigma)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dice_rejected_before_monte_carlo(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("mc_chip_yield ran before --dice was checked")

        monkeypatch.setattr(yieldmc, "mc_chip_yield", never)
        argv = ["yield", "--sigma", "7.7", "--seed", "1", "--cells", "4x12", "--dice=-1"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "dice must be >= 0 and < 9007199254740992, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_threads_capped_before_monte_carlo(self, tmp_path, capsys, monkeypatch):
        # Only counts above the cap are tried: a rejected config starts no thread.
        for n in (yieldmc.MAX_THREADS + 1, 10**6):
            with pytest.raises(ValidationError, match=f"n_threads must be >= 1 and <= 64, got {n}"):
                yieldmc.YieldConfig(sigma_f_mhz=7.7, master_seed=1, n_threads=n)

        def never(*args, **kwargs):
            raise AssertionError("mc_chip_yield ran before --threads was checked")

        monkeypatch.setattr(yieldmc, "mc_chip_yield", never)
        argv = ["yield", "--sigma", "7.7", "--seed", "1", "--threads", "65"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "n_threads must be >= 1 and <= 64, got 65" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_csv_column(self, tmp_path, valid, capsys):
        path = tmp_path / "points.csv"
        path.write_text("resistance_ohm,resistance_ohm,f01max_mhz\n4000,5000,4300\n"
                        "4500,5500,4100\n3500,6000,4500\n")
        assert run_with("points", path, valid, tmp_path / "o") == 2
        assert "header repeats column 'resistance_ohm'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_distinct_resistance(self, tmp_path, valid, capsys):
        path = tmp_path / "points.csv"
        path.write_text("resistance_ohm,f01max_mhz\n4000,4300\n4000,4310\n")
        assert run_with("points", path, valid, tmp_path / "o") == 2
        assert "need >= 2 distinct resistances" in capsys.readouterr().err

    @pytest.mark.parametrize("breakpoints", [[], ["--breakpoints", "0.2,2.0"]])
    def test_empty_trace(self, tmp_path, capsys, breakpoints):
        path = tmp_path / "trace.csv"
        path.write_text("t_hr,delta_r_ohm\n")
        rc = main(["fit-relaxation", "--data", str(path), *breakpoints, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "need equal-length 1-D t_hr and delta_r of >= 3 points" in capsys.readouterr().err

    def test_breakpoints_not_numeric(self, tmp_path, capsys):
        rc = main(["fit-relaxation", "--data", str(DATA_DIR / "relaxation_demo.csv"),
                   "--breakpoints", "0.2,a", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--breakpoints must be numeric" in capsys.readouterr().err


def _nodes(data, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(data, dict):
        children = data.items()
    elif isinstance(data, list):
        children = enumerate(data)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


SWAPS = ["x", None, math.nan, [], [1.0], True, 1e308]

# Flag values the argv fuzz swaps in. No integer above 2, so no example asks
# for many qubits, trials or threads.
TOKENS = ["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "1e-300", "x", ""]
WINDOW_TOKENS = [*TOKENS, "130,20", "-1e308,1e308"]


def valid_argv(valid):
    """A small valid run of every subcommand, as flag -> value (no --out)."""
    return {
        "simulate-tuning": {"--qubits": "5", "--design-resistance": "4587.8", "--seed": "1",
                            "--reserve": "0.0289", "--aging-budget": "0.02", "--noise": "0.5"},
        "calibrate-freq": {"--data": valid["points"]},
        "assign-targets": {"--calibration": valid["calibration"], "--design": valid["design"],
                           "--aging-budget": "0.02"},
        "fit-relaxation": {"--data": DATA_DIR / "relaxation_demo.csv",
                           "--breakpoints": "0.2,2.0"},
        "analyze-lattice": {"--design": valid["design"], "--window": "20,130"},
        "park": {"--design": valid["design"], "--window": "20,130", "--max-park": "50",
                 "--step": "1"},
        "yield": {"--sigma": "7.7", "--cells": "1x1", "--trials": "200", "--seed": "1",
                  "--window": "20,130", "--dice": "212", "--threads": "1"},
        "report": {"--campaign": valid["campaign"]},
    }


class TestFuzzedInputs:
    """Mutated inputs exit 0, 2 or 3 and never raise out of ``main``."""

    def test_json(self, valid):
        # One hypothesis run per kind, so a change to one valid input leaves
        # the other kinds' examples as they were.
        for kind in ("design", "calibration", "campaign"):
            self._fuzz_json(kind, valid)

    def _fuzz_json(self, kind, valid):
        @settings(derandomize=True, deadline=None, max_examples=40)
        @given(data=st.data())
        def mutate(data):
            box = [json.loads(valid[kind].read_text())]  # so the document itself has a parent
            *parents, key = data.draw(st.sampled_from(list(_nodes(box))[1:]))
            parent = box
            for k in parents:
                parent = parent[k]
            op = data.draw(st.sampled_from(["drop", "add", "swap"]))
            if op == "drop" and isinstance(parent, dict):
                del parent[key]
            elif op == "add" and isinstance(parent[key], dict):
                parent[key]["unexpected"] = 1
            else:
                parent[key] = data.draw(st.sampled_from(SWAPS))
            self._run(kind, json.dumps(box[0]).encode(), valid)

        mutate()

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_points_csv(self, valid, data):
        rows = [line.split(",") for line in valid["points"].read_text().splitlines()]
        r = data.draw(st.integers(0, len(rows) - 1))
        op = data.draw(st.sampled_from(["drop", "add", "swap"]))
        if op == "drop":
            del rows[r][data.draw(st.integers(0, 1))]
        elif op == "add":
            rows[r].append("1.0")
        else:
            cell = data.draw(st.sampled_from(["x", "", "nan", "inf", "-1", "1e308", "\udcff"]))
            rows[r][data.draw(st.integers(0, 1))] = cell
        text = "".join(",".join(row) + "\n" for row in rows)
        self._run("points", text.encode("utf-8", "surrogateescape"), valid)

    def test_argv(self, valid, tmp_path, monkeypatch):
        # A swapped-in path resolves against an empty directory.
        monkeypatch.chdir(tmp_path)
        for command, flags in valid_argv(valid).items():
            self._fuzz_argv(command, flags)

    @staticmethod
    def _fuzz_argv(command, flags):
        @settings(derandomize=True, deadline=None, max_examples=60)
        @given(data=st.data())
        def swap(data):
            flag = data.draw(st.sampled_from(sorted(flags)))
            tokens = WINDOW_TOKENS if flag in ("--window", "--breakpoints") else TOKENS
            argv = {**flags, flag: data.draw(st.sampled_from(tokens))}
            with tempfile.TemporaryDirectory() as tmp:
                # "--flag=value", so a value such as "-1e308" is never read as a flag
                args = [command, *(f"{k}={v}" for k, v in argv.items()), f"--out={tmp}/o"]
                try:
                    assert main(args) in (0, 2, 3)
                except SystemExit as exc:
                    assert exc.code == 2

        swap()

    @staticmethod
    def _run(kind, content, valid):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"input.{'csv' if kind == 'points' else 'json'}"
            path.write_bytes(content)
            assert run_with(kind, path, valid, Path(tmp) / "o") in (0, 2, 3)


class TestParserReuse:
    # Flags each subcommand needs; every other flag falls back to its default.
    REQUIRED = {
        "simulate-tuning": ["--seed"], "calibrate-freq": ["--data"],
        "assign-targets": ["--calibration", "--design"], "fit-relaxation": ["--data"],
        "analyze-lattice": ["--design"], "park": ["--design", "--window"],
        "yield": ["--sigma", "--seed"], "report": ["--campaign"],
    }

    def test_no_parsed_value_carries_over(self, valid, tmp_path, monkeypatch):
        # main reuses one parser per process. Each subcommand runs with every
        # flag and then with only its required ones, and each parse must equal
        # a fresh parser's.
        parser = build_parser()
        assert build_parser() is parser
        parses, parse = [], parser.parse_args

        def spy(argv):
            parses.append(parse(argv))
            return parses[-1]

        monkeypatch.setattr(parser, "parse_args", spy)
        full = valid_argv(valid)
        full["yield"]["--design"] = valid["design"]
        runs = []
        for command, flags in full.items():
            runs += [(command, flags), (command, {k: flags[k] for k in self.REQUIRED[command]})]
        for i, (command, flags) in enumerate(runs):
            out = f"--out={tmp_path / str(i)}"
            argv = [command, *(f"{k}={v}" for k, v in flags.items()), out]
            assert main(argv) == 0
            assert vars(parses[-1]) == vars(build_parser.__wrapped__().parse_args(argv))
        assert len(parses) == 16
        lattice_config = json.loads((tmp_path / "9" / "manifest.json").read_text())["config"]
        assert lattice_config == {"window": None}
        yield_manifest = json.loads((tmp_path / "13" / "manifest.json").read_text())
        assert yield_manifest["config"]["design"] is None
        assert yield_manifest["input_digests"] == {}
