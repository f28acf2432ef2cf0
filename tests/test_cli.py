import csv
import json
from pathlib import Path

import numpy as np
import pytest

from jjtrim.cli import main

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

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_noise_exit_2(self, tmp_path, noise, capsys):
        rc = main(["simulate-tuning", "--qubits", "3", "--seed", "1", "--noise", noise,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "noise_sigma" in capsys.readouterr().err
        assert not (tmp_path / "o" / "campaign.json").exists()


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

    def test_analyze_lattice(self, tmp_path):
        design = self._design(
            tmp_path,
            {
                "rows": 3,
                "cols": 3,
                "base_frequency_mhz": 4500.0,
                "offsets_mhz": [[0.0, 50.0, 100.0], [100.0, 150.0, 200.0], [50.0, 100.0, 150.0]],
                "design_window_mhz": [40.0, 110.0],
            },
        )
        out = tmp_path / "out"
        rc = main(["analyze-lattice", "--design", str(design), "--window", "20,130", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "lattice_summary.json").read_text())
        assert summary["edges"] == 12
        assert summary["median_mhz"] == 50.0

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
        assert not (tmp_path / "o" / "yield.csv").exists()

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
