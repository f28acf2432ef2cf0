import csv
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import oracle_fabricated, oracle_record, oracle_rng, rows
from hypothesis import given, settings
from hypothesis import strategies as st

from jjtrim import controller, fileio, junction, yieldmc
from jjtrim.cli import build_parser, main
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
        records, targets, config = fileio.load_campaign(tmp_path / "campaign.json")
        assert config.master_seed == seed
        design = json.loads((tmp_path / "manifest.json").read_text())["config"]["design_resistance"]
        want = [
            oracle_record(*oracle_fabricated(design, oracle_rng(seed, "fab:" + t["qubit_id"])),
                          t, 0.0, oracle_rng(seed, t["qubit_id"]))
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

    # sha256 of every file a campaign and its report write, recorded before
    # the campaign was carried as columns; any byte of drift fails here
    PINNED = {
        ("--qubits", "2000"): (
            "02eab51f691dac5768c59a1faa73cb61818122421e07e1b84bc6eac82dd6bbe5",
            "d8996b3fa15b45bd6be4e05a178801f1a93c2da3582e9bb995b751029ec161bc",
            "5405e0c3b1219f832eb862fca3bd9c12ebf77d49d53056cae2aa50a03712e52e",
        ),
        ("--qubits", "221", "--noise", "0.5"): (
            "9a673cf67a01ea4439e51023f2bda19d88ef433c60286388a0963b2eceac4127",
            "c0dcaafe2e0316acb44abc98be9f76e5a71210f7a244c106730c77a94693b326",
            "2fc18c8db39faf03e89af01598f9a8c24b49aa96a9d69bb1db28e2b771c1ce56",
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
        # No offset reaches the 20 MHz window floor, so no plan exists.
        design = self._design(tmp_path, self.UNIFORM)
        rc = main(["park", "--design", str(design), "--window", "20,130", "--step", "0.01",
                   "--max-park", "19.99", "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ") and "Traceback" not in err
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
        assert [[cell["base_frequency_mhz"] + o for o in row] for row in cell["offsets_mhz"]] == [
            [3600.0 + o for o in row] for row in offsets
        ]
        # Detunings of integer-MHz frequencies do not depend on the base, so
        # the yield is the one written when the cell is rebased to 4500 MHz.
        assert (out / "yield.csv").read_text() == (run(4500.0) / "yield.csv").read_text()


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
        PowerLawModel(beta=280000.0, alpha=0.51, residual_sigma=2.0, r_min=3000.0, r_max=7000.0),
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
            ("design", _set(["base_frequency_mhz"], math.nan),
             "base_frequency_mhz: expected a finite number, got nan"),
            ("design", _set(["base_frequency_mhz"], 10**400),
             "base_frequency_mhz: expected a finite number, got 1000"),
            ("calibration", _set(["beta"], "x"), "beta: expected a finite number, got 'x'"),
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
             "got true with pulses 140"),
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
            (b"3500.0,4000.0\n4000.0,38\xff0.0\n", "line 3:"),
            (b"3500.0,4000.0\n4000.0,inf\n", "line 3:"),
        ],
        ids=["three-fields", "byte-0xff", "inf"],
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
            (["park", "--window", "20,130", "--step", "1e-300"], "offsets per qubit"),
            (["simulate-tuning", "--seed", "1", "--qubits", "0"], "--qubits must be >= 1"),
            (["simulate-tuning", "--seed", "1", "--qubits", "-3"], "--qubits must be >= 1"),
            (["simulate-tuning", "--seed", "1", "--design-resistance", "inf"],
             "design_resistance must be finite"),
            (["analyze-lattice", "--window", "130,20"], "window must be finite with lo < hi"),
            (["simulate-tuning", "--seed", "1", "--aging-budget=-0.5"],
             "aging_budget must be finite"),
            (["simulate-tuning", "--seed", "1", "--aging-budget=-1e308"],
             "aging_budget must be finite"),
            (["yield", "--sigma", "7.7", "--seed", "1", "--cells", "1e308x1"],
             "tiling has more than 100000 qubits"),
            (["yield", "--sigma", "7.7", "--seed", "1", "--trials", "10", "--dice", "1" + "0" * 400],
             "dice must be >= 0 and < 9007199254740992"),
            # refused before any of the million qubits is sampled
            (["simulate-tuning", "--seed", "1", "--qubits", "1000000", "--reserve", "1"],
             "relaxation_reserve must be finite and >= 0 and < 1, got 1.0"),
        ],
    )
    def test_rejected(self, tmp_path, valid, capsys, argv, message):
        inputs = {"park": ["--design", valid["design"]],
                  "analyze-lattice": ["--design", valid["design"]],
                  "assign-targets": ["--design", valid["design"],
                                     "--calibration", valid["calibration"]],
                  "yield": [], "simulate-tuning": []}[argv[0]]
        rc = main([str(a) for a in argv + inputs] + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "module, cap, argv, at_cap, message",
        [
            (controller, "MAX_CAMPAIGN_QUBITS", ["simulate-tuning", "--seed", "1", "--qubits"],
             lambda cap: cap, "--qubits must be <= "),
            # a 1x1 tiling has 9 qubits
            (yieldmc, "MAX_QUBIT_TRIALS", ["yield", "--sigma", "7.7", "--seed", "1", "--trials"],
             lambda cap: cap // 9, "qubit-trials"),
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

    def test_pulse_budget_spent_exit_3(self, tmp_path, capsys):
        # at 1e308 Ohm a 1.9 Ohm step no longer moves the resistance
        rc = main(["simulate-tuning", "--qubits", "1", "--seed", "1",
                   "--design-resistance", "1e308", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "infeasible: qubit Q000: max_pulses=1000000 exceeded\n"
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
