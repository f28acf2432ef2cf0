import csv
import hashlib
import io
import json
import re
import sys

import numpy as np
import pytest
from conftest import load, oracle_campaign_text, oracle_load_campaign, rows

from jjtrim import fileio
from jjtrim.cli import main
from jjtrim.controller import (
    RECORD_FIELDS,
    TARGET_FIELDS,
    CampaignConfig,
    campaign_stats,
    run_campaign,
)
from jjtrim.errors import ValidationError
from jjtrim.freqmodel import PowerLawModel
from jjtrim.junction import sample_fabricated
from jjtrim.yieldmc import UnitCellDesign


class TestDesignJson:
    def _write(self, tmp_path, **overrides):
        data = {
            "rows": 2,
            "cols": 2,
            "base_frequency_mhz": 4500.0,
            "offsets_mhz": [[0.0, 50.0], [50.0, 100.0]],
            "design_window_mhz": [40.0, 110.0],
        }
        data.update(overrides)
        path = tmp_path / "design.json"
        path.write_text(json.dumps(data))
        return path

    def test_load(self, tmp_path):
        lat = load(fileio.load_design, self._write(tmp_path))
        assert lat.rows == 2 and lat.cols == 2
        assert lat.design_f01max == (4500.0, 4550.0, 4550.0, 4600.0)

    def test_missing_node_named(self, tmp_path):
        path = self._write(tmp_path, offsets_mhz=[[0.0, 50.0], [None, 100.0]])
        with pytest.raises(ValidationError,
                           match=r"offsets_mhz\[1\]\[0\]: expected a finite number, got None$"):
            load(fileio.load_design, path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text("{}")
        with pytest.raises(ValidationError, match="rows"):
            load(fileio.load_design, path)

    def test_measured_grid_optional_or_null(self, tmp_path):
        lat = load(fileio.load_design, self._write(tmp_path, measured_mhz=None))
        assert lat.measured_f01max is None
        path = self._write(tmp_path, measured_mhz=[[4501, 4552.5], [4548, 4601]])
        lat = load(fileio.load_design, path)
        assert lat.measured_f01max == (4501.0, 4552.5, 4548.0, 4601.0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"rows": 2.5}, "rows: expected an integer, got 2.5"),
            ({"rows": True}, "rows: expected an integer, got True"),
            ({"base_frequency_mhz": False}, "base_frequency_mhz: expected a finite number"),
            ({"base_frequency_mhz": float("nan")}, "base_frequency_mhz: expected a finite number"),
            ({"offsets_mhz": [[0.0, 50.0], ["a", 100.0]]},
             r"offsets_mhz\[1\]\[0\]: expected a finite number, got 'a'"),
            ({"offsets_mhz": [[0.0, 50.0]]}, "offsets_mhz must be a 2x2 grid"),
            ({"measured_mhz": [[1.0, None], [1.0, 1.0]]},
             r"measured_mhz\[0\]\[1\]: expected a finite number, got None$"),
            ({"design_window_mhz": [40.0]}, r"design_window_mhz must be \[lo, hi\]"),
            ({"extra": 1}, "extra: unknown key"),
        ],
    )
    def test_schema_errors_name_the_field(self, tmp_path, overrides, message):
        path = self._write(tmp_path, **overrides)
        with pytest.raises(ValidationError, match=message) as err:
            load(fileio.load_design, path)
        assert str(err.value).startswith(f"{path}: ")

    def test_integers_read_as_floats(self, tmp_path):
        path = self._write(tmp_path, rows=3, cols=3, base_frequency_mhz=4500,
                           offsets_mhz=[[0, 50, 100], [100, 150, 200], [50, 100, 150]],
                           design_window_mhz=[40, 110])
        lat, cell = load(fileio.load_design, path), load(fileio.load_unit_cell, path)
        assert all(type(f) is float for f in (*lat.design_f01max, *cell.design_window_mhz))

    def test_invalid_json_has_line(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ValidationError, match="line 2"):
            load(fileio.load_design, path)

    def test_unit_cell_round_trip(self, tmp_path):
        cell = UnitCellDesign(
            offsets_mhz=((0.0, 50.0, 100.0), (100.0, 150.0, 200.0), (50.0, 100.0, 150.0))
        )
        path = tmp_path / "cell.json"
        fileio.save_design(path, cell)
        assert load(fileio.load_unit_cell, path) == cell
        assert load(fileio.load_design, path).design_f01max[1] == cell.base_frequency_mhz + 50.0


class TestCalibrationJson:
    def test_round_trip(self, tmp_path):
        model = PowerLawModel(beta=3e5, alpha=0.51, residual_sigma_mhz=12.4, r_min=3500, r_max=6500)
        path = tmp_path / "cal.json"
        fileio.save_calibration(path, model)
        assert load(fileio.load_calibration, path) == model


class TestPointsCsv:
    def test_reads_named_columns_in_any_order(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("note,y,x\na,2.5,1\n\nb,4,3e2\n")
        x, y = load(fileio.read_points_csv, path, "x", "y")
        assert x.dtype == y.dtype == float
        assert (x.tolist(), y.tolist()) == ([1.0, 300.0], [2.5, 4.0])

    def test_every_bad_line_reported(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_bytes(b"x,y\n1,2\n1,2,3\n1,nan\n1,x\n1\n")
        with pytest.raises(ValidationError, match="4 invalid rows") as err:
            load(fileio.read_points_csv, path, "x", "y")
        assert [d.split(":")[0] for d in err.value.details] == [
            "line 3", "line 4", "line 5", "line 6"
        ]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x,z\n1,2\n")
        with pytest.raises(ValidationError, match="expected columns 'x' and 'y'"):
            load(fileio.read_points_csv, path, "x", "y")


class TestCampaignPersistence:
    def test_save_load_preserves_statistics(self, tmp_path):
        ids = [f"Q{i:03d}" for i in range(25)]
        r, rho = sample_fabricated(4587.8, 3, ids)
        targets = {"qubit_id": ids, "target_resistance": np.full(25, 4587.8 * 0.98),
                   "relaxation_reserve": np.full(25, 0.0289)}
        config = CampaignConfig(master_seed=3, noise_sigma=0.5)
        records = run_campaign(r, rho, targets, config)
        path = tmp_path / "campaign.json"
        fileio.save_campaign(path, records, targets, config)
        loaded_records, loaded_targets, loaded_config = load(fileio.load_campaign, path)
        assert rows(loaded_records) == rows(records)
        assert rows(loaded_targets, TARGET_FIELDS) == rows(targets, TARGET_FIELDS)
        assert loaded_config == config
        # each column keeps its declared type: ids a list, numbers float64, int64 or bool
        assert [type(c) is list or c.dtype.name for c in loaded_records.values()] == [
            True, "float64", "float64", "float64", "float64", "int64", "bool"]
        assert campaign_stats(loaded_records, loaded_targets) == campaign_stats(records, targets)


def _campaign(n, **columns):
    """Target and record columns of ``n`` valid rows, with ``columns`` replaced."""
    ids = [f"Q{i:03d}" for i in range(n)]
    pulses = np.arange(n, dtype=np.int64) * 7
    cols = {"qubit_id": ids, "target_resistance": np.full(n, 4496.0),
            "relaxation_reserve": np.full(n, 0.0289), "r_untuned": 4400.0 + np.arange(n) / 3,
            "threshold": np.full(n, 4496.0 / 1.0289), "r_last_pulse": 4370.0 + np.arange(n) / 7,
            "r_tuned": 4490.0 + np.arange(n) / 9, "pulses": pulses,
            "already_above_target": pulses == 0, **columns}
    return ({k: cols[k] for k in RECORD_FIELDS}, {k: cols[k] for k in TARGET_FIELDS},
            CampaignConfig(master_seed=3, noise_sigma=0.5))


class TestCampaignWriter:
    """``save_campaign`` writes the bytes ``json.dumps`` writes for one dict per row."""

    @pytest.mark.parametrize("argv", [["--qubits", "2000"], ["--qubits", "221", "--noise", "0.5"]],
                             ids=["2000-noiseless", "221-noisy"])
    def test_pinned_campaigns(self, tmp_path, monkeypatch, argv):
        saved = []
        save = fileio.save_campaign
        monkeypatch.setattr(fileio, "save_campaign",
                            lambda path, *args: (saved.append(args), save(path, *args)))
        assert main(["simulate-tuning", *argv, "--seed", "7", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "campaign.json").read_text() == oracle_campaign_text(*saved[0])

    @pytest.mark.parametrize("columns", [
        {"qubit_id": ["caf\u00e9", 'a"b', "back\\slash", "a, b", "\u2603\U0001f600"]},
        {"r_last_pulse": np.array([0.0, -0.0, 0.0, -0.0, 1.5])},
        {"r_tuned": np.array([np.inf, -np.inf, np.nan, 1.0, np.nan])},
        {"pulses": np.array([2**63 - 1, -(2**63 - 1), 0, 1, -1])},
        {"threshold": np.full(5, 4369.7), "r_untuned": np.full(5, 4400.0)},
        {"threshold": np.linspace(1.0, 2.0, 5), "target_resistance": 1 / np.arange(1, 6),
         "relaxation_reserve": np.arange(5) * 0.1, "pulses": np.arange(5) - 2},
    ], ids=["ids-escaped", "signed-zero", "non-finite", "int64-edges", "all-constant",
            "all-distinct"])
    def test_edge_columns(self, tmp_path, columns):
        records, targets, config = _campaign(5, **columns)
        fileio.save_campaign(tmp_path / "c.json", records, targets, config)
        assert (tmp_path / "c.json").read_text() == oracle_campaign_text(records, targets, config)

    @pytest.mark.parametrize("n", [0, 1])
    def test_row_counts(self, tmp_path, n):
        records, targets, config = _campaign(n)
        fileio.save_campaign(tmp_path / "c.json", records, targets, config)
        assert (tmp_path / "c.json").read_text() == oracle_campaign_text(records, targets, config)


# One cell of a campaign file replaced: JSON values that break a field's type
# or range, plus an int that rounds into the float range but exceeds it.
_CELLS = {"true": True, "str": "x", "null": None, "nan": float("nan"), "1e400": 10**400,
          "2**63": 2**63, "2.5": 2.5, "int": 5000, "past-float-max": int(sys.float_info.max) + 1}


def _faults(data):
    """(name, edit) for every cell of every row of ``data``'s tables."""
    for table in ("targets", "records"):
        for i, row in enumerate(data[table]):
            for key in row:
                for name, value in _CELLS.items():
                    yield f"{table}[{i}].{key}={name}", (table, i, key, value)
                yield f"{table}[{i}].{key} missing", (table, i, key, "missing")
            yield f"{table}[{i}] extra key", (table, i, "extra", 1)
            yield f"{table}[{i}] not an object", (table, i, None, 7)
            yield f"{table}[{i}] repeated id", (table, i, "qubit_id",
                                                data[table][i - 1 if i else 1]["qubit_id"])


def _corrupt(data, fault):
    table, i, key, value = fault
    if key is None:
        data[table][i] = value
    elif value == "missing":
        del data[table][i][key]
    else:
        data[table][i][key] = value


def _outcome(loader, path):
    """The loader's exit-2 text, or its columns as Python rows."""
    try:
        records, targets, config = load(loader, path)
    except ValidationError as exc:
        return str(exc)
    return (rows(records), rows(targets, TARGET_FIELDS), config,
            [v.dtype.name for v in (*records.values(), *targets.values()) if type(v) is not list])


class TestCampaignReader:
    """``load_campaign`` checks a column at a time and names the first fault
    as the row-walking oracle does."""

    @pytest.fixture(scope="class")
    def text(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sim")
        assert main(["simulate-tuning", "--qubits", "4", "--seed", "5", "--out", str(out)]) == 0
        return (out / "campaign.json").read_text()

    def test_every_cell_fault_as_the_oracle(self, tmp_path, text):
        path = tmp_path / "c.json"
        checked = 0
        for name, fault in _faults(json.loads(text)):
            data = json.loads(text)
            _corrupt(data, fault)
            path.write_text(json.dumps(data))
            got, want = _outcome(fileio.load_campaign, path), _outcome(oracle_load_campaign, path)
            table, i, key, value = fault
            if key == "pulses" and type(value) is int and value >= 2**63:
                # the oracle names only the table
                want = want.replace(f": {table}:", f": {table}[{i}].pulses:")
            assert got == want, name
            checked += 1
        # per cell: each value and a missing key; per row: an extra key, a
        # non-object and a repeated id; 4 target and 4 record rows
        assert checked == 4 * (3 + 7) * (len(_CELLS) + 1) + 8 * 3

    @pytest.mark.parametrize("faults, where", [
        ([("records", 1, "r_tuned", "x"), ("records", 2, "r_untuned", None)], "records[1].r_tuned"),
        ([("records", 1, "pulses", 2.5), ("records", 2, "r_untuned", "x")], "records[1].pulses"),
        ([("records", 2, "qubit_id", 3), ("records", 1, "pulses", 2**64)], "records[1].pulses"),
        # a repeated id is a fault of its row: the targets are walked before the
        # records, so it now comes first (the oracle reports the schema fault)
        ([("targets", 3, "qubit_id", "Q000"), ("records", 0, "threshold", True)],
         "targets[3].qubit_id"),
    ])
    def test_first_of_two_faults_in_row_major_order(self, tmp_path, text, faults, where):
        data = json.loads(text)
        for fault in faults:
            _corrupt(data, fault)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {where}: ')}"):
            load(fileio.load_campaign, path)

    def test_ids_with_colons_load_as_the_oracle_through_the_fallback(self, tmp_path, text,
                                                                     monkeypatch):
        # a ':' in an id outnumbers the keys, so the text is parsed again with
        # the repeated-key hook; a text of plain ids is parsed once, without it
        hooked = []
        unique_keys = fileio._unique_keys
        monkeypatch.setattr(fileio, "_unique_keys", lambda pairs: hooked.append(1) or unique_keys(pairs))
        path = tmp_path / "c.json"
        path.write_text(text)
        plain = _outcome(fileio.load_campaign, path)
        assert not hooked
        path.write_text(text.replace('"Q00', '"fab:Q:00'))
        got = _outcome(fileio.load_campaign, path)
        assert hooked
        assert got == _outcome(oracle_load_campaign, path)
        assert [row["qubit_id"] for row in got[0]] == [f"fab:Q:00{i}" for i in range(4)]
        assert [{**row, "qubit_id": None} for row in got[0]] == [
            {**row, "qubit_id": None} for row in plain[0]]

    def test_repeated_key_in_late_row_named_before_early_schema_fault(self, tmp_path, text):
        data = json.loads(text)
        _corrupt(data, ("records", 0, "r_tuned", "x"))
        late = json.dumps(data).rsplit('{"qubit_id": "Q003", ', 1)
        path = tmp_path / "c.json"
        path.write_text('{"qubit_id": "Q003", "r_tuned": 1.0, '.join(late))
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(f'{path}: invalid JSON: repeated key ')}'r_tuned'$"):
            load(fileio.load_campaign, path)
        path.write_text(json.dumps(data))  # without the repeated key, the schema fault
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: records[0].r_tuned: ')}"):
            load(fileio.load_campaign, path)

    def test_int_in_float_field_loads_as_float64(self, tmp_path, text):
        data = json.loads(text)
        data["records"][2]["r_tuned"] = 5000
        data["targets"][0]["target_resistance"] = 4496
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        records, targets, _ = load(fileio.load_campaign, path)
        assert records["r_tuned"].dtype == np.float64 and records["r_tuned"][2] == 5000.0
        assert targets["target_resistance"].dtype == np.float64
        assert _outcome(fileio.load_campaign, path) == _outcome(oracle_load_campaign, path)


class TestWriteCsv:
    HEADER = ["qubit_id", "value", "pulses", "above", "f_mhz"]
    ROWS = [("a,b", 0.1, 3, True, 4500.0),
            ('say "hi"', 1e-300, -7, False, 1 / 3),
            ("two\nlines", 2.5, 0, True, 1e6)]

    @staticmethod
    def oracle(header, rows, formats):
        """The file as ``csv.writer`` writes it one row at a time, each
        formatted column formatted first."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, formats[c]) if c in formats else v
                             for c, v in zip(header, row)])
        return out.getvalue().encode("utf-8")

    @pytest.mark.parametrize("rows", [ROWS, []], ids=["rows", "no-rows"])
    @pytest.mark.parametrize("formats", [{}, {"f_mhz": ".3f"}], ids=["repr", "formatted"])
    def test_matches_row_by_row_writer(self, tmp_path, rows, formats):
        path = tmp_path / "out.csv"
        fileio.write_csv(path, self.HEADER, iter(rows), formats or None)
        assert path.read_bytes() == self.oracle(self.HEADER, rows, formats)

    def test_quotes_ids_and_writes_reprs(self, tmp_path):
        path = tmp_path / "out.csv"
        fileio.write_csv(path, self.HEADER, self.ROWS, {"f_mhz": ".3f"})
        assert path.read_bytes() == (
            b'qubit_id,value,pulses,above,f_mhz\n"a,b",0.1,3,True,4500.000\n'
            b'"say ""hi""",1e-300,-7,False,0.333\n"two\nlines",2.5,0,True,1000000.000\n')


class TestReadInput:
    def test_digest_is_of_the_bytes_decoded(self, tmp_path):
        raw = "x,y\n1,caf\u00e9\r\n".encode()
        path = tmp_path / "points.csv"
        path.write_bytes(raw)
        assert fileio.read_input(path) == (hashlib.sha256(raw).hexdigest(), raw.decode())


class TestManifest:
    def test_digests_and_reproducibility_fields(self, tmp_path):
        digests = {"input.csv": "0" * 64}
        (tmp_path / "out").mkdir()  # every command creates its output directory first
        fileio.write_manifest(tmp_path / "out", "yield", {"sigma": 7.7}, 7, digests)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "yield"
        assert manifest["master_seed"] == 7
        assert manifest["config"] == {"sigma": 7.7}
        assert manifest["input_digests"] == digests
