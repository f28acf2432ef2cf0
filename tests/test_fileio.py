import json

import numpy as np
import pytest
from conftest import rows

from jjtrim import fileio
from jjtrim.controller import (
    TARGET_FIELDS,
    CampaignConfig,
    campaign_stats,
    qubit_rngs,
    run_campaign,
)
from jjtrim.errors import SchemaError
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
        lat, window = fileio.load_design(self._write(tmp_path))
        assert lat.rows == 2 and lat.cols == 2
        assert lat.design_f01max == (4500.0, 4550.0, 4550.0, 4600.0)
        assert window == (40.0, 110.0)

    def test_missing_node_named(self, tmp_path):
        path = self._write(tmp_path, offsets_mhz=[[0.0, 50.0], [None, 100.0]])
        with pytest.raises(SchemaError, match=r"\(1,0\)"):
            fileio.load_design(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text("{}")
        with pytest.raises(SchemaError, match="rows"):
            fileio.load_design(path)

    def test_measured_grid_optional_or_null(self, tmp_path):
        lat, _ = fileio.load_design(self._write(tmp_path, measured_mhz=None))
        assert lat.measured_f01max is None
        lat, _ = fileio.load_design(
            self._write(tmp_path, measured_mhz=[[4501, 4552.5], [4548, 4601]])
        )
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
            ({"measured_mhz": [[1.0, None], [1.0, 1.0]]}, r"measured frequency at nodes \(0,1\)"),
            ({"design_window_mhz": [40.0]}, r"design_window_mhz must be \[lo, hi\]"),
            ({"extra": 1}, "extra: unknown key"),
        ],
    )
    def test_schema_errors_name_the_field(self, tmp_path, overrides, message):
        path = self._write(tmp_path, **overrides)
        with pytest.raises(SchemaError, match=message) as err:
            fileio.load_design(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_integers_read_as_floats(self, tmp_path):
        lat, window = fileio.load_design(
            self._write(tmp_path, base_frequency_mhz=4500, offsets_mhz=[[0, 50], [50, 100]],
                        design_window_mhz=[40, 110])
        )
        assert all(type(f) is float for f in (*lat.design_f01max, *window))

    def test_invalid_json_has_line(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(SchemaError, match="line 2"):
            fileio.load_design(path)

    def test_unit_cell_round_trip(self, tmp_path):
        cell = UnitCellDesign(
            offsets_mhz=((0.0, 50.0, 100.0), (100.0, 150.0, 200.0), (50.0, 100.0, 150.0))
        )
        path = tmp_path / "cell.json"
        fileio.save_design(path, cell)
        lat, window = fileio.load_design(path)
        assert window == cell.design_window_mhz
        assert lat.design_f01max[1] == cell.base_frequency_mhz + 50.0


class TestCalibrationJson:
    def test_round_trip(self, tmp_path):
        model = PowerLawModel(beta=3e5, alpha=0.51, residual_sigma=12.4, r_min=3500, r_max=6500)
        path = tmp_path / "cal.json"
        fileio.save_calibration(path, model)
        assert fileio.load_calibration(path) == model


class TestPointsCsv:
    def test_reads_named_columns_in_any_order(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("note,y,x\na,2.5,1\n\nb,4,3e2\n")
        assert fileio.read_points_csv(path, "x", "y") == [(1.0, 2.5), (300.0, 4.0)]

    def test_every_bad_line_reported(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_bytes(b"x,y\n1,2\n1,2,3\n1,nan\n1,\xff\n1\n")
        with pytest.raises(SchemaError, match="4 invalid rows") as err:
            fileio.read_points_csv(path, "x", "y")
        assert [d.split(":")[0] for d in err.value.details] == [
            "line 3", "line 4", "line 5", "line 6"
        ]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x,z\n1,2\n")
        with pytest.raises(SchemaError, match="expected columns 'x' and 'y'"):
            fileio.read_points_csv(path, "x", "y")


class TestCampaignPersistence:
    def test_save_load_preserves_statistics(self, tmp_path):
        ids = [f"Q{i:03d}" for i in range(25)]
        r, rho = sample_fabricated(4587.8, qubit_rngs(3, ["fab:" + q for q in ids]))
        targets = {"qubit_id": ids, "target_resistance": np.full(25, 4587.8 * 0.98),
                   "relaxation_reserve": np.full(25, 0.0289)}
        config = CampaignConfig(master_seed=3, noise_sigma=0.5)
        records = run_campaign(r, rho, targets, config)
        path = tmp_path / "campaign.json"
        fileio.save_campaign(path, records, targets, config)
        loaded_records, loaded_targets, loaded_config = fileio.load_campaign(path)
        assert rows(loaded_records) == rows(records)
        assert rows(loaded_targets, TARGET_FIELDS) == rows(targets, TARGET_FIELDS)
        assert loaded_config == config
        # each column keeps its declared type: ids a list, numbers float64, int64 or bool
        assert [type(c) is list or c.dtype.name for c in loaded_records.values()] == [
            True, "float64", "float64", "float64", "float64", "int64", "bool"]
        assert campaign_stats(loaded_records, loaded_targets) == campaign_stats(records, targets)


class TestManifest:
    def test_digests_and_reproducibility_fields(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("x\n1\n")
        path = fileio.write_manifest(
            tmp_path / "out", "yield", {"sigma": 7.7}, 7, [data]
        )
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "yield"
        assert manifest["master_seed"] == 7
        assert manifest["config"] == {"sigma": 7.7}
        assert str(data) in manifest["input_digests"]
        assert len(manifest["input_digests"][str(data)]) == 64
