"""Property-based checks over randomized inputs.

These complement the example-based suites: rather than pinning specific
numbers they assert structural invariants that must hold for any input
the models accept.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_rng

from jjtrim import fileio
from jjtrim.controller import (
    RECORD_FIELDS, TARGET_FIELDS, CampaignConfig, qubit_rngs, run_campaign,
)
from jjtrim.freqmodel import PowerLawModel, fit_power_law, invert_R, predict_f
from jjtrim.junction import sample_fabricated
from jjtrim.lattice import (
    QubitLattice,
    edge_detunings,
    optimize_parking,
    subtract_global_offset,
)
from jjtrim.errors import InfeasibleError
from jjtrim.yieldmc import UnitCellDesign, tile, wilson_interval

ADDITIVE_CELL = ((0.0, 50.0, 100.0), (100.0, 150.0, 200.0), (50.0, 100.0, 150.0))


def target_columns(target, reserve=0.0289):
    return {"qubit_id": ["q"], "target_resistance": [target], "relaxation_reserve": [reserve]}


class TestTuneQubitProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        target_frac=st.floats(0.9, 1.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_noiseless_record_is_monotone(self, seed, target_frac):
        # fabrication, last pulse and probe never step down, and a qubit is
        # left unpulsed exactly when it starts above its threshold
        design = 4587.8
        r, rho = sample_fabricated(design, [np.random.default_rng(seed)])
        rec = run_campaign(r, rho, target_columns(design * target_frac),
                           CampaignConfig(master_seed=seed))
        assert rec["r_untuned"][0] <= rec["r_last_pulse"][0] <= rec["r_tuned"][0]
        assert (rec["pulses"] == 0) == rec["already_above_target"]


class TestPowerLawProperties:
    @given(
        alpha=st.floats(0.2, 0.9),
        beta=st.floats(1e4, 1e6),
        r=st.floats(3000.0, 9000.0),
    )
    @settings(max_examples=200)
    def test_predict_invert_round_trip(self, alpha, beta, r):
        model = PowerLawModel(
            beta=beta, alpha=alpha, residual_sigma=0.0, r_min=3000.0, r_max=9000.0
        )
        assert abs(invert_R(model, predict_f(model, r)) - r) <= 1e-9 * r

    @given(alpha=st.floats(0.2, 0.9), beta=st.floats(1e4, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_fit_recovers_exact_model(self, alpha, beta):
        r = np.linspace(3000, 9000, 15)
        f = beta * r**-alpha
        fit = fit_power_law(list(zip(r, f)))
        assert abs(fit.alpha - alpha) < 1e-7
        assert abs(fit.beta - beta) / beta < 1e-6


class TestCenteringProperties:
    @given(
        chips=st.lists(
            st.lists(st.floats(-500.0, 500.0), min_size=1, max_size=12),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=100)
    def test_residual_mean_zero(self, chips):
        for centered in subtract_global_offset(chips):
            assert abs(centered.mean()) < 1e-9

    @given(
        chip=st.lists(st.floats(-500.0, 500.0), min_size=2, max_size=12),
        offset=st.floats(-1000.0, 1000.0),
    )
    @settings(max_examples=100)
    def test_global_offset_invariance(self, chip, offset):
        (a,) = subtract_global_offset([chip])
        (b,) = subtract_global_offset([[x + offset for x in chip]])
        assert np.allclose(a, b, atol=1e-9)


class TestParkingSoundness:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_plans_are_valid_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        freqs = tuple(4500.0 + 30.0 * rng.integers(0, 6, 9).astype(float))
        lat = QubitLattice(rows=3, cols=3, design_f01max=freqs)
        window = (20.0, 130.0)
        try:
            plan = optimize_parking(lat, window, max_park_mhz=30.0, step_mhz=10.0)
        except InfeasibleError:
            return
        for off in plan.offsets_mhz:
            assert -30.0 <= off <= 0.0
            assert abs(off / 10.0 - round(off / 10.0)) < 1e-9
        parked = [f + o for f, o in zip(freqs, plan.offsets_mhz)]
        assert edge_detunings(lat, parked, window=window)["in_window"].all()


class TestTilingProperties:
    @given(m=st.integers(1, 3), n=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_edge_count_formula(self, m, n):
        lat = tile(UnitCellDesign(offsets_mhz=ADDITIVE_CELL), m, n)
        rows, cols = 3 * m, 3 * n
        assert len(lat.edges()) == rows * (cols - 1) + cols * (rows - 1)

    @given(m=st.integers(1, 3), n=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_tiled_detunings_repeat_cell_values(self, m, n):
        cell = UnitCellDesign(offsets_mhz=ADDITIVE_CELL)
        base = set(np.round(edge_detunings(tile(cell, 1, 1))["abs_mhz"], 9))
        tiled = set(np.round(edge_detunings(tile(cell, m, n))["abs_mhz"], 9))
        assert tiled == base


class TestSeedingProperties:
    @given(master=st.integers(0, 2**80), qid=st.text(min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_per_qubit_stream_reproducible(self, master, qid):
        (rng,) = qubit_rngs(master, [qid])
        assert np.array_equal(rng.random(4), oracle_rng(master, qid).random(4))

    @given(
        target=st.floats(1000.0, 9000.0),
        reserve=st.floats(0.0, 0.2),
    )
    @settings(max_examples=100)
    def test_threshold_consistent_with_reserve(self, target, reserve):
        targets = target_columns(target, reserve)
        rec = run_campaign([target], [0.0], targets, CampaignConfig(master_seed=0))
        assert rec["threshold"][0] * (1.0 + reserve) == pytest.approx(target, rel=1e-12)


@st.composite
def campaign_columns(draw):
    """Valid target and record columns, mixing repeated and distinct values."""
    n = draw(st.integers(0, 8))

    def column(values):
        pool = draw(st.lists(values, min_size=1, max_size=2))
        return draw(st.lists(st.sampled_from(pool) | values, min_size=n, max_size=n))

    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    ids = draw(st.lists(st.text(max_size=5), min_size=n, max_size=n, unique=True))
    pulses = np.array(column(st.integers(0, 2**63 - 1)), np.int64)
    targets = {"qubit_id": ids, "target_resistance": np.array(column(positive)),
               "relaxation_reserve": np.array(column(st.floats(0.0, 1.0, exclude_max=True)))}
    records = {"qubit_id": ids, "r_untuned": np.array(column(positive)),
               "threshold": np.array(column(positive)), "r_last_pulse": np.array(column(finite)),
               "r_tuned": np.array(column(finite)), "pulses": pulses,
               "already_above_target": pulses == 0}
    return records, targets


class TestCampaignFileProperties:
    @given(columns=campaign_columns(), seed=st.integers(0, 2**70),
           noise=st.floats(0.0, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, columns, seed, noise):
        # every column comes back with its dtype and bits, and saving again
        # writes the same bytes
        records, targets = columns
        config = CampaignConfig(master_seed=seed, noise_sigma=noise)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "campaign.json"
            fileio.save_campaign(path, records, targets, config)
            loaded = fileio.load_campaign(path)
            fileio.save_campaign(Path(tmp) / "again.json", *loaded)
            assert (Path(tmp) / "again.json").read_bytes() == path.read_bytes()
        assert loaded[2] == config
        for got, want, fields in zip(loaded, columns, (RECORD_FIELDS, TARGET_FIELDS)):
            assert got.keys() == want.keys()
            assert got["qubit_id"] == want["qubit_id"]
            for key, kind in list(fields.items())[1:]:
                assert got[key].dtype == np.dtype(kind) == want[key].dtype
                assert got[key].tobytes() == want[key].tobytes()


class TestWilsonProperties:
    @given(trials=st.integers(1, 10**6), data=st.data())
    @settings(max_examples=100)
    def test_interval_brackets_estimate(self, trials, data):
        passes = data.draw(st.integers(0, trials))
        lo, hi = wilson_interval(passes, trials)
        p = passes / trials
        # 1e-12 slack covers float round-off at the p=0 and p=1 endpoints
        assert 0.0 <= lo <= p + 1e-12
        assert p - 1e-12 <= hi <= 1.0
