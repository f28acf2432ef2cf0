import importlib.util
from pathlib import Path

import numpy as np
import pytest

from jjtrim import junction
from jjtrim.errors import ValidationError
from jjtrim.junction import (
    PROBE_DELAY_HR,
    RELAX_BREAKPOINTS_HR,
    RELAX_EXPONENTS,
    relaxation_delta,
    relaxation_shape,
    sample_fabricated,
)

ROOT = Path(__file__).resolve().parent.parent


def ids(n):
    return [f"Q{i:03d}" for i in range(n)]


def loop_amplitudes():
    """Each regime's amplitude glued to the one before it, one breakpoint at a time."""
    amps = [1.0]
    for k, b in enumerate(RELAX_BREAKPOINTS_HR):
        amps.append(amps[k] * b ** (RELAX_EXPONENTS[k] - RELAX_EXPONENTS[k + 1]))
    return tuple(amps)


def loop_shape_unnormalized(t_hr):
    """The unnormalized trajectory, its regime found by walking the
    breakpoints: the oracle for ``junction._shape_unnormalized``."""
    if t_hr == 0:
        return 0.0
    k = 0
    for b in RELAX_BREAKPOINTS_HR:
        if t_hr <= b:
            break
        k += 1
    return loop_amplitudes()[k] * t_hr ** RELAX_EXPONENTS[k]


class TestFabrication:
    def test_population_statistics(self):
        draws, _ = sample_fabricated(4587.8, 0, ids(221))
        assert abs(draws.mean() - 4096.9) / 4096.9 < 0.01
        assert 0.030 <= draws.std() / draws.mean() <= 0.040

    def test_zero_sigma_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(junction, "FAB_SIGMA_FRAC", 0.0)
        r, _ = sample_fabricated(5000.0, 0, ids(5))
        assert r == pytest.approx(np.full(5, 5000.0 * 0.893))

    def test_same_seed_same_state(self):
        first, again = (sample_fabricated(4587.8, 42, ids(2)) for _ in range(2))
        assert np.array_equal(first, again)

    def test_invalid_design_resistance(self):
        with pytest.raises(ValidationError, match="design_resistance must be finite and > 0"):
            sample_fabricated(-1.0, 0, ids(1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"design_resistance": float("inf")},
            {"design_resistance": float("nan")},
            {"design_resistance": float("-inf")},
            # a mean at or below zero never draws a positive resistance, so
            # sampling would never end
            {"design_resistance": 0.0},
            {"design_resistance": -0.0},
            {"design_resistance": -5000.0},
            {"design_resistance": -1e308},
        ],
    )
    def test_non_finite_or_non_positive_mean_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            sample_fabricated(**kwargs, master_seed=0, ids=ids(1))


class TestRelaxation:
    def test_zero_time_zero_delta(self):
        assert relaxation_delta(0.03, 4500.0, 0.0) == 0.0

    def test_normalization_at_probe_delay(self):
        delta = relaxation_delta(0.0289, 4497.9, 5.0)
        assert delta == pytest.approx(0.0289 * 4497.9, rel=1e-12)
        # same scale as the observed mean probe-time shift (~128 Ohm)
        assert delta == pytest.approx(130.0, abs=0.05)

    def test_continuity_at_breakpoints(self):
        for b in RELAX_BREAKPOINTS_HR:
            left = relaxation_shape(b * (1 - 1e-12))
            right = relaxation_shape(b * (1 + 1e-12))
            assert abs(left - right) / right < 1e-9

    def test_piecewise_loglog_slopes(self):
        edges = (1e-3, *RELAX_BREAKPOINTS_HR, 100.0)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            t = np.geomspace(lo * 1.001, hi * 0.999, 50)
            s = np.array([relaxation_shape(x) for x in t])
            slope = np.polyfit(np.log(t), np.log(s), 1)[0]
            assert slope == pytest.approx(RELAX_EXPONENTS[k], abs=1e-6)

    def test_shape_matches_breakpoint_walk_bit_for_bit(self):
        assert junction._RELAX_AMPLITUDES == loop_amplitudes()
        assert junction._RELAX_NORM == loop_shape_unnormalized(PROBE_DELAY_HR)
        near = [np.nextafter(b, edge) for b in RELAX_BREAKPOINTS_HR for edge in (0.0, np.inf)]
        times = [*np.geomspace(1e-6, 1e6, 20_001).tolist(), *RELAX_BREAKPOINTS_HR,
                 *map(float, near), 0.0, -0.0, 0, 1e-300, 1e300]
        got = np.array([relaxation_shape(t) for t in times])
        norm = loop_shape_unnormalized(PROBE_DELAY_HR)
        want = np.array([loop_shape_unnormalized(t) / norm for t in times])
        # compared as bit patterns, so a -0.0 would not pass for 0.0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            relaxation_delta(0.03, 4500.0, -1.0)

    def test_slowing_down(self):
        # the rate d(delta)/dt strictly decreases for t > 0
        t = np.geomspace(0.01, 80, 200)
        s = np.array([relaxation_shape(x) for x in t])
        rates = np.diff(s) / np.diff(t)
        assert np.all(np.diff(rates) < 0)

    def test_day_scale_aging_exponent(self):
        # mean drift from the last pulse, probed at 5 hr + {4, 8, 11} days,
        # follows a power law in days with the configured aging exponent
        rng = np.random.default_rng(11)
        rhos = np.clip(rng.normal(0.0289, 0.0030, 28), 0, None)
        days = np.array([4.0, 8.0, 11.0])
        means = [
            np.mean([relaxation_delta(rho, 4497.9, 5.0 + 24.0 * d) for rho in rhos])
            for d in days
        ]
        slope = np.polyfit(np.log(days), np.log(means), 1)[0]
        assert slope == pytest.approx(0.11, abs=0.03)

    def test_bundled_demo_trace_is_current(self):
        # data/relaxation_demo.csv is the demo script's output for these
        # relaxation constants, byte for byte
        path = ROOT / "scripts" / "make_relaxation_demo.py"
        spec = importlib.util.spec_from_file_location("make_relaxation_demo", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        bundled = (ROOT / "data" / "relaxation_demo.csv").read_bytes()
        assert script.render().encode("utf-8") == bundled
