import numpy as np
import pytest

from jjtrim.errors import ValidationError
from jjtrim.junction import (
    FabricationModel,
    RelaxationProfile,
    StepModel,
    relaxation_delta,
    sample_fabricated,
)


class TestFabrication:
    def test_population_statistics(self):
        fab = FabricationModel(design_resistance=4587.8, mean_offset_frac=-0.107, sigma_frac=0.035)
        draws = np.array([sample_fabricated(fab, i).resistance for i in range(221)])
        assert abs(draws.mean() - 4096.9) / 4096.9 < 0.01
        assert 0.030 <= draws.std() / draws.mean() <= 0.040

    def test_zero_sigma_is_degenerate(self):
        fab = FabricationModel(design_resistance=5000.0, sigma_frac=0.0)
        for seed in range(5):
            assert sample_fabricated(fab, seed).resistance == pytest.approx(5000.0 * 0.893)

    def test_same_seed_same_state(self):
        fab = FabricationModel(design_resistance=4587.8)
        assert sample_fabricated(fab, 42) == sample_fabricated(fab, 42)

    def test_invalid_design_resistance(self):
        with pytest.raises(ValidationError):
            FabricationModel(design_resistance=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"design_resistance": float("inf")},
            {"design_resistance": float("nan")},
            {"design_resistance": 5000.0, "sigma_frac": float("nan")},
            {"design_resistance": 5000.0, "sigma_frac": float("inf")},
            {"design_resistance": 5000.0, "mean_offset_frac": float("nan")},
            # with no spread a mean at or below zero never draws a positive
            # resistance, so sampling would never end
            {"design_resistance": 5000.0, "mean_offset_frac": -1.0, "sigma_frac": 0.0},
            {"design_resistance": 5000.0, "mean_offset_frac": -2.0},
        ],
    )
    def test_non_finite_or_non_positive_mean_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            FabricationModel(**kwargs)


class TestPulse:
    def test_exponential_step_statistics(self):
        rng = np.random.default_rng(3)
        step = StepModel(mean_step=1.9)
        samples = step.sample_batch(rng, 10**5)
        assert samples.mean() == pytest.approx(1.9, abs=0.05)
        assert samples.std() == pytest.approx(1.9, abs=0.05)
        assert np.all(samples > 0)


class TestRelaxation:
    def test_zero_time_zero_delta(self):
        assert relaxation_delta(RelaxationProfile(), 0.03, 4500.0, 0.0) == 0.0

    def test_normalization_at_probe_delay(self):
        prof = RelaxationProfile()
        delta = relaxation_delta(prof, 0.0289, 4497.9, 5.0)
        assert delta == pytest.approx(0.0289 * 4497.9, rel=1e-12)
        # same scale as the observed mean probe-time shift (~128 Ohm)
        assert delta == pytest.approx(130.0, abs=0.05)

    def test_continuity_at_breakpoints(self):
        prof = RelaxationProfile()
        for b in prof.breakpoints_hr:
            left = prof.shape(b * (1 - 1e-12))
            right = prof.shape(b * (1 + 1e-12))
            assert abs(left - right) / right < 1e-9

    def test_piecewise_loglog_slopes(self):
        prof = RelaxationProfile()
        edges = (1e-3, *prof.breakpoints_hr, 100.0)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            t = np.geomspace(lo * 1.001, hi * 0.999, 50)
            s = np.array([prof.shape(x) for x in t])
            slope = np.polyfit(np.log(t), np.log(s), 1)[0]
            assert slope == pytest.approx(prof.exponents[k], abs=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            relaxation_delta(RelaxationProfile(), 0.03, 4500.0, -1.0)

    def test_slowing_down(self):
        # the rate d(delta)/dt strictly decreases for t > 0
        prof = RelaxationProfile()
        t = np.geomspace(0.01, 80, 200)
        s = np.array([prof.shape(x) for x in t])
        rates = np.diff(s) / np.diff(t)
        assert np.all(np.diff(rates) < 0)

    def test_day_scale_aging_exponent(self):
        # mean drift from the last pulse, probed at 5 hr + {4, 8, 11} days,
        # follows a power law in days with the configured aging exponent
        prof = RelaxationProfile()
        rng = np.random.default_rng(11)
        rhos = np.clip(rng.normal(0.0289, 0.0030, 28), 0, None)
        days = np.array([4.0, 8.0, 11.0])
        means = [
            np.mean([relaxation_delta(prof, rho, 4497.9, 5.0 + 24.0 * d) for rho in rhos])
            for d in days
        ]
        slope = np.polyfit(np.log(days), np.log(means), 1)[0]
        assert slope == pytest.approx(0.11, abs=0.03)
