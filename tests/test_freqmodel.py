import csv
import math
from pathlib import Path

import numpy as np
import pytest

from jjtrim.errors import ValidationError
from jjtrim.freqmodel import (
    PowerLawModel,
    assign_target_R,
    fit_power_law,
    fit_segmented_power_law,
    freq_equiv_sigma,
    invert_R,
    predict_f,
)
from jjtrim.junction import relaxation_shape

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def exact_model(alpha=0.5, beta=300000.0):
    return PowerLawModel(beta=beta, alpha=alpha, residual_sigma_mhz=0.0, r_min=3000.0, r_max=9000.0)


class TestPowerLawFit:
    def test_exact_synthetic_recovery(self):
        r = np.linspace(3000, 9000, 20)
        f = 300000.0 * r**-0.5
        model = fit_power_law(r, f)
        assert model.alpha == pytest.approx(0.5, abs=1e-9)
        assert model.residual_sigma_mhz <= 1e-6

    def test_noisy_synthetic_band(self):
        rng = np.random.default_rng(8)
        r = np.linspace(3500, 6500, 60)
        f = 280000.0 * r**-0.51 + rng.normal(0, 12.4, 60)
        model = fit_power_law(r, f)
        assert model.alpha == pytest.approx(0.51, abs=0.05)
        assert 10.0 <= model.residual_sigma_mhz <= 15.0

    def test_two_point_interpolation(self):
        r, f = [4000.0, 5000.0], [4800.0, 4300.0]
        model = fit_power_law(r, f)
        assert predict_f(model, r) == pytest.approx(f, rel=1e-9)

    @pytest.mark.parametrize(
        "r, f, message",
        [
            ([4000.0], [4800.0], ">= 2 points"),
            ([4000.0, 5000.0], [4800.0], "equal-length"),
            ([4000.0, -1.0, 5000.0], [4800.0, 4300.0, 4200.0], "finite and positive"),
            # once reached np.polyfit and failed there with LinAlgError
            ([math.nan, 4000.0, 5000.0], [4800.0, 4700.0, 4300.0], "finite"),
        ],
    )
    def test_rejects_bad_input(self, r, f, message):
        with pytest.raises(ValidationError, match=message):
            fit_power_law(r, f)

    def test_fit_idempotence(self):
        model = exact_model(alpha=0.47, beta=250000.0)
        r = np.linspace(3200, 8200, 25)
        refit = fit_power_law(r, predict_f(model, r))
        assert refit.alpha == pytest.approx(model.alpha, rel=1e-9)
        assert refit.beta == pytest.approx(model.beta, rel=1e-9)

    def test_scale_covariance(self):
        r = np.linspace(3000, 9000, 20)
        f = 300000.0 * r**-0.5
        base = fit_power_law(r, f)
        scaled = fit_power_law(2.0 * r, f)
        assert scaled.alpha == pytest.approx(base.alpha, rel=1e-9)
        assert scaled.beta == pytest.approx(base.beta * 2.0**base.alpha, rel=1e-9)


class TestPredictInvert:
    def test_round_trip(self):
        model = exact_model()
        rng = np.random.default_rng(0)
        for r in rng.uniform(3000, 9000, 100):
            assert invert_R(model, predict_f(model, r)) == pytest.approx(r, rel=1e-9)

    def test_aging_shift_prediction(self):
        beta = 4556.0 * np.sqrt(4496.0)
        model = PowerLawModel(beta=beta, alpha=0.5, residual_sigma_mhz=0.0, r_min=4000, r_max=5000)
        assert predict_f(model, 4496.0) == pytest.approx(4556.0)
        assert predict_f(model, 4496.0 * 1.02) == pytest.approx(4556.0 / np.sqrt(1.02), abs=0.05)
        assert predict_f(model, 4496.0 * 1.02) == pytest.approx(4511.1, abs=0.1)

    def test_monotone_decreasing(self):
        model = exact_model()
        r = np.linspace(3000, 9000, 50)
        f = predict_f(model, r)
        assert np.all(np.diff(f) < 0)

    def test_domain_errors(self):
        model = exact_model()
        with pytest.raises(ValidationError):
            predict_f(model, -1.0)
        with pytest.raises(ValidationError):
            invert_R(model, 0.0)


class TestTargetAssignment:
    def test_zero_budget(self):
        model = exact_model()
        f = predict_f(model, 4587.8)
        assert assign_target_R(model, f, aging_budget=0.0) == pytest.approx(4587.8, rel=1e-9)

    def test_two_percent_budget(self):
        model = exact_model()
        f = predict_f(model, 4587.8)
        assert assign_target_R(model, f, aging_budget=0.02) == pytest.approx(4496.0, abs=0.1)

    def test_budget_cancels_aging(self):
        model = exact_model()
        f_design = predict_f(model, 5000.0)
        rt = assign_target_R(model, f_design, aging_budget=0.02)
        aged = rt / (1.0 - 0.02)
        assert predict_f(model, aged) == pytest.approx(f_design, rel=1e-9)

    def test_rejects_outside_domain(self):
        model = exact_model()
        with pytest.raises(ValidationError, match="outside the calibrated domain"):
            assign_target_R(model, predict_f(model, 20000.0))


class TestFreqEquivSigma:
    def test_paper_scale_value(self):
        model = exact_model(alpha=0.5)
        assert freq_equiv_sigma(model, 4556.0, 0.0034) == pytest.approx(7.745, abs=0.001)

    def test_zero_sigma(self):
        assert freq_equiv_sigma(exact_model(), 4556.0, 0.0) == 0.0

    def test_matches_finite_difference(self):
        model = exact_model(alpha=0.51, beta=280000.0)
        r = 4500.0
        f = predict_f(model, r)
        for sig_rel in (1e-4, 1e-3, 1e-2):
            h = sig_rel * r
            fd = (predict_f(model, r - h) - predict_f(model, r + h)) / 2.0
            assert freq_equiv_sigma(model, f, sig_rel) == pytest.approx(fd, rel=1e-3)


def _relaxation_trace(noise=0.0, n=500, seed=0):
    t = np.geomspace(0.02, 15.0, n)
    y = np.array([relaxation_shape(x) for x in t])
    if noise:
        rng = np.random.default_rng(seed)
        y = y * np.exp(rng.normal(0, noise, y.size))
    return t, y


def _segmented_log_sse(t, y, fit):
    edges = (-np.inf, *fit["breakpoints_hr"], np.inf)
    sse = 0.0
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        mask = (t > lo) & (t <= hi)
        pred = np.log(fit["amplitudes"][k]) + fit["exponents"][k] * np.log(t[mask])
        sse += float(np.sum((np.log(y[mask]) - pred) ** 2))
    return sse


def _grid_search_oracle(t_hr, delta_r, n_candidates=50):
    """The automatic breakpoint search as a plain nested loop: fit every
    grid pair as given breakpoints and keep the first with the smallest
    residual."""
    order = np.argsort(t_hr)
    t = np.asarray(t_hr, dtype=float)[order]
    y = np.asarray(delta_r, dtype=float)[order]
    grid = np.geomspace(t[0], t[-1], n_candidates + 2)[1:-1]
    best = None
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            try:
                fit = fit_segmented_power_law(t, y, breakpoints=(grid[i], grid[j]))
            except ValidationError:
                continue
            sse = _segmented_log_sse(t, y, fit)
            if best is None or sse < best[0]:
                best = (sse, fit)
    return best[1]


def _polyfit_oracle(t_hr, delta_r, breakpoints):
    """Exponents and amplitudes from ``np.polyfit`` on each segment's points
    alone: the independent oracle for the prefix-sum fits."""
    t, y = np.asarray(t_hr, dtype=float), np.asarray(delta_r, dtype=float)
    edges = (-np.inf, *breakpoints, np.inf)
    masks = [(t > lo) & (t <= hi) for lo, hi in zip(edges, edges[1:])]
    fits = [np.polyfit(np.log(t[m]), np.log(y[m]), 1) for m in masks]
    return [float(s) for s, _ in fits], [float(np.exp(c)) for _, c in fits]


def _demo_trace():
    with open(DATA_DIR / "relaxation_demo.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["t_hr"]) for r in rows], [float(r["delta_r_ohm"]) for r in rows]


class TestSegmentedFit:
    def test_noiseless_given_breakpoints(self):
        t, y = _relaxation_trace()
        fit = fit_segmented_power_law(t, y, breakpoints=[0.2, 2.0])
        for got, want in zip(fit["exponents"], (0.30, 0.24, 0.16)):
            assert got == pytest.approx(want, abs=1e-6)
        assert fit["continuity_residual"] < 1e-9

    def test_noisy_given_breakpoints(self):
        t, y = _relaxation_trace(noise=0.02)
        fit = fit_segmented_power_law(t, y, breakpoints=[0.2, 2.0])
        for got, want in zip(fit["exponents"], (0.30, 0.24, 0.16)):
            assert got == pytest.approx(want, abs=0.02)

    def test_auto_changepoints(self):
        t, y = _relaxation_trace(noise=0.02)
        fit = fit_segmented_power_law(t, y)
        assert 0.2 / 1.5 <= fit["breakpoints_hr"][0] <= 0.2 * 1.5
        assert 2.0 / 1.5 <= fit["breakpoints_hr"][1] <= 2.0 * 1.5

    def test_insufficient_points(self):
        with pytest.raises(ValidationError):
            fit_segmented_power_law([0.1, 1.0, 10.0], [1.0, 2.0, 3.0], breakpoints=[0.5, 5.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        t, y = _relaxation_trace(n=40)
        spoiled = np.arange(40) == 7
        with pytest.raises(ValidationError, match="finite"):
            fit_segmented_power_law(np.where(spoiled, bad, t), y)
        with pytest.raises(ValidationError, match="finite"):
            fit_segmented_power_law(t, np.where(spoiled, bad, y))


class TestSegmentedFitOracle:
    """The prefix-sum search must pick exactly the grid pair the nested
    loop picks, unless pairs tie to rounding."""

    @pytest.mark.parametrize("seed", range(20))
    def test_noisy_traces(self, seed):
        t, y = _relaxation_trace(noise=0.02, seed=seed)
        assert fit_segmented_power_law(t, y) == _grid_search_oracle(t, y)

    def test_noiseless_trace(self):
        t, y = _relaxation_trace()
        assert fit_segmented_power_law(t, y) == _grid_search_oracle(t, y)

    def test_bundled_trace(self):
        t, y = _demo_trace()
        assert fit_segmented_power_law(t, y) == _grid_search_oracle(t, y)

    def test_short_trace(self):
        t, y = _relaxation_trace(noise=0.02, n=40, seed=99)
        assert fit_segmented_power_law(t, y) == _grid_search_oracle(t, y)

    def test_every_pair_tied(self):
        # a single exact power law fits every pair to rounding, so any pair
        # is optimal: the chosen one must match the oracle's residual to
        # rounding of the trace's total log variation
        t = np.geomspace(0.1, 10.0, 80)
        y = 3.0 * t**0.3
        v = np.log(y)
        slack = 1e-9 * float(np.sum((v - v.mean()) ** 2))
        got = _segmented_log_sse(t, y, fit_segmented_power_law(t, y))
        assert got <= _segmented_log_sse(t, y, _grid_search_oracle(t, y)) + slack

    def test_unsorted_input(self):
        t, y = _relaxation_trace(noise=0.02, seed=3)
        perm = np.random.default_rng(0).permutation(t.size)
        assert fit_segmented_power_law(t[perm], y[perm]) == _grid_search_oracle(t, y)

    def test_no_valid_pair(self):
        with pytest.raises(ValidationError):
            fit_segmented_power_law([0.1, 0.2, 0.3, 1.0, 2.0], [1.0, 1.1, 1.2, 1.5, 1.7])

    def test_repeated_times(self):
        # three equal points at 0.02 hr, then two exact power laws: cutting
        # just after the three would fit them exactly, but a segment with one
        # distinct time has no slope, so every such pair is skipped
        s = np.geomspace(0.05, 10.0, 30)
        t = np.concatenate([[0.02] * 3, s])
        y = np.concatenate([[1.0] * 3, np.where(s < 1.0, s**0.3, s**0.15)])
        fit = fit_segmented_power_law(t, y)
        assert fit == _grid_search_oracle(t, y)
        assert fit["breakpoints_hr"][0] > 0.05


TRACES = {
    "demo": _demo_trace,
    "noisy": lambda: _relaxation_trace(noise=0.02, seed=5),
    "noiseless": _relaxation_trace,
    "short": lambda: _relaxation_trace(noise=0.02, n=40, seed=99),
}


class TestFitsMatchPolyfit:
    """Every fit agrees with ``np.polyfit`` on each segment alone to 1e-12."""

    @pytest.mark.parametrize("breakpoints", [None, (0.2, 2.0)], ids=["searched", "given"])
    @pytest.mark.parametrize("trace", list(TRACES))
    def test_segmented(self, trace, breakpoints):
        t, y = TRACES[trace]()
        fit = fit_segmented_power_law(t, y, breakpoints)
        exps, amps = _polyfit_oracle(t, y, fit["breakpoints_hr"])
        assert fit["exponents"] == pytest.approx(exps, rel=1e-12, abs=0)
        assert fit["amplitudes"] == pytest.approx(amps, rel=1e-12, abs=0)

    def test_power_law(self):
        r = np.linspace(3500, 6500, 60)
        f = 280000.0 * r**-0.51 + np.random.default_rng(8).normal(0, 12.4, 60)
        slope, intercept = np.polyfit(np.log(r), np.log(f), 1)
        model = fit_power_law(r, f)
        assert model.alpha == pytest.approx(-slope, rel=1e-12, abs=0)
        assert model.beta == pytest.approx(np.exp(intercept), rel=1e-12, abs=0)
