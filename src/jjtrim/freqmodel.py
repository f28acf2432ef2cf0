"""Resistance-to-frequency calibration and small closed-form utilities.

The core object is the empirical power law f = beta * R**(-alpha) fitted
in log-log space, used for prediction, inversion, target assignment with
an aging budget, and propagation of resistance spread into frequency
spread. Segmented power-law fitting (for relaxation-trace analysis) and
Gaussian fitting live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError

# Residual term for deviations introduced between tuning and cooldown
# (chip cleaning, packaging). Chosen so that composing it with the
# resistance-tuning, prediction, and measurement terms reproduces the
# empirically observed on-chip frequency spread.
DEFAULT_PRECOOLDOWN_SIGMA_MHZ = 10.5


@dataclass(frozen=True)
class PowerLawModel:
    """f = beta * R**(-alpha), with the fit's residual spread in MHz."""

    beta: float
    alpha: float
    residual_sigma: float
    r_min: float
    r_max: float

    def __post_init__(self):
        if not self.beta > 0 or not self.alpha > 0:
            raise ValidationError(
                f"beta and alpha must be > 0, got beta={self.beta}, alpha={self.alpha}"
            )


@dataclass(frozen=True)
class SegmentedPowerLaw:
    """Piecewise y = amp_k * t**exp_k between breakpoints.

    ``continuity_residual`` is the largest relative jump between
    adjacent segment fits evaluated at their shared breakpoint.
    """

    breakpoints: tuple[float, ...]
    exponents: tuple[float, ...]
    amplitudes: tuple[float, ...]
    continuity_residual: float


@dataclass(frozen=True)
class GaussianFit:
    mu: float
    sigma: float
    sample_count: int


def fit_power_law(points) -> PowerLawModel:
    """Least-squares fit of log f against log R.

    Two exact points determine the law exactly; the residual spread is
    reported in linear MHz against the fitted curve.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise FitError(f"need at least 2 (R, f) points, got shape {pts.shape}")
    r, f = pts[:, 0], pts[:, 1]
    if np.any(r <= 0) or np.any(f <= 0):
        raise FitError("all resistances and frequencies must be positive")
    if np.all(r == r[0]):
        raise FitError(f"need >= 2 distinct resistances, got only {r[0]}")
    slope, intercept = np.polyfit(np.log(r), np.log(f), 1)
    alpha = -float(slope)
    beta = float(np.exp(intercept))
    if alpha <= 0:
        raise FitError(f"fitted exponent is not positive (alpha={alpha})")
    residuals = f - beta * r**(-alpha)
    return PowerLawModel(
        beta=beta,
        alpha=alpha,
        residual_sigma=float(np.std(residuals)),
        r_min=float(r.min()),
        r_max=float(r.max()),
    )


def predict_f(model: PowerLawModel, r):
    """Predicted frequency (MHz) at resistance r (Ohm)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValidationError("resistance must be positive")
    out = model.beta * r**(-model.alpha)
    return float(out) if out.ndim == 0 else out


def invert_R(model: PowerLawModel, f):
    """Resistance (Ohm) whose predicted frequency is f (MHz)."""
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValidationError("frequency must be positive")
    with np.errstate(over="ignore"):
        out = (model.beta / f) ** (1.0 / model.alpha)
    if not np.all(np.isfinite(out)):
        raise ValidationError(
            f"inverted resistance overflows for beta={model.beta}, alpha={model.alpha}"
        )
    return float(out) if out.ndim == 0 else out


def assign_target_R(model: PowerLawModel, f_design: float, aging_budget: float = 0.02) -> float:
    """Target resistance for a design frequency, deflated by the aging
    budget so post-tuning drift lands the qubit on frequency."""
    if not (math.isfinite(aging_budget) and 0 <= aging_budget < 1):
        raise ValidationError(f"aging_budget must be finite and in [0, 1), got {aging_budget}")
    r = invert_R(model, f_design)
    if not model.r_min <= r <= model.r_max:
        raise ValidationError(
            f"inverted resistance {r:.1f} Ohm for {f_design} MHz is outside the "
            f"calibrated domain [{model.r_min:.1f}, {model.r_max:.1f}] Ohm"
        )
    return r * (1.0 - aging_budget)


def freq_equiv_sigma(model: PowerLawModel, f_pred: float, sigma_r_rel: float) -> float:
    """Frequency spread equivalent to a relative resistance spread.

    Analytic derivative of the power law: |df/dR| * sigma_R =
    alpha * f * sigma_R/R.
    """
    if f_pred <= 0 or sigma_r_rel < 0:
        raise ValidationError("f_pred must be > 0 and sigma_r_rel >= 0")
    return model.alpha * f_pred * sigma_r_rel


def _fit_loglog_segment(t, y):
    slope, intercept = np.polyfit(np.log(t), np.log(y), 1)
    return float(slope), float(np.exp(intercept))


def fit_segmented_power_law(
    t_hr,
    delta_r,
    breakpoints=None,
    n_candidates: int = 50,
    min_points: int = 3,
) -> SegmentedPowerLaw:
    """Per-segment log-log least squares on a relaxation trace.

    With ``breakpoints=None`` a two-changepoint search runs over every
    pair of a log-spaced candidate grid, minimizing the total squared
    log-residual. Prefix sums give each pair's residual in closed form;
    only the pairs tied with the best within rounding are refitted, and
    the first of them in grid order with the smallest residual wins.
    """
    t = np.asarray(t_hr, dtype=float)
    y = np.asarray(delta_r, dtype=float)
    if t.shape != y.shape or t.ndim != 1 or t.size < min_points:
        raise FitError(f"need equal-length 1-D t_hr and delta_r of >= {min_points} points")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise FitError("times and resistance changes must be finite")
    if np.any(t <= 0) or np.any(y <= 0):
        raise FitError("times and resistance changes must be positive")
    order = np.argsort(t)
    t, y = t[order], y[order]

    if breakpoints is not None:
        bps = tuple(float(b) for b in breakpoints)
        return _fit_with_breakpoints(t, y, bps, min_points)

    grid = np.geomspace(t[0], t[-1], n_candidates + 2)[1:-1]
    i, j = np.triu_indices(len(grid), k=1)
    cut = np.searchsorted(t, grid, side="right")
    bounds = np.stack([np.zeros_like(i), cut[i], cut[j], np.full_like(i, len(t))])
    valid = np.all(np.diff(bounds, axis=0) >= min_points, axis=0)
    if not valid.any():
        raise FitError("no breakpoint pair leaves enough points per segment")
    i, j, bounds = i[valid], j[valid], bounds[:, valid]

    # Sums of (1, x, v, x^2, xv, v^2) over centred logs, for every prefix.
    x, v = np.log(t), np.log(y)
    x, v = x - x.mean(), v - v.mean()
    prefix = np.zeros((6, len(t) + 1))
    prefix[:, 1:] = np.cumsum([np.ones_like(x), x, v, x * x, x * v, v * v], axis=1)
    n, sx, sv, sxx, sxv, svv = prefix[:, bounds[1:]] - prefix[:, bounds[:-1]]
    cxx, cxv = sxx - sx * sx / n, sxv - sx * sv / n
    with np.errstate(divide="ignore", invalid="ignore"):
        explained = np.where(cxx > 0, cxv * cxv / cxx, 0.0)
    score = (svv - sv * sv / n - explained).sum(axis=0)
    # The closed form rounds differently from the refit, so every pair that
    # may tie the best after rounding is refitted.
    near = score <= score.min() * (1 + 1e-6) + 1e-9 * prefix[5, -1]

    fits = [
        _fit_with_breakpoints(t, y, (float(grid[a]), float(grid[b])), min_points)
        for a, b in zip(i[near], j[near])
    ]
    return min(fits, key=lambda fit: _segmented_log_sse(t, y, fit))


def _fit_with_breakpoints(t, y, bps, min_points) -> SegmentedPowerLaw:
    if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
        raise FitError(f"breakpoints must be increasing: {bps}")
    edges = (-np.inf, *bps, np.inf)
    exponents, amplitudes = [], []
    for lo, hi in zip(edges, edges[1:]):
        mask = (t > lo) & (t <= hi)
        if mask.sum() < min_points:
            raise FitError(
                f"segment ({lo}, {hi}] has {int(mask.sum())} points, need {min_points}"
            )
        slope, amp = _fit_loglog_segment(t[mask], y[mask])
        exponents.append(slope)
        amplitudes.append(amp)
    jumps = []
    for k, b in enumerate(bps):
        left = amplitudes[k] * b ** exponents[k]
        right = amplitudes[k + 1] * b ** exponents[k + 1]
        jumps.append(abs(left - right) / max(left, right))
    return SegmentedPowerLaw(
        breakpoints=tuple(bps),
        exponents=tuple(exponents),
        amplitudes=tuple(amplitudes),
        continuity_residual=max(jumps) if jumps else 0.0,
    )


def _segmented_log_sse(t, y, fit: SegmentedPowerLaw) -> float:
    edges = (-np.inf, *fit.breakpoints, np.inf)
    sse = 0.0
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        mask = (t > lo) & (t <= hi)
        pred = np.log(fit.amplitudes[k]) + fit.exponents[k] * np.log(t[mask])
        sse += float(np.sum((np.log(y[mask]) - pred) ** 2))
    return sse


def fit_gaussian(samples) -> GaussianFit:
    """Maximum-likelihood Gaussian fit (population sigma)."""
    x = np.asarray(list(samples), dtype=float)
    if x.size < 2:
        raise FitError(f"need at least 2 samples, got {x.size}")
    return GaussianFit(mu=float(x.mean()), sigma=float(x.std()), sample_count=int(x.size))


def compose_sigma(components) -> float:
    """Root-sum-square of independent spread components."""
    c = np.asarray(list(components), dtype=float)
    if np.any(c < 0):
        raise ValidationError("sigma components must be non-negative")
    return float(np.sqrt(np.sum(c**2)))
