"""Resistance-to-frequency calibration and small closed-form utilities.

The core object is the empirical power law f = beta * R**(-alpha) fitted
in log-log space, used for prediction, inversion, target assignment with
an aging budget, and propagation of resistance spread into frequency
spread. Segmented power-law fitting (for relaxation-trace analysis) lives
here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError, check

# The automatic breakpoint search tries every pair of FIT_CANDIDATES
# log-spaced times, and every segment needs FIT_MIN_POINTS points.
FIT_CANDIDATES = 50
FIT_MIN_POINTS = 3
# Fraction below the on-frequency resistance that a target aims for, so
# that the resistance's aging drift after tuning lands it on frequency.
AGING_BUDGET = 0.02


@dataclass(frozen=True)
class PowerLawModel:
    """f = beta * R**(-alpha), with the fit's residual spread in MHz."""

    beta: float
    alpha: float
    residual_sigma: float
    r_min: float
    r_max: float

    def __post_init__(self):
        check("beta", self.beta, gt=0)
        check("alpha", self.alpha, gt=0)


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
    if not np.all(np.isfinite(r) & (r > 0)):
        raise ValidationError("resistance must be finite and positive")
    out = model.beta * r**(-model.alpha)
    return float(out) if out.ndim == 0 else out


def invert_R(model: PowerLawModel, f):
    """Resistance (Ohm) whose predicted frequency is f (MHz)."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f) & (f > 0)):
        raise ValidationError("frequency must be finite and positive")
    with np.errstate(over="ignore"):
        out = (model.beta / f) ** (1.0 / model.alpha)
    if not np.all(np.isfinite(out)):
        raise ValidationError(
            f"inverted resistance overflows for beta={model.beta}, alpha={model.alpha}"
        )
    return float(out) if out.ndim == 0 else out


def assign_target_R(
    model: PowerLawModel, f_design: float, aging_budget: float = AGING_BUDGET
) -> float:
    """Target resistance for a design frequency, deflated by the aging
    budget so post-tuning drift lands the qubit on frequency."""
    check("aging_budget", aging_budget, ge=0, lt=1)
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
    return model.alpha * check("f_pred", f_pred, gt=0) * check("sigma_r_rel", sigma_r_rel, ge=0)


def _fit_loglog_segment(t, y):
    slope, intercept = np.polyfit(np.log(t), np.log(y), 1)
    return float(slope), float(np.exp(intercept))


def fit_segmented_power_law(t_hr, delta_r, breakpoints=None) -> SegmentedPowerLaw:
    """Per-segment log-log least squares on a relaxation trace.

    With ``breakpoints=None`` a two-changepoint search runs over every
    pair of a log-spaced candidate grid, minimizing the total squared
    log-residual. Prefix sums give each pair's residual in closed form,
    the first pair in grid order with the smallest one wins, and only
    that pair is fitted.
    """
    t = np.asarray(t_hr, dtype=float)
    y = np.asarray(delta_r, dtype=float)
    if t.shape != y.shape or t.ndim != 1 or t.size < FIT_MIN_POINTS:
        raise FitError(f"need equal-length 1-D t_hr and delta_r of >= {FIT_MIN_POINTS} points")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise FitError("times and resistance changes must be finite")
    if np.any(t <= 0) or np.any(y <= 0):
        raise FitError("times and resistance changes must be positive")
    order = np.argsort(t)
    t, y = t[order], y[order]

    if breakpoints is not None:
        bps = tuple(float(b) for b in breakpoints)
        return _fit_with_breakpoints(t, y, bps)

    grid = np.geomspace(t[0], t[-1], FIT_CANDIDATES + 2)[1:-1]
    i, j = np.triu_indices(len(grid), k=1)
    cut = np.searchsorted(t, grid, side="right")
    bounds = np.stack([np.zeros_like(i), cut[i], cut[j], np.full_like(i, len(t))])
    valid = np.all(np.diff(bounds, axis=0) >= FIT_MIN_POINTS, axis=0)
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
    k = int(score.argmin())
    return _fit_with_breakpoints(t, y, (float(grid[i[k]]), float(grid[j[k]])))


def _fit_with_breakpoints(t, y, bps) -> SegmentedPowerLaw:
    if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
        raise FitError(f"breakpoints must be increasing: {bps}")
    edges = (-np.inf, *bps, np.inf)
    exponents, amplitudes = [], []
    for lo, hi in zip(edges, edges[1:]):
        mask = (t > lo) & (t <= hi)
        if mask.sum() < FIT_MIN_POINTS:
            raise FitError(
                f"segment ({lo}, {hi}] has {int(mask.sum())} points, need {FIT_MIN_POINTS}"
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

