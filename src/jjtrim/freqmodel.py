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

from .errors import ValidationError, check, floats

# The automatic breakpoint search tries every pair of FIT_CANDIDATES
# log-spaced times, and every segment needs FIT_MIN_POINTS points.
FIT_CANDIDATES = 50
FIT_MIN_POINTS = 3
# Fraction below the on-frequency resistance that a target aims for, so
# that the resistance's aging drift after tuning lands it on frequency.
AGING_BUDGET = 0.02


@dataclass(frozen=True)
class PowerLawModel:
    """f = beta * R**(-alpha) on [r_min, r_max] Ohm, with the fit's residual
    spread in MHz; the fields, in order, are the keys of ``calibration.json``."""

    beta: float
    alpha: float
    residual_sigma_mhz: float
    r_min: float
    r_max: float

    def __post_init__(self):
        check("beta", self.beta, gt=0)
        check("alpha", self.alpha, gt=0)
        check("residual_sigma_mhz", self.residual_sigma_mhz, ge=0)
        check("r_min", self.r_min, gt=0)
        check("r_max", self.r_max, ge=self.r_min)


def fit_power_law(r, f) -> PowerLawModel:
    """Least-squares fit of log f against log R, from columns of resistance
    (Ohm) and frequency (MHz).

    Two exact points determine the law exactly; the residual spread is
    reported in linear MHz against the fitted curve.
    """
    r, f = _sorted_columns(r, f, "R and f", 2)
    if r[0] == r[-1]:
        raise ValidationError(f"need >= 2 distinct resistances, got only {r[0]}")
    slope, amp, _ = _line_fits(np.log(r), np.log(f), [0, len(r)])
    alpha, beta = -float(slope[0]), float(amp[0])
    if alpha <= 0:
        raise ValidationError(f"fitted exponent is not positive (alpha={alpha})")
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = float(np.std(f - beta * r**(-alpha)))
    return PowerLawModel(beta, alpha, sigma, r_min=float(r[0]), r_max=float(r[-1]))


def predict_f(model: PowerLawModel, r):
    """Predicted frequency (MHz) at resistance r (Ohm)."""
    r = floats(r)
    if not np.all(np.isfinite(r) & (r > 0)):
        raise ValidationError("resistance must be finite and positive")
    out = model.beta * r**(-model.alpha)
    return float(out) if out.ndim == 0 else out


def invert_R(model: PowerLawModel, f):
    """Resistance (Ohm) whose predicted frequency is f (MHz)."""
    f = floats(f)
    if not np.all(np.isfinite(f) & (f > 0)):
        raise ValidationError("frequency must be finite and positive")
    out = _inverse(model, f)
    if not np.all(np.isfinite(out)):
        raise ValidationError(
            f"inverted resistance overflows for beta={model.beta}, alpha={model.alpha}"
        )
    return float(out) if out.ndim == 0 else out


def _inverse(model: PowerLawModel, f):
    with np.errstate(all="ignore"):
        return (model.beta / f) ** (1.0 / model.alpha)


def assign_target_R(model: PowerLawModel, f_design, aging_budget: float = AGING_BUDGET):
    """Target resistances for a column of design frequencies (a float for one),
    deflated by the aging budget; the first faulty one raises what it raises alone."""
    check("aging_budget", aging_budget, ge=0, lt=1)
    f = floats(f_design)
    r = _inverse(model, f)
    ok = np.isfinite(f) & (f > 0) & np.isfinite(r) & (model.r_min <= r) & (r <= model.r_max)
    if not np.all(ok):
        f = f.flat[np.argmin(ok)].item()
        raise ValidationError(
            f"inverted resistance {invert_R(model, f):.1f} Ohm for {f} MHz is outside the "
            f"calibrated domain [{model.r_min:.1f}, {model.r_max:.1f}] Ohm"
        )
    out = r * (1.0 - aging_budget)
    return float(out) if out.ndim == 0 else out


def freq_equiv_sigma(model: PowerLawModel, f_pred: float, sigma_r_rel: float) -> float:
    """Frequency spread equivalent to a relative resistance spread.

    Analytic derivative of the power law: |df/dR| * sigma_R =
    alpha * f * sigma_R/R.
    """
    return model.alpha * check("f_pred", f_pred, gt=0) * check("sigma_r_rel", sigma_r_rel, ge=0)


def _sorted_columns(u, w, names, min_points):
    """u and w as float arrays sorted by u, once both are equal-length 1-D
    columns of at least ``min_points`` finite, positive values."""
    u, w = floats(u), floats(w)
    if u.shape != w.shape or u.ndim != 1 or u.size < min_points:
        raise ValidationError(f"need equal-length 1-D {names} of >= {min_points} points")
    if not np.all(np.isfinite([u, w]) & (np.array([u, w]) > 0)):
        raise ValidationError(f"{names} must be finite and positive")
    order = np.argsort(u)
    return u[order], w[order]


def _line_fits(x, v, bounds):
    """Least-squares lines v = log(amp) + slope * x over the index ranges
    ``bounds[k]:bounds[k + 1]`` (down every column of a 2-D ``bounds``):
    arrays of slope, amp and squared residual, one row per segment.

    The sums run over x and v centred on their means over all of x, and
    come for every segment from one prefix sum each. A segment whose x do
    not vary explains nothing; a short one far from the means loses digits
    (1e-12 relative on a trace spanning seven decades of time).
    """
    xm, vm = x.mean(), v.mean()
    x, v = x - xm, v - vm
    prefix = np.zeros((6, len(x) + 1))
    prefix[:, 1:] = np.cumsum([np.ones_like(x), x, v, x * x, x * v, v * v], axis=1)
    n, sx, sv, sxx, sxv, svv = prefix[:, bounds[1:]] - prefix[:, bounds[:-1]]
    cxx, cxv = sxx - sx * sx / n, sxv - sx * sv / n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        explained = np.where(cxx > 0, cxv * cxv / cxx, 0.0)
        slope = cxv / cxx
        amp = np.exp(vm + sv / n - slope * (xm + sx / n))
    return slope, amp, svv - sv * sv / n - explained


def fit_segmented_power_law(t_hr, delta_r, breakpoints=None) -> dict:
    """Per-segment log-log least squares on a relaxation trace, returned as
    the ``relaxation_fit.json`` dict: piecewise y = amp_k * t**exp_k between
    ``breakpoints_hr``, with lists of the ``exponents`` and ``amplitudes``
    and the ``continuity_residual``, the largest relative jump between
    adjacent segment fits at their shared breakpoint.

    Every segment needs ``FIT_MIN_POINTS`` points and two distinct times.
    With ``breakpoints=None`` a two-changepoint search runs over every
    pair of a log-spaced candidate grid that meets that rule: prefix sums
    give each pair's total squared log-residual, and the first pair in grid
    order with the smallest one wins. Given and searched breakpoints are
    fitted by the same prefix sums.
    """
    t, y = _sorted_columns(t_hr, delta_r, "t_hr and delta_r", FIT_MIN_POINTS)
    if breakpoints is None:
        grid = np.geomspace(t[0], t[-1], FIT_CANDIDATES + 2)[1:-1]
        bps = grid[np.stack(np.triu_indices(len(grid), k=1))]
    else:
        bps = np.array(breakpoints, dtype=float).reshape(-1, 1)
        if not (np.isfinite(bps).all() and np.all(bps[1:] > bps[:-1])):
            raise ValidationError(f"breakpoints must be finite and increasing: {bps[:, 0].tolist()}")
    # One column of segment bounds per breakpoint set.
    cut = np.searchsorted(t, bps, side="right")
    bounds = np.vstack([np.zeros_like(cut[:1]), cut, np.full_like(cut[:1], len(t))])
    lo, hi = bounds[:-1], bounds[1:]
    # A segment whose first and last times are equal has no slope.
    valid = (hi - lo >= FIT_MIN_POINTS) & (t[lo.clip(max=len(t) - 1)] < t[hi - 1])
    if breakpoints is not None and not valid.all():
        k = int(valid[:, 0].argmin())
        edges, count = (-np.inf, *bps[:, 0].tolist(), np.inf), int(hi[k, 0] - lo[k, 0])
        why = (f"{count} points, need {FIT_MIN_POINTS}" if count < FIT_MIN_POINTS
               else f"one distinct time, {t[lo[k, 0]]}")
        raise ValidationError(f"segment ({edges[k]}, {edges[k + 1]}] has {why}")
    keep = valid.all(axis=0)
    if not keep.any():
        raise ValidationError("no breakpoint pair leaves enough points and times per segment")
    bps, bounds = bps[:, keep], bounds[:, keep]
    slope, amp, sse = _line_fits(np.log(t), np.log(y), bounds)
    k = int(sse.sum(axis=0).argmin())
    b, exps, amps = bps[:, k], slope[:, k], amp[:, k]
    with np.errstate(over="ignore", invalid="ignore"):
        left, right = amps[:-1] * b**exps[:-1], amps[1:] * b**exps[1:]
        residual = float(np.max(np.abs(left - right) / np.maximum(left, right), initial=0.0))
    if not (np.isfinite([*exps, residual]).all() and np.all((amps > 0) & (amps < np.inf))):
        raise ValidationError(f"fit overflows: exponents {exps.tolist()}, amplitudes "
                              f"{amps.tolist()}, continuity residual {residual}")
    return {
        "breakpoints_hr": b.tolist(),
        "exponents": exps.tolist(),
        "amplitudes": amps.tolist(),
        "continuity_residual": residual,
    }
