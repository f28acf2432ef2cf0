"""Stochastic model of a tunable-transmon qubit's room-temperature resistance.

Covers the full life of one junction pair viewed as a single lumped
resistance: as-fabricated spread, post-pulse relaxation over hours, and
the slow aging continuation over days (the pulse-step law lives with the
tuning loop in ``controller``). Relaxation and aging are one continuous
piecewise power-law trajectory; the regimes differ only in exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check

# Per-qubit relaxation fraction: fraction of the last-pulse resistance
# recovered by relaxation between the final pulse and the probe.
RELAX_FRACTION_MEAN = 0.0289
RELAX_FRACTION_SIGMA = 0.0030


@dataclass(frozen=True)
class FabricationModel:
    """As-fabricated resistance distribution for one design value.

    ``mean_offset_frac`` is relative to the design resistance. The
    default -0.107 places the fabricated mean 8.7% below a target set
    at 98% of design (deliberate under-targeting so trimming only ever
    needs to raise resistance).
    """

    design_resistance: float
    mean_offset_frac: float = -0.107
    sigma_frac: float = 0.035

    def __post_init__(self):
        check("design_resistance", self.design_resistance, gt=0)
        check("sigma_frac", self.sigma_frac, ge=0)
        # A mean at or below zero with no spread would never draw a
        # positive resistance, so sample_fabricated would loop forever.
        check("mean_offset_frac", self.mean_offset_frac, gt=-1)

    @property
    def mean_resistance(self) -> float:
        return self.design_resistance * (1.0 + self.mean_offset_frac)

    @property
    def sigma_resistance(self) -> float:
        return self.design_resistance * self.sigma_frac


# Post-pulse drift is one continuous piecewise power law: within regime k
# the unnormalized trajectory is A_k * t**RELAX_EXPONENTS[k], amplitudes glued
# for continuity at each breakpoint, and the last regime (beyond the final
# breakpoint) carries day-scale aging. The curve is normalized to 1 at the
# probe delay.
RELAX_BREAKPOINTS_HR = (0.2, 2.0, 24.0)
RELAX_EXPONENTS = (0.30, 0.24, 0.16, 0.11)
PROBE_DELAY_HR = 5.0


def _relax_amplitudes():
    amps = [1.0]
    for k, b in enumerate(RELAX_BREAKPOINTS_HR):
        amps.append(amps[k] * b ** (RELAX_EXPONENTS[k] - RELAX_EXPONENTS[k + 1]))
    return tuple(amps)


_RELAX_AMPLITUDES = _relax_amplitudes()


def _shape_unnormalized(t_hr: float) -> float:
    if t_hr == 0:
        return 0.0
    k = 0
    for b in RELAX_BREAKPOINTS_HR:
        if t_hr <= b:
            break
        k += 1
    return _RELAX_AMPLITUDES[k] * t_hr ** RELAX_EXPONENTS[k]


_RELAX_NORM = _shape_unnormalized(PROBE_DELAY_HR)


def relaxation_shape(t_hr: float) -> float:
    """Normalized trajectory s(t): s(0)=0, s(PROBE_DELAY_HR)=1."""
    return _shape_unnormalized(check("t_hr", t_hr, ge=0)) / _RELAX_NORM


@dataclass(frozen=True)
class JunctionState:
    """One qubit's true resistance and the fraction of it that relaxation
    adds between its last pulse and the probe."""

    resistance: float
    relax_fraction: float

    def __post_init__(self):
        check("resistance", self.resistance, gt=0)
        check("relax_fraction", self.relax_fraction, ge=0)


def sample_fabricated(fab: FabricationModel, seed) -> JunctionState:
    """Draw one as-fabricated junction state.

    Resistance ~ Normal(mean, sigma) truncated at > 0; the per-qubit
    relaxation fraction is an independent truncated-normal draw.
    """
    rng = np.random.default_rng(seed)
    while True:
        r = rng.normal(fab.mean_resistance, fab.sigma_resistance)
        if r > 0:
            break
    while True:
        rho = rng.normal(RELAX_FRACTION_MEAN, RELAX_FRACTION_SIGMA)
        if rho >= 0:
            break
    return JunctionState(resistance=float(r), relax_fraction=float(rho))


def relaxation_delta(rho: float, r_stop: float, t_hr: float) -> float:
    """Resistance gained by relaxation t_hr after the last pulse.

    Equals rho * r_stop * s(t); by normalization the full per-qubit
    relaxation fraction is realized exactly at the probe delay.
    """
    check("rho", rho, ge=0)
    check("r_stop", r_stop, gt=0)
    return rho * r_stop * relaxation_shape(t_hr)

