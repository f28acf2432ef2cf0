"""Stochastic model of a tunable-transmon qubit's room-temperature resistance.

Covers the full life of one junction pair viewed as a single lumped
resistance: as-fabricated spread, the pulse-step law used during active
trimming, post-pulse relaxation over hours, and the slow aging
continuation over days. Relaxation and aging are one continuous
piecewise power-law trajectory; the regimes differ only in exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ValidationError, check

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


@dataclass(frozen=True)
class RelaxationProfile:
    """Continuous piecewise power-law shape of post-pulse resistance drift.

    Within regime k the unnormalized trajectory is A_k * t**exponents[k];
    amplitudes are glued for continuity at each breakpoint and the whole
    curve is normalized so shape(probe_delay_hr) == 1. The last regime
    (beyond the final breakpoint) carries day-scale aging.
    """

    breakpoints_hr: tuple[float, ...] = (0.2, 2.0, 24.0)
    exponents: tuple[float, ...] = (0.30, 0.24, 0.16, 0.11)
    probe_delay_hr: float = 5.0

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints_hr)
        ex = tuple(float(e) for e in self.exponents)
        object.__setattr__(self, "breakpoints_hr", bp)
        object.__setattr__(self, "exponents", ex)
        if len(ex) != len(bp) + 1:
            raise ValidationError(
                f"need len(exponents) == len(breakpoints)+1, got {len(ex)} vs {len(bp)}"
            )
        if not all(0 < b < math.inf for b in bp) or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValidationError(f"breakpoints must be finite, positive and increasing: {bp}")
        if any(not 0 < e < 1 for e in ex):
            raise ValidationError(f"exponents must lie in (0, 1): {ex}")
        check("probe_delay_hr", self.probe_delay_hr, gt=0)

    @cached_property
    def _amplitudes(self) -> tuple[float, ...]:
        amps = [1.0]
        for k, b in enumerate(self.breakpoints_hr):
            amps.append(amps[k] * b ** (self.exponents[k] - self.exponents[k + 1]))
        return tuple(amps)

    @cached_property
    def _norm(self) -> float:
        return self._shape_unnormalized(self.probe_delay_hr)

    def _shape_unnormalized(self, t_hr: float) -> float:
        if t_hr == 0:
            return 0.0
        k = 0
        for b in self.breakpoints_hr:
            if t_hr <= b:
                break
            k += 1
        return self._amplitudes[k] * t_hr ** self.exponents[k]

    def shape(self, t_hr: float) -> float:
        """Normalized trajectory s(t): s(0)=0, s(probe_delay_hr)=1."""
        return self._shape_unnormalized(check("t_hr", t_hr, ge=0)) / self._norm


class StepKind(Enum):
    EXPONENTIAL = "exponential"
    UNIFORM = "uniform"
    CONSTANT = "constant"


@dataclass(frozen=True)
class StepModel:
    """Per-pulse resistance increment law.

    The default is exponential with mean 1.9 Ohm: renewal overshoot of
    exponential steps is again exponential with the same mean, which
    reproduces the observed last-pulse overshoot statistics with a
    single parameter.
    """

    kind: StepKind = StepKind.EXPONENTIAL
    mean_step: float = 1.9
    low: float | None = None
    high: float | None = None

    def __post_init__(self):
        check("mean_step", self.mean_step, gt=0)
        if self.kind is StepKind.UNIFORM:
            lo = check("low", 0.0 if self.low is None else self.low, ge=0)
            hi = check("high", 2.0 * self.mean_step if self.high is None else self.high, gt=lo)
            object.__setattr__(self, "low", lo)
            object.__setattr__(self, "high", hi)

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind is StepKind.CONSTANT:
            return np.full(n, self.mean_step)
        if self.kind is StepKind.UNIFORM:
            return rng.uniform(self.low, self.high, size=n)
        return rng.exponential(self.mean_step, size=n)


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


def relaxation_delta(
    profile: RelaxationProfile, rho: float, r_stop: float, t_hr: float
) -> float:
    """Resistance gained by relaxation t_hr after the last pulse.

    Equals rho * r_stop * s(t); by normalization the full per-qubit
    relaxation fraction is realized exactly at the probe delay.
    """
    check("rho", rho, ge=0)
    check("r_stop", r_stop, gt=0)
    return rho * r_stop * profile.shape(t_hr)

