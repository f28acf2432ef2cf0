"""Stochastic model of a tunable-transmon qubit's room-temperature resistance.

Covers the full life of one junction pair viewed as a single lumped
resistance: as-fabricated spread, per-pulse increments during active
trimming, post-pulse relaxation over hours, and the slow aging
continuation over days. Relaxation and aging are one continuous
piecewise power-law trajectory; the regimes differ only in exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ValidationError

# Per-qubit relaxation fraction: fraction of the last-pulse resistance
# recovered by relaxation between the final pulse and the probe.
RELAX_FRACTION_MEAN = 0.0289
RELAX_FRACTION_SIGMA = 0.0030


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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
        if not self.design_resistance > 0:
            raise ValidationError(
                f"design_resistance must be > 0, got {self.design_resistance}"
            )
        if self.sigma_frac < 0:
            raise ValidationError(f"sigma_frac must be >= 0, got {self.sigma_frac}")

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
        if any(b <= 0 for b in bp) or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValidationError(f"breakpoints must be positive and increasing: {bp}")
        if any(not 0 < e < 1 for e in ex):
            raise ValidationError(f"exponents must lie in (0, 1): {ex}")
        if not self.probe_delay_hr > 0:
            raise ValidationError(f"probe_delay_hr must be > 0, got {self.probe_delay_hr}")

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
        if t_hr < 0:
            raise ValidationError(f"time must be >= 0, got {t_hr}")
        return self._shape_unnormalized(t_hr) / self._norm


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
        if not self.mean_step > 0:
            raise ValidationError(f"mean_step must be > 0, got {self.mean_step}")
        if self.kind is StepKind.UNIFORM:
            lo = 0.0 if self.low is None else self.low
            hi = 2.0 * self.mean_step if self.high is None else self.high
            if not (0 <= lo < hi):
                raise ValidationError(f"uniform bounds must satisfy 0 <= low < high: {lo}, {hi}")
            object.__setattr__(self, "low", lo)
            object.__setattr__(self, "high", hi)

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind is StepKind.CONSTANT:
            return self.mean_step
        if self.kind is StepKind.UNIFORM:
            return float(rng.uniform(self.low, self.high))
        return float(rng.exponential(self.mean_step))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind is StepKind.CONSTANT:
            return np.full(n, self.mean_step)
        if self.kind is StepKind.UNIFORM:
            return rng.uniform(self.low, self.high, size=n)
        return rng.exponential(self.mean_step, size=n)


@dataclass(frozen=True)
class MeasurementModel:
    """Room-temperature probe noise; the default is a noiseless probe."""

    noise_sigma: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class JunctionState:
    """One qubit's true resistance and its trajectory bookkeeping.

    ``resistance`` always equals ``resistance_at_last_pulse`` plus the
    relaxation accumulated over ``hours_since_last_pulse``.
    """

    resistance: float
    relax_fraction: float
    resistance_at_last_pulse: float
    hours_since_last_pulse: float = 0.0
    pulse_count: int = 0

    def __post_init__(self):
        if not self.resistance > 0:
            raise ValidationError(f"resistance must be > 0, got {self.resistance}")
        if self.relax_fraction < 0:
            raise ValidationError(f"relax_fraction must be >= 0, got {self.relax_fraction}")


def sample_fabricated(
    fab: FabricationModel,
    seed,
    relax_mean: float = RELAX_FRACTION_MEAN,
    relax_sigma: float = RELAX_FRACTION_SIGMA,
) -> JunctionState:
    """Draw one as-fabricated junction state.

    Resistance ~ Normal(mean, sigma) truncated at > 0; the per-qubit
    relaxation fraction is an independent truncated-normal draw.
    """
    rng = as_rng(seed)
    while True:
        r = rng.normal(fab.mean_resistance, fab.sigma_resistance)
        if r > 0:
            break
    while True:
        rho = rng.normal(relax_mean, relax_sigma)
        if rho >= 0:
            break
    return JunctionState(
        resistance=float(r),
        relax_fraction=float(rho),
        resistance_at_last_pulse=float(r),
    )


def apply_pulse(state: JunctionState, step: StepModel, seed) -> JunctionState:
    """Apply one trimming pulse: resistance jumps up, clock resets."""
    rng = as_rng(seed)
    r = state.resistance + step.sample(rng)
    return replace(
        state,
        resistance=r,
        resistance_at_last_pulse=r,
        hours_since_last_pulse=0.0,
        pulse_count=state.pulse_count + 1,
    )


def relaxation_delta(
    profile: RelaxationProfile, rho: float, r_stop: float, t_hr: float
) -> float:
    """Resistance gained by relaxation t_hr after the last pulse.

    Equals rho * r_stop * s(t); by normalization the full per-qubit
    relaxation fraction is realized exactly at the probe delay.
    """
    if t_hr < 0:
        raise ValidationError(f"time must be >= 0, got {t_hr}")
    if rho < 0:
        raise ValidationError(f"rho must be >= 0, got {rho}")
    if not r_stop > 0:
        raise ValidationError(f"r_stop must be > 0, got {r_stop}")
    return rho * r_stop * profile.shape(t_hr)


def advance_time(
    state: JunctionState, profile: RelaxationProfile, dt_hr: float
) -> JunctionState:
    """Advance the clock; resistance follows the relaxation trajectory."""
    if dt_hr < 0:
        raise ValidationError(f"dt_hr must be >= 0, got {dt_hr}")
    t = state.hours_since_last_pulse + dt_hr
    r = state.resistance_at_last_pulse + relaxation_delta(
        profile, state.relax_fraction, state.resistance_at_last_pulse, t
    )
    return replace(state, resistance=r, hours_since_last_pulse=t)


def measure_resistance(state: JunctionState, meas: MeasurementModel, seed) -> float:
    """Probe the resistance; adds Gaussian noise, never mutates state."""
    if meas.noise_sigma == 0:
        return state.resistance
    rng = as_rng(seed)
    return state.resistance + float(rng.normal(0.0, meas.noise_sigma))
