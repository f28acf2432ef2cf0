"""Stochastic model of a tunable-transmon qubit's room-temperature resistance.

Covers the full life of one junction pair viewed as a single lumped
resistance: as-fabricated spread, post-pulse relaxation over hours, and
the slow aging continuation over days (the pulse-step law lives with the
tuning loop in ``controller``). Relaxation and aging are one continuous
piecewise power-law trajectory; the regimes differ only in exponent.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import mul

import numpy as np

from .controller import QubitStreams
from .errors import check

# Per-qubit relaxation fraction: fraction of the last-pulse resistance
# recovered by relaxation between the final pulse and the probe.
RELAX_FRACTION_MEAN = 0.0289
RELAX_FRACTION_SIGMA = 0.0030
# As-fabricated resistance ~ Normal(design * (1 + FAB_MEAN_OFFSET_FRAC),
# design * FAB_SIGMA_FRAC). The offset places the fabricated mean 8.7% below
# a target set at 98% of design: deliberate under-targeting, so trimming
# only ever needs to raise resistance.
FAB_MEAN_OFFSET_FRAC = -0.107
FAB_SIGMA_FRAC = 0.035


# Post-pulse drift is one continuous piecewise power law: within regime k
# the unnormalized trajectory is A_k * t**RELAX_EXPONENTS[k], amplitudes glued
# for continuity at each breakpoint, and the last regime (beyond the final
# breakpoint) carries day-scale aging. The curve is normalized to 1 at the
# probe delay.
RELAX_BREAKPOINTS_HR = (0.2, 2.0, 24.0)
RELAX_EXPONENTS = (0.30, 0.24, 0.16, 0.11)
PROBE_DELAY_HR = 5.0


_RELAX_AMPLITUDES = tuple(accumulate(
    (b ** (e - f) for b, e, f in zip(RELAX_BREAKPOINTS_HR, RELAX_EXPONENTS, RELAX_EXPONENTS[1:])),
    mul, initial=1.0))


def _shape_unnormalized(t_hr: float) -> float:
    # A t_hr on a breakpoint takes the regime below it; 0.0 ** e is 0.0.
    k = bisect_left(RELAX_BREAKPOINTS_HR, t_hr)
    return _RELAX_AMPLITUDES[k] * t_hr ** RELAX_EXPONENTS[k]


_RELAX_NORM = _shape_unnormalized(PROBE_DELAY_HR)


def relaxation_shape(t_hr: float) -> float:
    """Normalized trajectory s(t): s(0)=0, s(PROBE_DELAY_HR)=1."""
    return _shape_unnormalized(check("t_hr", t_hr, ge=0)) / _RELAX_NORM


def sample_fabricated(
    design_resistance: float, master_seed: int, ids
) -> tuple[np.ndarray, np.ndarray]:
    """As-fabricated (resistance, relax_fraction) columns, one row per qubit id.

    Qubit ``id`` draws from its fabrication stream, the ``controller.QubitStreams``
    stream of ``fab:<id>``, apart from the stream that tunes it. Resistance ~
    Normal(design * (1 + FAB_MEAN_OFFSET_FRAC), design * FAB_SIGMA_FRAC)
    truncated at > 0, and an independent relaxation fraction truncated at
    >= 0: each qubit draws pairs of standard normals (``normal_pairs``), one
    for each, until both fit.
    """
    # A design at or below zero would never draw a positive resistance.
    check("design_resistance", design_resistance, gt=0)
    loc = (design_resistance * (1.0 + FAB_MEAN_OFFSET_FRAC), RELAX_FRACTION_MEAN)
    scale = (design_resistance * FAB_SIGMA_FRAC, RELAX_FRACTION_SIGMA)
    streams = QubitStreams(master_seed, [f"fab:{q}" for q in ids])
    r, rho = np.empty(len(ids)), np.empty(len(ids))
    todo = np.arange(len(ids))
    while todo.size:
        z_r, z_rho = streams.normal_pairs(todo)
        r[todo] = loc[0] + scale[0] * z_r
        rho[todo] = loc[1] + scale[1] * z_rho
        todo = todo[(r[todo] <= 0) | (rho[todo] < 0)]
    return r, rho


def relaxation_delta(rho: float, r_stop: float, t_hr: float) -> float:
    """Resistance gained by relaxation t_hr after the last pulse.

    Equals rho * r_stop * s(t); by normalization the full per-qubit
    relaxation fraction is realized exactly at the probe delay.
    """
    check("rho", rho, ge=0)
    check("r_stop", r_stop, gt=0)
    return rho * r_stop * relaxation_shape(t_hr)

