"""Closed-loop resistance trimming: threshold targeting and batch statistics.

The controller pulses each qubit until its monitored resistance crosses a
stop threshold set below the target by the relaxation reserve, waits the
probe delay while relaxation carries the resistance the rest of the way,
and records per-qubit and aggregate precision statistics.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InfeasibleError, ValidationError, check
from .junction import RELAX_FRACTION_MEAN, JunctionState

_STEP_BATCH = 512
# Mean per-pulse resistance increment, Ohm. Steps are exponential: their
# renewal overshoot is again exponential with the same mean, which reproduces
# the observed last-pulse overshoot statistics with this one parameter.
MEAN_STEP_OHM = 1.9
# Largest campaign, in qubits: about 2-4 min of tuning. A larger one is
# refused before any qubit is sampled.
MAX_CAMPAIGN_QUBITS = 1_000_000
# Pulses after which one qubit's tuning loop gives up with exit 3.
MAX_PULSES = 10**6


@dataclass(frozen=True)
class TuningTarget:
    """Target resistance and the relaxation reserve used to derive the
    pulse-stop threshold for one qubit."""

    qubit_id: str
    target_resistance: float
    relaxation_reserve: float = RELAX_FRACTION_MEAN

    def __post_init__(self):
        check("target_resistance", self.target_resistance, gt=0)
        check("relaxation_reserve", self.relaxation_reserve, ge=0, lt=1)

    @property
    def threshold(self) -> float:
        return self.target_resistance / (1.0 + self.relaxation_reserve)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a tuning campaign needs besides the qubits themselves."""

    master_seed: int
    noise_sigma: float = 0.0  # room-temperature probe noise, Ohm; 0 is a noiseless probe

    def __post_init__(self):
        check("noise_sigma", self.noise_sigma, ge=0)


@dataclass(frozen=True)
class QubitTuneRecord:
    qubit_id: str
    r_untuned: float
    threshold: float
    r_last_pulse: float
    r_tuned: float
    pulses: int
    already_above_target: bool = False


# SeedSequence's hash constants (NumPy's bit_generator.pyx), stable under NEP 19.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's pool size, in uint32 words
_MASK32 = 0xFFFFFFFF


def _hasher(hash_const, mult):
    """SeedSequence's ``hashmix``: one uint32 column hashed per call, with the
    hash constant advancing between calls as it does in NumPy."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _seed_states(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(words[i, :lengths[i]]).generate_state(4, np.uint64)`` for
    every row i at once.

    ``words`` is uint32 and zero-padded on the right. SeedSequence hashes a
    missing pool word as 0, so only words past the pool need ``lengths``.
    """
    n, width = words.shape
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(n, np.uint32)
    pool = [hashmix(words[:, i] if i < width else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, width):
        has = lengths > src
        for dst in range(_POOL):
            pool[dst] = np.where(has, _mix(pool[dst], hashmix(words[:, src])), pool[dst])
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.column_stack([hashmix(pool[i % _POOL]) for i in range(2 * _POOL)])
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A precomputed ``generate_state(4, np.uint64)`` row, which is all PCG64 asks of its seed."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def qubit_rngs(master_seed: int, qubit_ids) -> Iterator[np.random.Generator]:
    """Per-qubit streams keyed by (campaign seed, qubit id), not position,
    so aggregate statistics are invariant under tuning order.

    Each is ``default_rng(SeedSequence([master_seed, sha256(id)[:8]]))``.
    The seed states are built for all ids in one pass and the generators one
    at a time, as they are consumed.
    """
    master_seed = check("master_seed", int(master_seed), ge=0)
    # SeedSequence splits each integer into uint32 words, least significant
    # first; 0 is one word.
    seed = [master_seed >> s & _MASK32 for s in range(0, max(master_seed.bit_length(), 1), 32)]
    digests = b"".join(hashlib.sha256(str(q).encode("utf-8")).digest()[:8] for q in qubit_ids)
    qhash = np.frombuffer(digests, ">u8").astype(np.uint64)
    words = np.zeros((len(qhash), len(seed) + 2), np.uint32)
    words[:, : len(seed)] = seed
    words[:, -2] = qhash & _MASK32
    words[:, -1] = qhash >> 32
    for state in _seed_states(words, len(seed) + 1 + (words[:, -1] != 0)):
        yield np.random.Generator(np.random.PCG64(_SeedState(state)))


def tune_qubit(
    state: JunctionState,
    target: TuningTarget,
    config: CampaignConfig,
    rng: np.random.Generator,
) -> QubitTuneRecord:
    """Pulse until the monitored resistance crosses the stop threshold,
    then probe once relaxation has added the qubit's own fraction.

    The probe waits ``junction.PROBE_DELAY_HR``, where the relaxation
    trajectory is normalised, so the settled resistance is exactly
    ``r + relax_fraction * r``. ``r_last_pulse`` is the first monitored
    value at or above the threshold. Qubits already above threshold are
    recorded with zero pulses and flagged, never pulsed downward. Every step
    and read error is drawn from ``rng``, the qubit's own stream from
    ``qubit_rngs``.
    """
    noise = config.noise_sigma

    def probe(r):
        return r + float(rng.normal(0.0, noise)) if noise > 0 else r

    threshold = target.threshold
    r = state.resistance
    read = probe(r)
    pulses = 0
    if read < threshold:
        r, pulses, read = _pulse_to_threshold(r, threshold, config, rng, target.qubit_id)
    return QubitTuneRecord(
        qubit_id=target.qubit_id,
        r_untuned=state.resistance,
        threshold=threshold,
        r_last_pulse=read,
        r_tuned=probe(r + state.relax_fraction * r),
        pulses=pulses,
        already_above_target=pulses == 0,
    )


def _pulse_to_threshold(r, threshold, config, rng, qubit_id):
    """Pulse from r until a monitored read reaches the threshold.

    Exponential steps of mean ``MEAN_STEP_OHM`` are drawn in batches and
    the stop is the first pulse whose read crosses. A noisy probe draws one
    read error per pulse after the batch's steps; a noiseless probe draws
    nothing and reads the true resistance. Returns (true resistance,
    pulses, read at the stop).
    """
    noise = config.noise_sigma
    pulses = 0
    while True:
        n = min(_STEP_BATCH, MAX_PULSES - pulses)
        if n <= 0:
            raise InfeasibleError(f"qubit {qubit_id}: max_pulses={MAX_PULSES} exceeded")
        cum = r + np.cumsum(rng.exponential(MEAN_STEP_OHM, n))
        read = cum + rng.normal(0.0, noise, n) if noise > 0 else cum
        crossed = read >= threshold
        hit = int(crossed.argmax())
        if crossed[hit]:
            return float(cum[hit]), pulses + hit + 1, float(read[hit])
        pulses += n
        r = float(cum[-1])


def run_campaign(
    qubits: list[JunctionState],
    targets: list[TuningTarget],
    config: CampaignConfig,
) -> tuple[QubitTuneRecord, ...]:
    """Tune qubits one at a time; each qubit's probe happens the probe
    delay after its own last pulse."""
    if len(qubits) != len(targets):
        raise ValidationError(
            f"qubit/target length mismatch: {len(qubits)} vs {len(targets)}"
        )
    rngs = qubit_rngs(config.master_seed, [t.qubit_id for t in targets])
    return tuple(
        tune_qubit(state, target, config, rng) for state, target, rng in zip(qubits, targets, rngs)
    )


def campaign_stats(records, targets) -> dict[str, float]:
    """Precision, overshoot and realised-reserve statistics of a campaign.

    Precision is the tuned-resistance error relative to target,
    (r_tuned - R_T) / R_T, with each target looked up by qubit id. Overshoot
    is the last-pulse excess above the stop threshold, set by step size.
    The reserve is the relaxation fraction realised between last pulse and
    probe, (r_tuned - r_last_pulse) / r_last_pulse. Sigmas are population
    standard deviations. Qubits flagged already-above-target were never
    pulsed and are excluded. A statistic that is not finite (a record out
    of range) raises, as does a campaign with no tuned qubit.
    """
    tuned = [r for r in records if not r.already_above_target]
    if not tuned:
        raise ValidationError("no tuned records to aggregate")
    target_r = {t.qubit_id: t.target_resistance for t in targets}
    for rec in tuned:
        if rec.qubit_id not in target_r:
            raise ValidationError(f"no target for qubit {rec.qubit_id}")
    r_tuned, r_last, threshold, r_target = np.array(
        [(r.r_tuned, r.r_last_pulse, r.threshold, target_r[r.qubit_id]) for r in tuned]
    ).T
    with np.errstate(all="ignore"):
        precision = (r_tuned - r_target) / r_target
        overshoot = r_last - threshold
        reserve = (r_tuned - r_last) / r_last
        stats = {
            "precision_mean_frac": float(precision.mean()),
            "precision_sigma_frac": float(precision.std()),
            "precision_min_frac": float(precision.min()),
            "precision_max_frac": float(precision.max()),
            "overshoot_mean_ohm": float(overshoot.mean()),
            "overshoot_sigma_ohm": float(overshoot.std()),
            "reserve_mean": float(reserve.mean()),
            "reserve_sigma": float(reserve.std()),
        }
    bad = [name for name, value in stats.items() if not math.isfinite(value)]
    if bad:
        raise ValidationError(
            f"campaign statistics overflow ({', '.join(bad)}): a record is out of range"
        )
    return stats
