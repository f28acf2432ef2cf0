"""Closed-loop resistance trimming: threshold targeting and batch statistics.

The controller pulses each qubit until its monitored resistance crosses a
stop threshold set below the target by the relaxation reserve, waits the
probe delay while relaxation carries the resistance the rest of the way,
and records per-qubit and aggregate precision statistics.
"""

from __future__ import annotations

import hashlib
import math
import reprlib
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InfeasibleError, ValidationError, check, check_rows

# Probe-noise sigmas below its threshold that a qubit walks pulse by pulse,
# at about 1 us a pulse (two scalar draws); below them no read crosses, since
# NumPy's float64 ziggurat draws no standard normal above 12.23, and the
# qubit jumps there (``_tune``).
_WALK_SIGMAS = 12.5
# Mean per-pulse resistance increment, Ohm. Steps are exponential: their
# renewal overshoot is again exponential with the same mean, which reproduces
# the observed last-pulse overshoot statistics with this one parameter.
MEAN_STEP_OHM = 1.9
# Largest campaign, in qubits: 300 000 took 4.7-6.8 s (median 5.4 s) and 482 MB
# peak RSS on a 2-vCPU guest, so this cap extrapolates to about 18 s and 1.6 GB.
# A larger one is refused before any qubit is sampled.
MAX_CAMPAIGN_QUBITS = 1_000_000
# Pulses after which one qubit's tuning loop gives up with exit 3; a qubit
# whose gap to threshold is more steps than this is refused before any pulse.
MAX_PULSES = 10**6
# Largest campaign, in expected walked pulses (each qubit's min(gap,
# _WALK_SIGMAS noise) / MEAN_STEP_OHM), refused before the first pulse. The
# jump draws the rest at once; at about 1 us a walked pulse, a campaign at
# this cap walks for about two minutes.
MAX_CAMPAIGN_PULSES = 10**8

# Targets and records are column sets: each name (its JSON key, in file order)
# maps to a list of str ids or an array of its type, one row per qubit. The
# bounds are each row's ranges (``errors.check_rows``); a noisy read has none.
TARGET_FIELDS = {"qubit_id": str, "target_resistance": float, "relaxation_reserve": float}
TARGET_BOUNDS = {"target_resistance": {"gt": 0}, "relaxation_reserve": {"ge": 0, "lt": 1}}
RECORD_FIELDS = {"qubit_id": str, "r_untuned": float, "threshold": float, "r_last_pulse": float,
                 "r_tuned": float, "pulses": int, "already_above_target": bool}
RECORD_BOUNDS = {"r_untuned": {"gt": 0}, "threshold": {"gt": 0}, "pulses": {"ge": 0}}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a tuning campaign needs besides the qubits themselves."""

    master_seed: int
    noise_sigma: float = 0.0  # room-temperature probe noise, Ohm; 0 is a noiseless probe

    def __post_init__(self):
        check("master_seed", self.master_seed, ge=0, integer=True)
        check("noise_sigma", self.noise_sigma, ge=0)


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


def _qubit_states(master_seed: int, qubit_ids) -> np.ndarray:
    """The PCG64 seed state of each id's stream (``qubit_rngs``), one row per id."""
    master_seed = int(check("master_seed", master_seed, ge=0, integer=True))
    # SeedSequence splits each integer into uint32 words, least significant
    # first; 0 is one word.
    seed = [master_seed >> s & _MASK32 for s in range(0, max(master_seed.bit_length(), 1), 32)]
    digests = b"".join(hashlib.sha256(str(q).encode("utf-8")).digest()[:8] for q in qubit_ids)
    qhash = np.frombuffer(digests, ">u8").astype(np.uint64)
    words = np.zeros((len(qhash), len(seed) + 2), np.uint32)
    words[:, : len(seed)] = seed
    words[:, -2] = qhash & _MASK32
    words[:, -1] = qhash >> 32
    return _seed_states(words, len(seed) + 1 + (words[:, -1] != 0))


def _stream(state) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedState(state)))


def qubit_rngs(master_seed: int, qubit_ids) -> Iterator[np.random.Generator]:
    """Per-qubit streams keyed by (campaign seed, qubit id), not position,
    so aggregate statistics are invariant under tuning order.

    Each is ``default_rng(SeedSequence([master_seed, sha256(id)[:8]]))``.
    The seed states are built for all ids in one pass and the generators one
    at a time, as they are consumed.
    """
    return map(_stream, _qubit_states(master_seed, qubit_ids))


def _target_rows(ids) -> dict:
    """The row of each target id; an id given twice is refused at its second
    row, in the campaign loader's words."""
    rows = {}
    for i, qid in enumerate(ids):
        if rows.setdefault(qid, i) != i:
            raise ValidationError(f"targets[{i}].qubit_id: duplicate {reprlib.repr(qid)}")
    return rows


def _tune(rng, r, rho, threshold, noise):
    """One qubit tuned from ``r``: (last read, probe, pulses); a qubit still
    below its threshold past ``MAX_PULSES`` pulses stops there, with more
    than ``MAX_PULSES``.

    A qubit jumps, then walks. A qubit whose first read is below
    ``threshold`` and which starts below low = threshold - ``_WALK_SIGMAS``
    noise jumps to low by renewal law: its pulses are the points of a
    Poisson process of rate 1 / MEAN_STEP_OHM on the resistance axis, so it
    reaches low after Poisson((low - r) / MEAN_STEP_OHM) pulses. No read
    below low crosses the threshold, as that takes a standard normal draw
    above ``_WALK_SIGMAS``: NumPy's float64 ziggurat returns none above
    3.654 + sqrt(2 * 53 ln 2) = 12.23 (its tail start plus the most its
    53-bit uniforms let a tail draw add), and Q(12.5) is 4e-36 besides. A
    qubit whose read is still below the threshold then walks, one step and
    one read at a time, until a read crosses; with a noiseless probe low is
    the threshold and the walk ends on its first step. A qubit whose first
    read is at or above the threshold is never pulsed. The probe then adds
    the relaxation fraction ``rho``.

    The stream draws, in this order: with a noisy probe, the first read's
    error (``standard_normal``); if that read is below the threshold and
    the qubit below low, the jump's ``poisson`` count; then each walked
    pulse's ``standard_exponential`` step and, with a noisy probe, its read
    error; and with a noisy probe the probe's error.
    """
    read = r + noise * rng.standard_normal() if noise > 0 else r
    low = threshold - _WALK_SIGMAS * noise
    pulses = 0
    if read < threshold and r < low:
        r, pulses = low, int(rng.poisson((low - r) / MEAN_STEP_OHM))
    while read < threshold and pulses <= MAX_PULSES:
        r += MEAN_STEP_OHM * rng.standard_exponential()
        read = r + noise * rng.standard_normal() if noise > 0 else r
        pulses += 1
    r_tuned = r + rho * r
    if noise > 0:
        r_tuned += noise * rng.standard_normal()
    return read, r_tuned, pulses


def run_campaign(r_untuned, relax_fraction, targets, config: CampaignConfig) -> dict:
    """Record columns (``RECORD_FIELDS``) of qubits starting at ``r_untuned``
    and tuned to their ``targets`` rows, each with its own stream (``qubit_rngs``).

    A qubit is pulsed until a read reaches its stop threshold, the target
    less the relaxation reserve, then probed ``junction.PROBE_DELAY_HR``
    later, where relaxation has added exactly its ``relax_fraction``.
    ``r_last_pulse`` is that first read; a qubit whose first read is already
    above is flagged with zero pulses, never pulsed downward. Before any
    stream is built, a campaign expecting more than ``MAX_CAMPAIGN_PULSES``
    walked pulses is refused, and then the first qubit whose gap to its
    threshold is more than ``MAX_PULSES`` steps fails it. Qubits are then
    tuned in row order, and the first that needs more than ``MAX_PULSES``
    pulses fails the campaign before any later row is tuned.
    """
    ids = list(targets["qubit_id"])
    if not len(r_untuned) == len(relax_fraction) == len(ids):
        raise ValidationError(f"qubit/target length mismatch: {len(r_untuned)} vs {len(ids)}")
    _target_rows(ids)
    check_rows("targets", targets, TARGET_BOUNDS)
    check_rows("qubits", {"r_untuned": r_untuned, "relax_fraction": relax_fraction},
               {"r_untuned": {"gt": 0}, "relax_fraction": {"ge": 0}})
    r_untuned = np.array(r_untuned, float)
    relax_fraction = np.asarray(relax_fraction, float)
    threshold = np.asarray(targets["target_resistance"], float) / (
        1.0 + np.asarray(targets["relaxation_reserve"], float))
    r_last, r_tuned, pulses = np.empty(len(ids)), np.empty(len(ids)), np.empty(len(ids), int)
    noise = config.noise_sigma
    gap = np.maximum(threshold - r_untuned, 0)
    # past the float range a read (as in Generator.normal) or the walked sum is inf, and is rejected
    with np.errstate(all="ignore"):
        check("expected walked pulses",
              float(np.minimum(gap, _WALK_SIGMAS * noise).sum()) / MEAN_STEP_OHM,
              le=MAX_CAMPAIGN_PULSES)
        far = np.flatnonzero(gap / MEAN_STEP_OHM > MAX_PULSES)
        if far.size:
            raise InfeasibleError(f"qubit {ids[far[0]]}: max_pulses={MAX_PULSES} exceeded")
        qubits = zip(qubit_rngs(config.master_seed, ids), map(float, r_untuned),
                     map(float, relax_fraction), map(float, threshold))
        for i, (rng, r, rho, t) in enumerate(qubits):
            r_last[i], r_tuned[i], pulses[i] = _tune(rng, r, rho, t, noise)
            if pulses[i] > MAX_PULSES:
                raise InfeasibleError(f"qubit {ids[i]}: max_pulses={MAX_PULSES} exceeded")
    return {"qubit_id": ids, "r_untuned": r_untuned, "threshold": threshold,
            "r_last_pulse": r_last, "r_tuned": r_tuned, "pulses": pulses,
            "already_above_target": pulses == 0}


def campaign_stats(records, targets) -> dict[str, float]:
    """Precision, overshoot and realised-reserve statistics of a campaign.

    Takes record and target columns. Precision is the tuned-resistance error
    relative to target, (r_tuned - R_T) / R_T, each target looked up by qubit
    id. Overshoot is the last-pulse excess above the stop threshold, set by step size.
    The reserve is the relaxation fraction realised between last pulse and
    probe, (r_tuned - r_last_pulse) / r_last_pulse. Sigmas are population
    standard deviations. Qubits flagged already-above-target were never
    pulsed and are excluded. A statistic that is not finite (a record out
    of range) raises, as does a campaign with no tuned qubit.
    """
    tuned = ~np.asarray(records["already_above_target"], bool)
    if not tuned.any():
        raise ValidationError("no tuned records to aggregate")
    index = _target_rows(targets["qubit_id"])
    try:
        rows = [index[qid] for qid in compress(records["qubit_id"], tuned)]
    except KeyError as exc:
        raise ValidationError(f"no target for qubit {exc.args[0]}") from None
    r_target = np.asarray(targets["target_resistance"], float)[rows]
    r_tuned, r_last, threshold = (np.asarray(records[name], float)[tuned]
                                  for name in ("r_tuned", "r_last_pulse", "threshold"))
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
