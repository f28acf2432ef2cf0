"""Closed-loop resistance trimming: threshold targeting and batch statistics.

The controller pulses each qubit until its monitored resistance crosses a
stop threshold set below the target by the relaxation reserve, waits the
probe delay while relaxation carries the resistance the rest of the way,
and records per-qubit and aggregate precision statistics.
"""

from __future__ import annotations

import functools
import hashlib
import math
import reprlib
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import InfeasibleError, ValidationError, check, check_rows

# Probe-noise sigmas below its threshold that a qubit walks in blocks of
# pulses; below them no read crosses, since ``_normals`` gives no standard
# normal above sqrt(2 * 53 ln 2) = 8.5717, and the qubit jumps there
# (``run_campaign``).
_WALK_SIGMAS = 8.6
# Pulses in a qubit's walk block b: min(b + 1, _MAX_BLOCK), so a short walk
# wastes few draws past its crossing and a long one few passes over the
# streams. Rows walk _WALK_ROWS at a time, so a block's words (at most 3
# _MAX_BLOCK a row) take at most 6.3 MB.
_MAX_BLOCK = 256
_WALK_ROWS = 1024
# Mean per-pulse resistance increment, Ohm. Steps are exponential: their
# renewal overshoot is again exponential with the same mean, which reproduces
# the observed last-pulse overshoot statistics with this one parameter.
MEAN_STEP_OHM = 1.9
# Largest campaign, in qubits: 300 000 took 2.9 s and 481 MB peak RSS on a
# 2-vCPU guest, so this cap extrapolates to about 10 s and 1.6 GB. A larger
# one is refused before any qubit is sampled.
MAX_CAMPAIGN_QUBITS = 1_000_000
# Pulses after which one qubit's tuning loop gives up with exit 3; a qubit
# whose gap to threshold is more steps than this is refused before any pulse.
MAX_PULSES = 10**6
# Largest campaign, in expected walked pulses (each qubit's min(gap,
# _WALK_SIGMAS noise) / MEAN_STEP_OHM), refused before the first pulse. The
# jump draws the rest at once; at about 0.4 us a walked pulse, a campaign at
# this cap walks for about 40 s.
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


def _qubit_states(master_seed: int, qubit_ids) -> np.ndarray:
    """The PCG64 seed state of each id's stream (``QubitStreams``), one row per id."""
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


# NumPy's PCG64 (O'Neill, PCG, HMC-CS-2014-0905): a 128-bit LCG, state -> state
# * _PCG_MULT + inc, whose word is the XSL-RR output of the new state. Reading
# k words jumps each state j = 1..k steps at once, to M**j state + sum(M**i,
# i < j) inc mod 2**128 (``_jumps``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(_MASK32)


@functools.cache
def _jumps():
    """The limbs (bits 64-127, 0-63, 0-31 and 32-63) of M**j, then of sum(M**i,
    i < j), for j = 1 up to the longest read, a walk block's 3 * _MAX_BLOCK
    words, as (8, 3 * _MAX_BLOCK, 1) uint64: a column per row of states.
    Built on first use, since built at import its Python ints raised the
    peak RSS of a yield Monte Carlo run, which draws no stream, by 2.6 MB."""
    mask, a, c = (1 << 128) - 1, 1, 0
    powers, sums = [], []
    for _ in range(3 * _MAX_BLOCK):
        a, c = a * _PCG_MULT & mask, c + a & mask
        powers.append(a)
        sums.append(c)
    limbs = []
    for column in (powers, sums):
        hi = np.array([x >> 64 for x in column], np.uint64)
        lo = np.array([x & 0xFFFFFFFFFFFFFFFF for x in column], np.uint64)
        limbs += [hi, lo, lo & _LOW32, lo >> 32]
    return np.array(limbs)[..., None]


def _mul128(x_hi, x_lo, m_hi, m_lo, m_lo0, m_lo1):
    """x * m mod 2**128 as (hi, lo) limbs, the high half of the low limbs'
    product from 32-bit parts (Hacker's Delight 8-2)."""
    x0, x1 = x_lo & _LOW32, x_lo >> 32
    t = x1 * m_lo0 + (x0 * m_lo0 >> 32)
    carry = x1 * m_lo1 + (t >> 32) + ((t & _LOW32) + x0 * m_lo1 >> 32)
    return carry + x_hi * m_lo + x_lo * m_hi, x_lo * m_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


class QubitStreams:
    """One stream per key, keyed by (campaign seed, key), not position, so
    aggregate statistics are invariant under tuning order.

    Row i is NumPy's ``PCG64(SeedSequence([master_seed, sha256(keys[i])[:8]]))``,
    its 128-bit state and increment held as uint64 limbs; ``words`` reads its
    raw words, equal to ``PCG64.random_raw``, for many rows at once.
    """

    def __init__(self, master_seed: int, keys):
        seed_hi, seed_lo, inc_hi, inc_lo = _qubit_states(master_seed, keys).T
        # PCG64's seeding: inc = 2 * inc_seed + 1, state = (inc + seed) * mult + inc
        self._inc = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1
        self._state = _add128(*self._inc, seed_hi, seed_lo)
        self.words(slice(None), 1)

    def words(self, rows, k: int) -> np.ndarray:
        """The next ``k`` raw words of each of ``rows`` (an index array or
        slice), as a (k, len(rows)) uint64 array; those rows move on k words."""
        jumps = _jumps()
        jumps = jumps[:, :check("k", k, gt=0, le=jumps.shape[1], integer=True)]
        hi, lo = _add128(*_mul128(*(x[rows] for x in self._state), *jumps[:4]),
                         *_mul128(*(x[rows] for x in self._inc), *jumps[4:]))
        for limb, last in zip(self._state, (hi[-1], lo[-1])):
            limb[rows] = last
        x, rot = hi ^ lo, hi >> 58
        return x >> rot | x << (-rot & 63)

    def normals(self, rows) -> np.ndarray:
        """One standard normal per row of ``rows``, from its next two words."""
        return _normals(*self.words(rows, 2))

    def normal_pairs(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Two independent standard normals per row, from its next two words."""
        w1, w2 = self.words(rows, 2)
        return _normals(w1, w2), _normals(w1, w2, math.sin)


# Draws are made from raw words by these transforms. Their transcendental
# functions are libm's, through ``math``: NumPy's own ufuncs pick a SIMD kernel
# by CPU (np.log differs from math.log on some inputs on AVX-512 hosts), which
# would make seeded outputs depend on the host. Arithmetic and square roots,
# which IEEE 754 rounds exactly, are NumPy's.


def _each(f, x: np.ndarray) -> np.ndarray:
    """``math`` function ``f`` applied to every element of ``x``."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """(word >> 11) * 2**-53: a 53-bit uniform in [0, 1), as NumPy's ``random``."""
    return (words >> 11).astype(float) * 2.0**-53


def _exponentials(words: np.ndarray) -> np.ndarray:
    """Standard exponentials -log1p(-u), at most 53 ln 2."""
    return -_each(math.log1p, -_uniforms(words))


def _normals(w1: np.ndarray, w2: np.ndarray, trig=math.cos) -> np.ndarray:
    """Box-Muller's sqrt(2 E) trig(2 pi u), E the exponential of ``w1`` and u
    the uniform of ``w2``: with cos and with sin, two independent standard
    normals, neither above sqrt(2 * 53 ln 2) = 8.5717."""
    return np.sqrt(2 * _exponentials(w1)) * _each(trig, 2 * math.pi * _uniforms(w2))


def _poisson(streams: QubitStreams, rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """One Poisson(lam[i]) count per row of ``rows``, splitting at lam = 10 as
    NumPy does: below it by sequential inversion of one word; at or above it
    by Hoermann's PTRS (Insur. Math. Econ. 12(1), 1993), two words a try."""
    counts = np.empty(len(rows), np.int64)
    small = np.flatnonzero(lam < 10)
    uniforms = _uniforms(streams.words(rows[small], 1))[0].tolist() if small.size else ()
    for i, u, lam_i in zip(small, uniforms, lam[small].tolist()):
        x, p = 0, math.exp(-lam_i)
        cdf = p
        while cdf <= u and p > 0:  # a cdf that rounds below u stops once p underflows
            x += 1
            p *= lam_i / x
            cdf += p
        counts[i] = x
    todo = np.flatnonzero(lam >= 10)
    while todo.size:
        lam_t = lam[todo]
        u, v = _uniforms(streams.words(rows[todo], 2))
        b = 0.931 + 2.53 * np.sqrt(lam_t)
        a = -0.059 + 0.02483 * b
        u = u - 0.5
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore"):  # -inf where us is 0, and then rejected
            k = np.floor((2 * a / us + b) * u + lam_t + 0.43)
        done = (us >= 0.07) & (v <= 0.9277 - 3.6224 / (b - 2))
        slow = np.flatnonzero(~done & (k >= 0) & ~((us < 0.013) & (v > us)))
        if slow.size:  # the squeeze failed: the exact test, log(0) = -inf accepting
            lam_s, a, b, us, v, k_s = (x[slow] for x in (lam_t, a, b, us, v, k))
            lhs = (_each(math.log, np.where(v > 0, v, 1.0))
                   + _each(math.log, 1.1239 + 1.1328 / (b - 3.4))
                   - _each(math.log, a / (us * us) + b))
            rhs = -lam_s + k_s * _each(math.log, lam_s) - _each(math.lgamma, k_s + 1)
            done[slow] = (v == 0) | (lhs <= rhs)
        counts[todo[done]] = k[done]
        todo = todo[~done]
    return counts


def _target_rows(ids) -> dict:
    """The row of each target id; an id given twice is refused at its second
    row, in the campaign loader's words."""
    rows = {}
    for i, qid in enumerate(ids):
        if rows.setdefault(qid, i) != i:
            raise ValidationError(f"targets[{i}].qubit_id: duplicate {reprlib.repr(qid)}")
    return rows


def run_campaign(r_untuned, relax_fraction, targets, config: CampaignConfig) -> dict:
    """Record columns (``RECORD_FIELDS``) of qubits starting at ``r_untuned``
    and tuned to their ``targets`` rows, each with its own stream
    (``QubitStreams`` of its id).

    A qubit is pulsed until a read reaches its stop threshold, the target
    less the relaxation reserve, then probed ``junction.PROBE_DELAY_HR``
    later, where relaxation has added exactly its ``relax_fraction``.
    ``r_last_pulse`` is that first read; a qubit whose first read is already
    above is flagged with zero pulses, never pulsed downward.

    A qubit jumps, then walks. A qubit whose first read is below its
    threshold and which starts below low = threshold - ``_WALK_SIGMAS``
    noise jumps to low by renewal law: its pulses are the points of a
    Poisson process of rate 1 / MEAN_STEP_OHM on the resistance axis, so it
    reaches low after Poisson((low - r) / MEAN_STEP_OHM) pulses. No read
    below low crosses the threshold, as that takes a standard normal above
    ``_WALK_SIGMAS``, and ``_normals`` gives none above sqrt(2 * 53 ln 2) =
    8.5717. A qubit whose read is still below the threshold then walks in
    blocks of min(b + 1, ``_MAX_BLOCK``) pulses, b the blocks it has walked,
    each pulse a step and a read, until a read crosses; with a noiseless
    probe low is the threshold and the walk ends on its first step.

    Each qubit's stream is read in this order: with a noisy probe, the first
    read's error (two words, ``QubitStreams.normals``); the jump's count
    (``_poisson``), when it jumps; each walk block, pulse by pulse, its step
    (one word, ``_exponentials``) and, with a noisy probe, its read error
    (two words), the words past the crossing unused; and with a noisy probe
    the probe's error. Every row is tuned at once.

    Before any stream is built, a campaign expecting more than
    ``MAX_CAMPAIGN_PULSES`` walked pulses is refused, and then the first
    qubit whose gap to its threshold is more than ``MAX_PULSES`` steps fails
    it. A qubit still below its threshold after ``MAX_PULSES`` pulses stops
    there, and the lowest such row fails the campaign.
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
    noise = config.noise_sigma
    gap = np.maximum(threshold - r_untuned, 0)
    # past the float range a read or the walked sum is inf, and is rejected
    with np.errstate(all="ignore"):
        check("expected walked pulses",
              float(np.minimum(gap, _WALK_SIGMAS * noise).sum()) / MEAN_STEP_OHM,
              le=MAX_CAMPAIGN_PULSES)
        far = np.flatnonzero(gap / MEAN_STEP_OHM > MAX_PULSES)
        if far.size:
            raise InfeasibleError(f"qubit {ids[far[0]]}: max_pulses={MAX_PULSES} exceeded")
        streams = QubitStreams(config.master_seed, ids)
        r = r_untuned.copy()
        read = r + noise * streams.normals(slice(None)) if noise > 0 else r.copy()
        low = threshold - _WALK_SIGMAS * noise
        pulses = np.zeros(len(ids), np.int64)
        jump = np.flatnonzero((read < threshold) & (r < low))
        pulses[jump] = _poisson(streams, jump, (low[jump] - r[jump]) / MEAN_STEP_OHM)
        r[jump] = low[jump]
        walkers = np.flatnonzero((read < threshold) & (pulses <= MAX_PULSES))
        for start in range(0, walkers.size, _WALK_ROWS):
            walk, length = walkers[start:start + _WALK_ROWS], 0
            while walk.size:
                length = min(length + 1, _MAX_BLOCK)
                words = streams.words(walk, (3 if noise > 0 else 1) * length)
                steps = MEAN_STEP_OHM * _exponentials(words[::3] if noise > 0 else words)
                path = np.cumsum(np.vstack([r[walk], steps]), axis=0)[1:]
                reads = path + noise * _normals(words[1::3], words[2::3]) if noise > 0 else path
                crossed = ~(reads < threshold[walk])  # a NaN read stops the walk, as it crosses
                hit = np.where(crossed.any(axis=0), crossed.argmax(axis=0), length - 1)
                cols = np.arange(walk.size)
                r[walk], read[walk] = path[hit, cols], reads[hit, cols]
                pulses[walk] += hit + 1
                walk = walk[~crossed[hit, cols] & (pulses[walk] <= MAX_PULSES)]
        failed = np.flatnonzero(pulses > MAX_PULSES)
        if failed.size:
            raise InfeasibleError(f"qubit {ids[failed[0]]}: max_pulses={MAX_PULSES} exceeded")
        r_tuned = r + relax_fraction * r
        if noise > 0:
            r_tuned += noise * streams.normals(slice(None))
    return {"qubit_id": ids, "r_untuned": r_untuned, "threshold": threshold,
            "r_last_pulse": read, "r_tuned": r_tuned, "pulses": pulses,
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
