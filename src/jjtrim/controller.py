"""Closed-loop resistance trimming: threshold targeting and batch statistics.

The controller pulses each qubit until its monitored resistance crosses a
stop threshold set below the target by the relaxation reserve, waits the
probe delay while relaxation carries the resistance the rest of the way,
and records per-qubit and aggregate precision statistics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ControllerError, ValidationError, check
from .junction import JunctionState, StepModel

_STEP_BATCH = 512


@dataclass(frozen=True)
class TuningTarget:
    """Target resistance and the relaxation reserve used to derive the
    pulse-stop threshold for one qubit."""

    qubit_id: str
    target_resistance: float
    relaxation_reserve: float = 0.0289

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
    step: StepModel = field(default_factory=StepModel)
    noise_sigma: float = 0.0  # room-temperature probe noise, Ohm; 0 is a noiseless probe
    max_pulses: int = 10**6

    def __post_init__(self):
        check("noise_sigma", self.noise_sigma, ge=0)
        check("max_pulses", self.max_pulses, gt=0)


@dataclass(frozen=True)
class QubitTuneRecord:
    qubit_id: str
    r_untuned: float
    threshold: float
    r_last_pulse: float
    r_tuned: float
    pulses: int
    already_above_target: bool = False


@dataclass(frozen=True)
class CampaignResult:
    records: tuple[QubitTuneRecord, ...]

    def __len__(self):
        return len(self.records)


def qubit_rng(master_seed: int, qubit_id: str) -> np.random.Generator:
    """Per-qubit stream keyed by (campaign seed, qubit id), not position,
    so aggregate statistics are invariant under tuning order."""
    digest = hashlib.sha256(str(qubit_id).encode("utf-8")).digest()
    qhash = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), qhash]))


def tune_qubit(
    state: JunctionState, target: TuningTarget, config: CampaignConfig
) -> QubitTuneRecord:
    """Pulse until the monitored resistance crosses the stop threshold,
    then probe once relaxation has added the qubit's own fraction.

    The probe waits the relaxation profile's probe delay, where the
    profile is normalised, so the settled resistance is exactly
    ``r + relax_fraction * r``. ``r_last_pulse`` is the first monitored
    value at or above the threshold. Qubits already above threshold are
    recorded with zero pulses and flagged, never pulsed downward.
    """
    rng = qubit_rng(config.master_seed, target.qubit_id)
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


def _pulse_to_threshold(r0, threshold, config, rng, qubit_id):
    """Pulse from r0 until a monitored read reaches the threshold.

    Steps are drawn in batches and the stop is the first pulse whose
    read crosses. A noisy probe draws one read error per pulse after the
    batch's steps; a noiseless probe draws nothing and reads the true
    resistance. Returns (true resistance, pulses, read at the stop).
    """
    noise = config.noise_sigma
    r = r0
    pulses = 0
    while True:
        n = min(_STEP_BATCH, config.max_pulses - pulses)
        if n <= 0:
            raise ControllerError(
                f"qubit {qubit_id}: max_pulses={config.max_pulses} exceeded",
                partial_record=QubitTuneRecord(
                    qubit_id=qubit_id,
                    r_untuned=r0,
                    threshold=threshold,
                    r_last_pulse=r,
                    r_tuned=r,
                    pulses=pulses,
                ),
            )
        cum = r + np.cumsum(config.step.sample_batch(rng, n))
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
) -> CampaignResult:
    """Tune qubits one at a time; each qubit's probe happens the probe
    delay after its own last pulse."""
    if len(qubits) != len(targets):
        raise ValidationError(
            f"qubit/target length mismatch: {len(qubits)} vs {len(targets)}"
        )
    records = []
    for state, target in zip(qubits, targets):
        records.append(tune_qubit(state, target, config))
    return CampaignResult(records=tuple(records))


def _tuned_records(records):
    records = [r for r in records if not r.already_above_target]
    if not records:
        raise ValidationError("no tuned records to aggregate")
    return records


@dataclass(frozen=True)
class ReserveCalibration:
    mean: float
    sigma: float
    count: int


def calibrate_reserve(records) -> ReserveCalibration:
    """Relaxation fraction realized between last pulse and probe:
    statistics of (r_tuned - r_last_pulse) / r_last_pulse.

    Qubits flagged already-above-target were never pulsed and are
    excluded.
    """
    records = _tuned_records(records)
    fracs = np.array(
        [(r.r_tuned - r.r_last_pulse) / r.r_last_pulse for r in records]
    )
    return ReserveCalibration(
        mean=float(fracs.mean()), sigma=float(fracs.std()), count=len(records)
    )


@dataclass(frozen=True)
class PrecisionStats:
    mean_frac: float
    sigma_frac: float
    min_frac: float
    max_frac: float


def precision_stats(result: CampaignResult, targets) -> PrecisionStats:
    """Tuned-resistance error relative to target, (r_tuned - R_T)/R_T.

    Records flagged already-above-target are excluded; they were never
    tuned.
    """
    targets = list(targets)
    if not targets:
        raise ValidationError("precision_stats needs a non-empty target list")
    records = _tuned_records(result.records)
    by_id = {t.qubit_id: t for t in targets}
    fracs = []
    for rec in records:
        if rec.qubit_id not in by_id:
            raise ValidationError(f"no target for qubit {rec.qubit_id}")
        rt = by_id[rec.qubit_id].target_resistance
        fracs.append((rec.r_tuned - rt) / rt)
    fracs = np.array(fracs)
    return PrecisionStats(
        mean_frac=float(fracs.mean()),
        sigma_frac=float(fracs.std()),
        min_frac=float(fracs.min()),
        max_frac=float(fracs.max()),
    )


@dataclass(frozen=True)
class OvershootStats:
    mean: float
    sigma: float


def overshoot_stats(result: CampaignResult) -> OvershootStats:
    """Last-pulse excess above the stop threshold, set by step size."""
    records = _tuned_records(result.records)
    over = np.array([r.r_last_pulse - r.threshold for r in records])
    return OvershootStats(mean=float(over.mean()), sigma=float(over.std()))
