import hashlib

import numpy as np
import pytest

from jjtrim.controller import (
    CampaignConfig,
    CampaignResult,
    MEAN_STEP_OHM,
    TuningTarget,
    _STEP_BATCH,
    calibrate_reserve,
    overshoot_stats,
    precision_stats,
    qubit_rng,
    run_campaign,
    tune_qubit,
)
from jjtrim.errors import InfeasibleError, ValidationError
from jjtrim.junction import FabricationModel, JunctionState, sample_fabricated


def make_batch(n, design=4587.8, seed=7, reserve=0.0289, target_frac=0.98):
    fab = FabricationModel(design_resistance=design)
    qubits, targets = [], []
    for i in range(n):
        qid = f"Q{i:03d}"
        qubits.append(sample_fabricated(fab, qubit_rng(seed, f"fab:{qid}")))
        targets.append(
            TuningTarget(
                qubit_id=qid,
                target_resistance=design * target_frac,
                relaxation_reserve=reserve,
            )
        )
    return qubits, targets


class TestThreshold:
    def test_paper_scale_arithmetic(self):
        t = TuningTarget(qubit_id="q", target_resistance=4625.9, relaxation_reserve=0.0289)
        assert t.threshold == pytest.approx(4496.0, abs=0.05)

    def test_zero_reserve(self):
        t = TuningTarget(qubit_id="q", target_resistance=4500.0, relaxation_reserve=0.0)
        assert t.threshold == 4500.0

    def test_exact_quarter(self):
        t = TuningTarget(qubit_id="q", target_resistance=1000.0, relaxation_reserve=0.25)
        assert t.threshold == pytest.approx(800.0)

    def test_invalid_reserve(self):
        with pytest.raises(ValidationError):
            TuningTarget(qubit_id="q", target_resistance=1000.0, relaxation_reserve=-0.5)


class TestTuneQubit:
    def test_already_above_threshold(self):
        state = JunctionState(resistance=5000.0, relax_fraction=0.0)
        target = TuningTarget(qubit_id="q", target_resistance=4500.0)
        rec = tune_qubit(state, target, CampaignConfig(master_seed=0))
        assert rec.pulses == 0
        assert rec.already_above_target

    def test_max_pulses_guard_carries_partial_record(self):
        state = JunctionState(resistance=100.0, relax_fraction=0.0)
        target = TuningTarget(qubit_id="q", target_resistance=10000.0)
        config = CampaignConfig(master_seed=0, max_pulses=10)
        with pytest.raises(InfeasibleError, match="qubit q: max_pulses=10 exceeded"):
            tune_qubit(state, target, config)

    def test_stop_correctness(self):
        qubits, targets = make_batch(30)
        result = run_campaign(qubits, targets, CampaignConfig(master_seed=7))
        for rec in result.records:
            assert rec.r_last_pulse >= rec.threshold
            assert rec.r_tuned >= rec.r_last_pulse

    def test_max_pulses_guard_noisy_path(self):
        state = JunctionState(resistance=100.0, relax_fraction=0.0)
        target = TuningTarget(qubit_id="q", target_resistance=10000.0)
        config = CampaignConfig(master_seed=0, max_pulses=10, noise_sigma=0.1)
        with pytest.raises(InfeasibleError, match="qubit q: max_pulses=10 exceeded"):
            tune_qubit(state, target, config)

    def test_noisy_stop_matches_per_pulse_oracle(self):
        # the crossing spans several step batches; a scalar walk over the
        # same draws must stop on the same pulse
        target = TuningTarget(qubit_id="far", target_resistance=4625.9)
        r0 = target.threshold - 2000.0
        state = JunctionState(resistance=r0, relax_fraction=0.0289)
        config = CampaignConfig(master_seed=3, noise_sigma=0.5)
        rec = tune_qubit(state, target, config)

        rng = qubit_rng(3, "far")
        assert r0 + rng.normal(0.0, 0.5) < target.threshold  # the first read

        def pulses_and_read_errors():
            while True:
                steps = rng.exponential(MEAN_STEP_OHM, _STEP_BATCH)
                yield from zip(steps, rng.normal(0.0, 0.5, _STEP_BATCH))

        r = r0
        for pulses, (step, err) in enumerate(pulses_and_read_errors(), start=1):
            r += step
            if r + err >= target.threshold:
                break
        assert pulses > _STEP_BATCH
        assert rec.pulses == pulses
        assert rec.r_last_pulse == pytest.approx(r + err, rel=1e-12)
        assert rec.r_last_pulse >= rec.threshold


class TestCampaign:
    def test_empty_campaign(self):
        result = run_campaign([], [], CampaignConfig(master_seed=0))
        assert len(result) == 0

    def test_length_mismatch(self):
        qubits, targets = make_batch(3)
        with pytest.raises(ValidationError):
            run_campaign(qubits, targets[:2], CampaignConfig(master_seed=0))

    def test_noiseless_and_noisy_records_pinned(self):
        # digests of the records at a fixed seed: the noiseless ones were
        # recorded before the pulse loops were merged, the noisy ones
        # (0.5 Ohm probe noise) before the scalar junction model was
        # retired. Any drift of either stream fails here. Targets at 120%
        # of design take several step batches per qubit.
        pinned = [
            (0.0, 0.98, 7335,
             "fac618ebe8462f0aaf99da2ce659667256bcdffb3b479c7832a3b8f52c146c19"),
            (0.0, 1.2, 33007,
             "e0a95dd82544d1cfe88cdbe5abadae920b6c2614b8f5758f7c5470c1c34da6f6"),
            (0.5, 0.98, 7326,
             "e910c7b256e4e97c48ea4af874fec9706739f211459d33891fb3dac262885f2a"),
            (0.5, 1.2, 33094,
             "e4ddef9c2b02137508ef7f350a298e55c443f251a93362f1e3348dd023118c80"),
        ]
        for noise, target_frac, pulses, digest in pinned:
            qubits, targets = make_batch(50, seed=11, target_frac=target_frac)
            config = CampaignConfig(master_seed=11, noise_sigma=noise)
            result = run_campaign(qubits, targets, config)
            rows = [
                (r.qubit_id, r.r_untuned, r.threshold, r.r_last_pulse, r.r_tuned,
                 r.pulses, r.already_above_target)
                for r in result.records
            ]
            assert sum(r.pulses for r in result.records) == pulses
            assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    def test_noisy_campaign_stops_above_threshold(self):
        qubits, targets = make_batch(221)
        config = CampaignConfig(master_seed=7, noise_sigma=0.5)
        result = run_campaign(qubits, targets, config)
        for rec in result.records:
            if not rec.already_above_target:
                assert rec.pulses > 0
                assert rec.r_last_pulse >= rec.threshold
        stats = precision_stats(result, targets)
        assert 0.0025 <= stats.sigma_frac <= 0.0045

    def test_precision_band(self):
        qubits, targets = make_batch(221)
        result = run_campaign(qubits, targets, CampaignConfig(master_seed=7))
        stats = precision_stats(result, targets)
        assert 0.0025 <= stats.sigma_frac <= 0.0045
        assert -0.001 <= stats.mean_frac <= 0.004

    def test_long_tuning_distance(self):
        # 18.5% below the stop threshold tunes without error
        target = TuningTarget(qubit_id="far", target_resistance=4625.9)
        r0 = target.threshold / 1.185
        state = JunctionState(resistance=r0, relax_fraction=0.0289)
        rec = tune_qubit(state, target, CampaignConfig(master_seed=3))
        assert (rec.threshold - rec.r_untuned) / rec.r_untuned > 0.18
        assert rec.r_last_pulse >= rec.threshold
        # the probe waits the relaxation trajectory's normalisation point,
        # so the realised relaxation is exactly the qubit's rho
        assert (rec.r_tuned - rec.r_last_pulse) / rec.r_last_pulse == pytest.approx(0.0289, rel=1e-12)

    def test_order_independence(self):
        qubits, targets = make_batch(40)
        config = CampaignConfig(master_seed=5)
        fwd = run_campaign(qubits, targets, config)
        rev = run_campaign(qubits[::-1], targets[::-1], config)
        fwd_stats = precision_stats(fwd, targets)
        rev_stats = precision_stats(rev, targets)
        assert fwd_stats.mean_frac == pytest.approx(rev_stats.mean_frac, rel=1e-12)
        assert fwd_stats.sigma_frac == pytest.approx(rev_stats.sigma_frac, rel=1e-12)
        assert sorted(r.r_tuned for r in fwd.records) == sorted(r.r_tuned for r in rev.records)

    def test_probe_noise_on_unpulsed_qubits(self):
        # with rho = 0 an unpulsed qubit's probe differs from its true
        # resistance only by the read error, which has the probe's sigma
        qubits = [JunctionState(resistance=5000.0, relax_fraction=0.0)] * 10**4
        targets = [TuningTarget(qubit_id=f"q{i}", target_resistance=4500.0) for i in range(10**4)]
        config = CampaignConfig(master_seed=4, noise_sigma=0.5)
        result = run_campaign(qubits, targets, config)
        assert all(r.already_above_target and r.pulses == 0 for r in result.records)
        errors = np.array([r.r_tuned - r.r_untuned for r in result.records])
        assert errors.std() == pytest.approx(0.5, abs=0.02)
        assert abs(errors.mean()) < 0.02

    def test_variance_composition(self):
        # precision variance decomposes into relaxation-draw variance plus
        # relative overshoot variance (within 20%)
        qubits, targets = make_batch(10**4, seed=13)
        result = run_campaign(qubits, targets, CampaignConfig(master_seed=13))
        stats = precision_stats(result, targets)
        over = overshoot_stats(result)
        rhos = np.array([q.relax_fraction for q in qubits])
        r_mean = np.mean([r.r_last_pulse for r in result.records])
        predicted = np.sqrt(rhos.std() ** 2 + (over.sigma / r_mean) ** 2)
        assert abs(stats.sigma_frac**2 - predicted**2) / predicted**2 < 0.20


class TestStatistics:
    def test_calibrate_reserve_recovers_draws(self):
        qubits, targets = make_batch(221)
        result = run_campaign(qubits, targets, CampaignConfig(master_seed=7))
        cal = calibrate_reserve(result.records)
        assert cal.mean == pytest.approx(0.0289, abs=0.0010)
        assert cal.sigma == pytest.approx(0.0030, abs=0.0010)

    def test_single_record_zero_spread(self):
        rec = _record(r_last=4500.0, r_tuned=4500.0)
        cal = calibrate_reserve([rec])
        assert cal.mean == 0.0 and cal.sigma == 0.0

    def test_two_record_hand_statistics(self):
        recs = [
            _record(r_last=1000.0, r_tuned=1010.0),
            _record(r_last=1000.0, r_tuned=1030.0),
        ]
        cal = calibrate_reserve(recs)
        assert cal.mean == pytest.approx(0.02)
        assert cal.sigma == pytest.approx(0.01)  # population convention

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_reserve([])
        with pytest.raises(ValidationError):
            overshoot_stats(CampaignResult(records=()))
        with pytest.raises(ValidationError):
            precision_stats(CampaignResult(records=()), [])

    def test_precision_all_on_target(self):
        targets = [TuningTarget(qubit_id=f"q{i}", target_resistance=4500.0) for i in range(3)]
        recs = tuple(_record(qid=f"q{i}", r_tuned=4500.0) for i in range(3))
        stats = precision_stats(CampaignResult(records=recs), targets)
        assert stats.mean_frac == 0.0 and stats.sigma_frac == 0.0

    def test_precision_symmetric_pair(self):
        targets = [TuningTarget(qubit_id=f"q{i}", target_resistance=1000.0) for i in range(2)]
        recs = (
            _record(qid="q0", r_tuned=1010.0),
            _record(qid="q1", r_tuned=990.0),
        )
        stats = precision_stats(CampaignResult(records=recs), targets)
        assert stats.mean_frac == pytest.approx(0.0)
        assert stats.sigma_frac == pytest.approx(0.01)

    def test_overshoot_exponential_mean_matches_sigma(self):
        qubits, targets = make_batch(2000, seed=21)
        result = run_campaign(qubits, targets, CampaignConfig(master_seed=21))
        stats = overshoot_stats(result)
        assert stats.mean == pytest.approx(1.9, abs=0.15)
        assert stats.sigma == pytest.approx(stats.mean, rel=0.10)


def _record(qid="q", r_last=4500.0, r_tuned=4510.0):
    from jjtrim.controller import QubitTuneRecord

    return QubitTuneRecord(
        qubit_id=qid,
        r_untuned=4000.0,
        threshold=4400.0,
        r_last_pulse=r_last,
        r_tuned=r_tuned,
        pulses=5,
    )
