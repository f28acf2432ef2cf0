import collections
import hashlib
import math
import types

import numpy as np
import pytest
from conftest import ks_2samp, oracle_fabricated, oracle_record, oracle_rng, per_pulse_record, rows

from jjtrim import controller, junction
from jjtrim.controller import (
    CampaignConfig,
    MAX_CAMPAIGN_PULSES,
    MAX_CAMPAIGN_QUBITS,
    MEAN_STEP_OHM,
    RECORD_FIELDS,
    campaign_stats,
    qubit_rngs,
    run_campaign,
)
from jjtrim.errors import InfeasibleError, ValidationError
from jjtrim.junction import sample_fabricated


def make_targets(ids, target, reserve=0.0289):
    return {"qubit_id": list(ids), "target_resistance": np.full(len(ids), float(target)),
            "relaxation_reserve": np.full(len(ids), float(reserve))}


def make_batch(n, design=4587.8, seed=7, reserve=0.0289, target_frac=0.98):
    """(r_untuned, relax_fraction, targets) of n qubits drawn as simulate-tuning draws them."""
    ids = [f"Q{i:03d}" for i in range(n)]
    r, rho = sample_fabricated(design, seed, ids)
    return r, rho, make_targets(ids, design * target_frac, reserve)


def mixed_batch(n, seed=23):
    """``make_batch`` with targets uniform in 0.8-1.5x design and reserves in
    0-0.1: some qubits start above their threshold, some cross within 512
    pulses and some only after more than 1024."""
    r, rho, targets = make_batch(n, seed=seed)
    rng = np.random.default_rng(seed)
    targets["target_resistance"] = 4587.8 * rng.uniform(0.8, 1.5, n)
    targets["relaxation_reserve"] = rng.uniform(0.0, 0.1, n)
    return r, rho, targets


def tune_one(r, rho, target, reserve=0.0289, seed=0, noise=0.0, qid="q"):
    """One qubit's record, as a dict of Python values."""
    targets = make_targets([qid], target, reserve)
    (rec,) = rows(run_campaign([r], [rho], targets, CampaignConfig(seed, noise)))
    return rec


class TestThreshold:
    def test_paper_scale_arithmetic(self):
        assert tune_one(5000.0, 0.0, 4625.9)["threshold"] == pytest.approx(4496.0, abs=0.05)

    def test_zero_reserve(self):
        assert tune_one(5000.0, 0.0, 4500.0, reserve=0.0)["threshold"] == 4500.0

    def test_exact_quarter(self):
        assert tune_one(5000.0, 0.0, 1000.0, reserve=0.25)["threshold"] == pytest.approx(800.0)

    def test_invalid_reserve(self):
        with pytest.raises(ValidationError, match=r"targets\[0\].relaxation_reserve must be"):
            tune_one(5000.0, 0.0, 1000.0, reserve=-0.5)


class TestTuneQubit:
    def test_already_above_threshold(self):
        rec = tune_one(5000.0, 0.0, 4500.0)
        assert rec["pulses"] == 0
        assert rec["already_above_target"]

    def test_max_pulses_guard_carries_partial_record(self, monkeypatch):
        monkeypatch.setattr(controller, "MAX_PULSES", 10)
        with pytest.raises(InfeasibleError, match="qubit q: max_pulses=10 exceeded"):
            tune_one(100.0, 0.0, 10000.0)

    def test_stop_correctness(self):
        r, rho, targets = make_batch(30)
        for rec in rows(run_campaign(r, rho, targets, CampaignConfig(master_seed=7))):
            assert rec["r_last_pulse"] >= rec["threshold"]
            assert rec["r_tuned"] >= rec["r_last_pulse"]

    def test_max_pulses_guard_noisy_path(self, monkeypatch):
        monkeypatch.setattr(controller, "MAX_PULSES", 10)
        with pytest.raises(InfeasibleError, match="qubit q: max_pulses=10 exceeded"):
            tune_one(100.0, 0.0, 10000.0, noise=0.1)

    @pytest.mark.parametrize("noise", [0.0, 20.0])
    def test_walk_draws_one_step_and_one_read_per_pulse(self, monkeypatch, noise):
        # a qubit 120 Ohm below its 1000 Ohm threshold: noiseless, it jumps
        # (one Poisson count) and walks one step; at 20 Ohm it starts above
        # low, 250 Ohm below the threshold, so it never jumps and every pulse
        # is walked
        calls = collections.Counter()

        class Counted:  # a qubit's stream, counting the draws asked of it
            def __init__(self, state):
                self.rng = stream(state)

            def __getattr__(self, name):
                calls[name] += 1
                return getattr(self.rng, name)

        stream = controller._stream
        monkeypatch.setattr(controller, "_stream", Counted)
        pulses = tune_one(880.0, 0.0, 1000.0, reserve=0.0, seed=3, noise=noise)["pulses"]
        if noise:
            assert pulses > 1
            assert calls == {"standard_exponential": pulses, "standard_normal": pulses + 2}
        else:
            assert calls == {"poisson": 1, "standard_exponential": 1}


def oracle_campaign(r, rho, targets, seed, noise, record=oracle_record):
    """Every qubit through a scalar oracle (``record``), one at a time."""
    return [
        record(r_i, rho_i, target, noise, oracle_rng(seed, target["qubit_id"]))
        for r_i, rho_i, target in zip(r.tolist(), rho.tolist(),
                                      rows(targets, controller.TARGET_FIELDS))
    ]


class TestOracles:
    """The campaign against one scalar qubit at a time, record for record."""

    @pytest.mark.parametrize("target_frac", [0.98, 1.2])
    @pytest.mark.parametrize("noise", [0.0, 0.5])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 300])
    def test_records_match_scalar_oracle(self, n, noise, target_frac):
        r, rho, targets = make_batch(n, seed=19, target_frac=target_frac)
        # every fifth qubit from the second on starts above its threshold
        r[1::5] = 4587.8 * 1.25
        records = run_campaign(r, rho, targets, CampaignConfig(19, noise))
        want = oracle_campaign(r, rho, targets, 19, noise)
        assert rows(records) == want
        assert sum(rec["already_above_target"] for rec in want) >= len(r[1::5])
        if target_frac > 1:
            assert max(rec["pulses"] for rec in want) > 512

    def test_fabrication_matches_scalar_oracle(self):
        ids = [f"Q{i:03d}" for i in range(517)]
        r, rho = sample_fabricated(4587.8, 5, ids)
        want = [oracle_fabricated(4587.8, oracle_rng(5, "fab:" + q)) for q in ids]
        assert list(zip(r.tolist(), rho.tolist())) == want

    def test_forced_redraws_match_scalar_oracle(self, monkeypatch):
        # spreads so wide that about a third of the resistances and a sixth
        # of the fractions fall outside their truncation and are redrawn
        monkeypatch.setattr(junction, "FAB_SIGMA_FRAC", 2.0)
        monkeypatch.setattr(junction, "RELAX_FRACTION_SIGMA", 0.03)
        ids = [f"Q{i:03d}" for i in range(100)]
        r, rho = sample_fabricated(4587.8, 5, ids)
        want = [oracle_fabricated(4587.8, oracle_rng(5, "fab:" + q)) for q in ids]
        assert list(zip(r.tolist(), rho.tolist())) == want
        first = 4587.8 * (1.0 + junction.FAB_MEAN_OFFSET_FRAC) + 4587.8 * 2.0 * np.array(
            [oracle_rng(5, "fab:" + q).standard_normal() for q in ids])
        assert 20 <= np.sum(first <= 0) <= 50
        targets = make_targets(ids, 4587.8 * 0.98)
        for noise in (0.0, 0.5):
            records = run_campaign(r, rho, targets, CampaignConfig(5, noise))
            assert rows(records) == oracle_campaign(r, rho, targets, 5, noise)

    @pytest.mark.parametrize("noise", [0.0, 0.5, 20.0])
    def test_mixed_block_matches_scalar_oracle(self, noise):
        # the batch holds qubits above their threshold, qubits that cross
        # within 512 pulses and qubits that need more than 1024
        r, rho, targets = mixed_batch(257)
        records = run_campaign(r, rho, targets, CampaignConfig(23, noise))
        assert rows(records) == oracle_campaign(r, rho, targets, 23, noise)
        pulses = records["pulses"]
        assert (pulses == 0).any()
        assert ((0 < pulses) & (pulses <= 512)).any()
        assert (pulses > 1024).any()

    @pytest.mark.parametrize("noise", [0.0, 0.5])
    @pytest.mark.parametrize("n, needs, named", [
        # rows 259 and 265 need about 1000 pulses and row 261 about 550,
        # within the budget: the lower failing row is named
        (512, {259: 1000, 261: 550, 265: 1000}, 259),
        # a failing row is named before a later one, whichever is listed first
        (513, {257: 1000, 7: 1000}, 7),
    ], ids=["one-block", "across-blocks"])
    def test_max_pulses_guard_names_oracle_qubit(self, monkeypatch, noise, n, needs, named):
        monkeypatch.setattr(controller, "MAX_PULSES", 600)
        r, rho, targets = make_batch(n)
        threshold = targets["target_resistance"][0] / 1.0289
        for i, pulses in needs.items():
            r[i] = threshold - pulses * MEAN_STEP_OHM
        with pytest.raises(InfeasibleError) as got:
            run_campaign(r, rho, targets, CampaignConfig(7, noise))
        with pytest.raises(InfeasibleError) as want:
            oracle_campaign(r, rho, targets, 7, noise)
        message = f"qubit Q{named:03d}: max_pulses=600 exceeded"
        assert str(got.value) == str(want.value) == message


class TestLaw:
    """The jump and walk against the per-pulse loop, as distributions: two
    independent samples of the same qubits, one from each."""

    @pytest.mark.parametrize("noise", [0.0, 0.5, 20.0])
    def test_records_follow_per_pulse_law(self, noise):
        r, rho, targets = make_batch(3000, seed=31)
        got = run_campaign(r, rho, targets, CampaignConfig(31, noise))
        want = oracle_campaign(r, rho, targets, 32, noise, record=per_pulse_record)
        want = {k: np.array([rec[k] for rec in want]) for k in RECORD_FIELDS}
        for records in (got, want):  # the shared part of the pulse count, and the overshoot
            records["pulses"] = records["pulses"] - (records["threshold"] - r) / MEAN_STEP_OHM
            records["r_last_pulse"] = records["r_last_pulse"] - records["threshold"]
        for name in ("pulses", "r_last_pulse", "r_tuned"):
            assert ks_2samp(got[name], want[name]) >= 0.01, name

    @pytest.mark.parametrize("noise", [0.5, 20.0, 1e-3])
    def test_every_crossing_read_at_or_above_threshold(self, noise):
        # exactly, in floating point, as the campaign checker requires
        r, rho, targets = mixed_batch(500, seed=5)
        records = run_campaign(r, rho, targets, CampaignConfig(5, noise))
        pulsed = records["pulses"] > 0
        assert pulsed.sum() > 300
        assert (records["r_last_pulse"][pulsed] >= records["threshold"][pulsed]).all()

    def test_no_read_below_the_walk_crosses(self):
        # NumPy's float64 ziggurat draws a standard normal above its tail
        # start r only as r + x, kept when x^2 < -2 ln(1 - u) for a 53-bit
        # uniform u, so no draw reaches r + sqrt(2 * 53 ln 2); the normal
        # tail past the walk is negligible besides
        assert controller._WALK_SIGMAS > 3.6541528853610088 + math.sqrt(2 * 53 * math.log(2))
        assert 0.5 * math.erfc(controller._WALK_SIGMAS / math.sqrt(2)) < 1e-35


class TestQubitStreams:
    # SeedSequence splits each integer into uint32 words: these seeds give
    # one, two and three seed words, so rows of three to five words, and a
    # row longer than the pool of four mixes its extra words last
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 3]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_draws_match_seed_sequence(self, seed):
        # 6 seeds x 1700 ids: over 10^4 (seed, id) pairs
        ids = [f"Q{i:03d}" for i in range(850)] + [f"fab:Q{i:03d}" for i in range(850)]
        for qid, rng in zip(ids, qubit_rngs(seed, ids), strict=True):
            assert np.array_equal(rng.random(3), oracle_rng(seed, qid).random(3)), qid

    def test_seed_states_match_seed_sequence(self):
        # one batch of mixed lengths: a hash below 2**32 (one hash word), a
        # hash of 0, a bare seed, the full pool, and rows past it
        rows = [[7, 5], [7, 0], [0], [3, 0xDEADBEEF, 0x01234567], [1, 0, 5, 6],
                [5, 1, 2, 3, 4], [2**32 - 1, 1, 2, 3, 4, 5, 6]]
        words = np.zeros((len(rows), max(map(len, rows))), np.uint32)
        for i, row in enumerate(rows):
            words[i, : len(row)] = row
        states = controller._seed_states(words, np.array([len(row) for row in rows]))
        for row, state in zip(rows, states, strict=True):
            assert np.array_equal(state, np.random.SeedSequence(row).generate_state(4, np.uint64))

    @pytest.mark.parametrize("qhash", [0, 5, 2**32 - 1, 2**32])
    @pytest.mark.parametrize("seed", [0, 2**70 + 3])
    def test_short_hash_split_as_seed_sequence(self, monkeypatch, seed, qhash):
        # no id is known whose sha256 starts with four zero bytes, so the
        # digest is replaced to reach the one-word hash
        digest = types.SimpleNamespace(digest=lambda: qhash.to_bytes(8, "big") + bytes(24))
        monkeypatch.setattr(controller, "hashlib", types.SimpleNamespace(sha256=lambda _: digest))
        (rng,) = qubit_rngs(seed, ["any"])
        want = np.random.default_rng(np.random.SeedSequence([seed, qhash]))
        assert np.array_equal(rng.random(3), want.random(3))

    def test_no_ids_no_streams(self):
        assert list(qubit_rngs(5, [])) == []

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="master_seed must be >= 0"):
            next(qubit_rngs(-1, ["Q000"]))


class TestCampaign:
    def test_empty_campaign(self):
        records = run_campaign([], [], make_targets([], 1.0), CampaignConfig(master_seed=0))
        assert list(records) == list(RECORD_FIELDS)
        assert rows(records) == []

    def test_length_mismatch(self):
        r, rho, targets = make_batch(3)
        with pytest.raises(ValidationError, match="qubit/target length mismatch: 2 vs 3"):
            run_campaign(r[:2], rho[:2], targets, CampaignConfig(master_seed=0))

    def test_noiseless_and_noisy_records_pinned(self):
        # digests of the records at a fixed seed, recorded when the jump and
        # walk replaced the per-pulse loop (each record equal to the scalar
        # oracle then); the noisy ones have 0.5 Ohm probe noise and were
        # recorded again when the walk went pulse by pulse and when it grew
        # from 6 to 12.5 probe sigmas. Any drift of
        # either stream fails here. Targets at 120% of design put each qubit
        # about 650 pulses below its threshold.
        pinned = [
            (0.0, 0.98, 7207,
             "c8c1a25fb06299e9bb27c9e8295e4869bf117bc96ef0e448103291cfdf573555"),
            (0.0, 1.2, 32796,
             "f863ea767627134483b8829a6909822cb806c4f825b0aa10adb8debaf80e8f67"),
            (0.5, 0.98, 7459,
             "15e8f49c3e8c318eff4125ebebcca10c233e141dc51fde098cdf90c528445e65"),
            (0.5, 1.2, 33380,
             "03fb87f416b0704a94bca0d4e9889239f99514bc4f1943f84130a9e642e2691c"),
        ]
        for noise, target_frac, pulses, digest in pinned:
            r, rho, targets = make_batch(50, seed=11, target_frac=target_frac)
            config = CampaignConfig(master_seed=11, noise_sigma=noise)
            records = run_campaign(r, rho, targets, config)
            # .tolist() first: repr(np.float64(x)) is not repr(x)
            recs = [tuple(rec.values()) for rec in rows(records)]
            assert sum(records["pulses"].tolist()) == pulses
            assert hashlib.sha256(repr(recs).encode()).hexdigest() == digest

    def test_noisy_campaign_stops_above_threshold(self):
        r, rho, targets = make_batch(221)
        config = CampaignConfig(master_seed=7, noise_sigma=0.5)
        records = run_campaign(r, rho, targets, config)
        for rec in rows(records):
            if not rec["already_above_target"]:
                assert rec["pulses"] > 0
                assert rec["r_last_pulse"] >= rec["threshold"]
        stats = campaign_stats(records, targets)
        assert 0.0025 <= stats["precision_sigma_frac"] <= 0.0045

    def test_precision_band(self):
        r, rho, targets = make_batch(221)
        records = run_campaign(r, rho, targets, CampaignConfig(master_seed=7))
        stats = campaign_stats(records, targets)
        assert 0.0025 <= stats["precision_sigma_frac"] <= 0.0045
        assert -0.001 <= stats["precision_mean_frac"] <= 0.004

    def test_long_tuning_distance(self):
        # 18.5% below the stop threshold tunes without error
        r0 = 4625.9 / 1.0289 / 1.185
        rec = tune_one(r0, 0.0289, 4625.9, seed=3, qid="far")
        assert (rec["threshold"] - rec["r_untuned"]) / rec["r_untuned"] > 0.18
        assert rec["r_last_pulse"] >= rec["threshold"]
        # the probe waits the relaxation trajectory's normalisation point,
        # so the realised relaxation is exactly the qubit's rho
        realised = (rec["r_tuned"] - rec["r_last_pulse"]) / rec["r_last_pulse"]
        assert realised == pytest.approx(0.0289, rel=1e-12)

    def test_order_independence(self):
        r, rho, targets = make_batch(40)
        config = CampaignConfig(master_seed=5)
        fwd = run_campaign(r, rho, targets, config)
        rev_targets = {k: v[::-1] for k, v in targets.items()}
        rev = run_campaign(r[::-1], rho[::-1], rev_targets, config)
        fwd_stats = campaign_stats(fwd, targets)
        rev_stats = campaign_stats(rev, rev_targets)
        assert fwd_stats == pytest.approx(rev_stats, rel=1e-12)
        assert rows(fwd) == rows(rev)[::-1]

    def test_probe_noise_on_unpulsed_qubits(self):
        # with rho = 0 an unpulsed qubit's probe differs from its true
        # resistance only by the read error, which has the probe's sigma
        n = 10**4
        targets = make_targets([f"q{i}" for i in range(n)], 4500.0)
        config = CampaignConfig(master_seed=4, noise_sigma=0.5)
        records = run_campaign(np.full(n, 5000.0), np.zeros(n), targets, config)
        assert records["already_above_target"].all() and not records["pulses"].any()
        errors = records["r_tuned"] - records["r_untuned"]
        assert errors.std() == pytest.approx(0.5, abs=0.02)
        assert abs(errors.mean()) < 0.02

    def test_variance_composition(self):
        # precision variance decomposes into relaxation-draw variance plus
        # relative overshoot variance (within 20%)
        r, rho, targets = make_batch(10**4, seed=13)
        records = run_campaign(r, rho, targets, CampaignConfig(master_seed=13))
        stats = campaign_stats(records, targets)
        r_mean = records["r_last_pulse"].mean()
        predicted = np.sqrt(rho.std() ** 2 + (stats["overshoot_sigma_ohm"] / r_mean) ** 2)
        sigma = stats["precision_sigma_frac"]
        assert abs(sigma**2 - predicted**2) / predicted**2 < 0.20

    def test_repeated_target_id_named_as_the_loader_names_it(self):
        targets = make_targets(["A", "B", "A"], 4400.0)
        with pytest.raises(ValidationError, match=r"^targets\[2\]\.qubit_id: duplicate 'A'$"):
            run_campaign([4000.0] * 3, [0.03] * 3, targets, CampaignConfig(1))
        with pytest.raises(ValidationError, match=r"^targets\[2\]\.qubit_id: duplicate 'A'$"):
            campaign_stats(_records(_record("A"), _record("B")), targets)

    def test_expected_pulses_capped_before_first_pulse(self, monkeypatch):
        # at 1 Ohm probe noise a qubit walks at most its last 12.5 Ohm: gaps to
        # threshold of 5 + 100 + 0 Ohm (one qubit above it) walk 17.5 Ohm,
        # 9.2 expected pulses, and run; 7.5 + 100 + 0 Ohm walk 20 Ohm, 10.5
        # pulses, and fail
        monkeypatch.setattr(controller, "MAX_CAMPAIGN_PULSES", 10)
        targets = make_targets(["a", "b", "c"], 109.0, reserve=0.0)
        run_campaign([104.0, 9.0, 200.0], [0.0] * 3, targets, CampaignConfig(0, 1.0))
        monkeypatch.setattr(controller, "_stream", None)  # no stream is built
        with pytest.raises(ValidationError, match=r"^expected walked pulses must be finite "
                                                  r"and <= 10, got 10\.52"):
            run_campaign([101.5, 9.0, 200.0], [0.0] * 3, targets, CampaignConfig(0, 1.0))

    @pytest.mark.parametrize("noise, row", [(0.0, 8), (0.5, 7)], ids=["0.0", "0.5"])
    def test_campaign_stops_at_first_failing_row(self, monkeypatch, noise, row):
        # the row is 595 steps below its threshold, within a budget of 600,
        # but its seeded draws need more: it is named, as the oracle names
        # it, before any later row's stream is built
        r, rho, targets = make_batch(300)
        r[row] = targets["target_resistance"][row] / 1.0289 - 595 * MEAN_STEP_OHM
        monkeypatch.setattr(controller, "MAX_PULSES", 600)
        built, stream = [], controller._stream
        monkeypatch.setattr(controller, "_stream", lambda state: built.append(state) or stream(state))
        message = f"^qubit Q{row:03d}: max_pulses=600 exceeded$"
        with pytest.raises(InfeasibleError, match=message):
            run_campaign(r, rho, targets, CampaignConfig(7, noise))
        assert len(built) == row + 1
        with pytest.raises(InfeasibleError, match=message):
            oracle_campaign(r, rho, targets, 7, noise)

    @pytest.mark.parametrize("noise", [0.0, 0.5])
    def test_gap_past_max_pulses_refused_before_any_stream(self, monkeypatch, noise):
        # row 200 is 1000 steps below its threshold, past a budget of 600, so
        # it is named before any stream is built, and before row 7, which
        # would fail only from its draws
        r, rho, targets = make_batch(300)
        threshold = targets["target_resistance"][0] / 1.0289
        r[7], r[200] = threshold - 595 * MEAN_STEP_OHM, threshold - 1000 * MEAN_STEP_OHM
        monkeypatch.setattr(controller, "MAX_PULSES", 600)
        monkeypatch.setattr(controller, "_stream", None)
        with pytest.raises(InfeasibleError, match="^qubit Q200: max_pulses=600 exceeded$"):
            run_campaign(r, rho, targets, CampaignConfig(7, noise))

    def test_default_design_at_qubit_cap_within_pulse_cap(self):
        # about 3.1e6 walked pulses at the 0.5 Ohm probe noise of a tuning round
        r, _rho, targets = make_batch(10_000)
        threshold = targets["target_resistance"] / (1 + targets["relaxation_reserve"])
        gap = np.maximum(threshold - r, 0)
        walked = np.minimum(gap, controller._WALK_SIGMAS * 0.5).mean() / MEAN_STEP_OHM
        assert 2e6 < MAX_CAMPAIGN_QUBITS * walked < MAX_CAMPAIGN_PULSES
        assert gap.max() / MEAN_STEP_OHM < controller.MAX_PULSES

    def test_out_of_range_qubits_rejected(self):
        r, rho, targets = make_batch(3)
        r[1] = -1.0
        with pytest.raises(ValidationError, match=r"qubits\[1\].r_untuned must be finite and > 0"):
            run_campaign(r, rho, targets, CampaignConfig(master_seed=0))


class TestStatistics:
    def test_reserve_recovers_draws(self):
        r, rho, targets = make_batch(221)
        records = run_campaign(r, rho, targets, CampaignConfig(master_seed=7))
        stats = campaign_stats(records, targets)
        assert stats["reserve_mean"] == pytest.approx(0.0289, abs=0.0010)
        assert stats["reserve_sigma"] == pytest.approx(0.0030, abs=0.0010)

    def test_single_record_zero_spread(self):
        stats = campaign_stats(_records(_record(r_last=4500.0, r_tuned=4500.0)), _target())
        assert stats["reserve_mean"] == 0.0 and stats["reserve_sigma"] == 0.0

    def test_two_record_hand_statistics(self):
        recs = _records(
            _record(r_last=1000.0, r_tuned=1010.0),
            _record(r_last=1000.0, r_tuned=1030.0),
        )
        stats = campaign_stats(recs, _target())
        assert stats["reserve_mean"] == pytest.approx(0.02)
        assert stats["reserve_sigma"] == pytest.approx(0.01)  # population convention

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError, match="no tuned records to aggregate"):
            campaign_stats(_records(), _target())
        untuned = dict(zip(RECORD_FIELDS, ("q", 5000.0, 4400.0, 5000.0, 5000.0, 0, True)))
        with pytest.raises(ValidationError, match="no tuned records to aggregate"):
            campaign_stats(_records(untuned), _target())
        with pytest.raises(ValidationError, match="no target for qubit q"):
            campaign_stats(_records(_record()), make_targets([], 1.0))

    def test_precision_all_on_target(self):
        targets = make_targets([f"q{i}" for i in range(3)], 4500.0)
        recs = _records(*(_record(qid=f"q{i}", r_tuned=4500.0) for i in range(3)))
        stats = campaign_stats(recs, targets)
        assert stats["precision_mean_frac"] == 0.0 and stats["precision_sigma_frac"] == 0.0

    def test_precision_symmetric_pair(self):
        targets = make_targets(["q0", "q1"], 1000.0)
        recs = _records(_record(qid="q0", r_tuned=1010.0), _record(qid="q1", r_tuned=990.0))
        stats = campaign_stats(recs, targets)
        assert stats["precision_mean_frac"] == pytest.approx(0.0)
        assert stats["precision_sigma_frac"] == pytest.approx(0.01)
        assert stats["precision_min_frac"] == pytest.approx(-0.01)
        assert stats["precision_max_frac"] == pytest.approx(0.01)

    def test_overshoot_exponential_mean_matches_sigma(self):
        r, rho, targets = make_batch(2000, seed=21)
        records = run_campaign(r, rho, targets, CampaignConfig(master_seed=21))
        stats = campaign_stats(records, targets)
        assert stats["overshoot_mean_ohm"] == pytest.approx(1.9, abs=0.15)
        assert stats["overshoot_sigma_ohm"] == pytest.approx(stats["overshoot_mean_ohm"], rel=0.10)

    def test_statistics_pinned(self):
        # sha256 of the repr of the eight statistics, keys in report order,
        # for the 221-qubit seed-7 batch; recorded when the jump and walk
        # replaced the per-pulse loop (the noisy one again when the walk went
        # pulse by pulse and when it grew to 12.5 probe sigmas), so any
        # drift of a value, a key or their order fails here.
        pinned = {
            0.0: "0c1d00733e2e474d66a23d436a634b2c559e8a4a3b901e6d3dbd55aa95136821",
            0.5: "efb8f14fd9eaed1cd4334299562f30ea0c12fb2429849b075cdcf1e2c425d13d",
        }
        r, rho, targets = make_batch(221)
        for noise, digest in pinned.items():
            config = CampaignConfig(master_seed=7, noise_sigma=noise)
            stats = campaign_stats(run_campaign(r, rho, targets, config), targets)
            assert hashlib.sha256(repr(stats).encode()).hexdigest() == digest

    def test_out_of_range_record_rejected(self):
        # a zero read divides by zero in the reserve; the statistic is
        # rejected by name, not returned or raised as ZeroDivisionError
        recs = _records(_record(r_last=0.0), _record())
        with pytest.raises(ValidationError, match=r"overflow \(reserve_mean, reserve_sigma\)"):
            campaign_stats(recs, _target())


def _target():
    return make_targets(["q"], 4500.0)


def _record(qid="q", r_last=4500.0, r_tuned=4510.0):
    return dict(zip(RECORD_FIELDS, (qid, 4000.0, 4400.0, r_last, r_tuned, 5, False)))


def _records(*recs):
    """Record rows as the record columns ``campaign_stats`` takes."""
    return {k: [rec[k] for rec in recs] for k in RECORD_FIELDS}
