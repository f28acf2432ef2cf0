import hashlib
import math
import types

import numpy as np
import pytest
from conftest import (
    OracleStream, chi2_pvalue, generator, ks_2samp, oracle_fabricated, oracle_record,
    per_pulse_record, rows,
)

from jjtrim import controller, junction
from jjtrim.controller import (
    CampaignConfig,
    MAX_CAMPAIGN_PULSES,
    MAX_CAMPAIGN_QUBITS,
    MEAN_STEP_OHM,
    RECORD_FIELDS,
    QubitStreams,
    campaign_stats,
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
    def test_stream_read_in_blocks(self, monkeypatch, noise):
        # a qubit 120 Ohm below its 1000 Ohm threshold: noiseless, it jumps
        # (a Poisson count of mean 63, two words a try) and walks one block of
        # one step; at 20 Ohm it starts above low, 172 Ohm below the
        # threshold, so it never jumps, and reads two words for its first read,
        # blocks of 1, 2, 3, ... pulses of three words each, and two for its probe
        reads = []
        words = QubitStreams.words
        monkeypatch.setattr(QubitStreams, "words",
                            lambda self, rows, k: reads.append(k) or words(self, rows, k))
        pulses = tune_one(880.0, 0.0, 1000.0, reserve=0.0, seed=3, noise=noise)["pulses"]
        assert reads[0] == 1  # the seeding step
        if noise:
            blocks = len(reads) - 3
            assert reads == [1, 2, *(3 * b for b in range(1, blocks + 1)), 2]
            assert blocks * (blocks - 1) // 2 < pulses <= blocks * (blocks + 1) // 2
        else:
            assert pulses > 1 and set(reads[1:-1]) == {2} and reads[-1] == 1


def oracle_campaign(r, rho, targets, seed, noise, record=oracle_record, stream=OracleStream):
    """Every qubit through a scalar oracle (``record``), one at a time, each
    reading its ``stream`` of (seed, id)."""
    return [
        record(r_i, rho_i, target, noise, stream(seed, target["qubit_id"]))
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
        want = [oracle_fabricated(4587.8, OracleStream(5, "fab:" + q)) for q in ids]
        assert list(zip(r.tolist(), rho.tolist())) == want

    def test_forced_redraws_match_scalar_oracle(self, monkeypatch):
        # spreads so wide that about a third of the resistances and a sixth
        # of the fractions fall outside their truncation and are redrawn
        monkeypatch.setattr(junction, "FAB_SIGMA_FRAC", 2.0)
        monkeypatch.setattr(junction, "RELAX_FRACTION_SIGMA", 0.03)
        ids = [f"Q{i:03d}" for i in range(100)]
        r, rho = sample_fabricated(4587.8, 5, ids)
        want = [oracle_fabricated(4587.8, OracleStream(5, "fab:" + q)) for q in ids]
        assert list(zip(r.tolist(), rho.tolist())) == want
        first = 4587.8 * (1.0 + junction.FAB_MEAN_OFFSET_FRAC) + 4587.8 * 2.0 * np.array(
            [OracleStream(5, "fab:" + q).normal() for q in ids])
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

    @pytest.mark.parametrize("walk_rows", [7, None])
    def test_rows_walked_in_chunks_in_any_order_match_scalar_oracle(self, monkeypatch, walk_rows):
        # 1400 qubits in a shuffled order, over 1024 of them pulsed, walk in
        # two chunks of _WALK_ROWS, or in chunks of 7; every record is the
        # oracle's all the same
        r, rho, targets = mixed_batch(1400, seed=29)
        order = np.random.default_rng(29).permutation(1400)
        r, rho, targets = r[order], rho[order], {
            k: [v[i] for i in order] if k == "qubit_id" else v[order] for k, v in targets.items()}
        if walk_rows:
            monkeypatch.setattr(controller, "_WALK_ROWS", walk_rows)
        records = run_campaign(r, rho, targets, CampaignConfig(29, 0.5))
        assert rows(records) == oracle_campaign(r, rho, targets, 29, 0.5)
        assert (records["pulses"] > 0).sum() > controller._WALK_ROWS

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
        want = oracle_campaign(r, rho, targets, 32, noise, record=per_pulse_record, stream=generator)
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


class FixedWords:
    """Streams whose row i reads ``PCG64(seed + i).random_raw`` one word at a time."""

    def __init__(self, n, seed):
        self.rows = [iter(np.random.PCG64(seed + i).random_raw(64).tolist()) for i in range(n)]

    def words(self, rows, k):
        return np.array([[next(self.rows[i]) for i in rows] for _ in range(k)],
                        np.uint64).reshape(k, len(rows))


class TestTransforms:
    """Raw words to draws: pinned values, so that an edit of a transform, or
    a NumPy ufunc in place of a ``math`` function, fails here by name. The
    fifth and sixth words are uniforms whose -log1p(-u) NumPy's AVX-512
    ``log1p`` rounds otherwise than libm."""

    WORDS = np.array([0, 1 << 11, 2**63, 0x0123456789ABCDEF, 0x6474A1D01DA07F0E,
                      0xCE6420C04B82EBE2, 2**64 - 1], np.uint64)

    def test_exponentials_pinned(self):
        assert [x.hex() for x in controller._exponentials(self.WORDS).tolist()] == [
            "0x0.0p+0", "0x1.0000000000000p-53", "0x1.62e42fefa39efp-1",
            "0x1.23eb991354e4bp-8", "0x1.fe343f76c2614p-2", "0x1.a41914798e392p+0",
            "0x1.25e4f7b2737fap+5"]

    def test_normals_pinned(self):
        assert [x.hex() for x in controller._normals(self.WORDS, self.WORDS[::-1]).tolist()] == [
            "0x0.0p+0", "0x1.6236ef13800c5p-28", "-0x1.d63e7b43eefe6p-1",
            "0x1.82743771e2249p-4", "-0x1.ff19ec0969073p-1", "0x1.cfc733f54c738p+0",
            "0x1.124b2800eda48p+3"]

    def test_largest_normal_below_walk_sigmas(self):
        # the largest word gives the largest exponential, 53 ln 2, and the
        # zero word an angle of 0, where cos is 1: no normal is larger in size
        top = controller._normals(self.WORDS[-1:], self.WORDS[:1])[0]
        assert top == pytest.approx(math.sqrt(2 * 53 * math.log(2)), rel=1e-15)
        assert top == math.sqrt(2 * controller._exponentials(self.WORDS).max())
        assert top < controller._WALK_SIGMAS

    @pytest.mark.parametrize("seed, counts", [
        (100, [0, 6, 7, 8, 164, 998456]),
        (200, [0, 8, 9, 13, 151, 1001591]),
        (300, [0, 2, 12, 7, 152, 1000640]),
    ])
    def test_poisson_counts_pinned(self, seed, counts):
        lam = np.array([0, 3, 9.99, 10, 150, 1e6])
        assert controller._poisson(FixedWords(6, seed), np.arange(6), lam).tolist() == counts

    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 9.99, 10.0, 10.5, 150.0, 1e6])
    def test_poisson_matches_scalar_oracle(self, lam):
        # 2000 rows, with their PTRS tries rejected and retried row by row
        keys = [f"Q{i}" for i in range(2000)]
        got = controller._poisson(QubitStreams(9, keys), np.arange(2000), np.full(2000, lam))
        assert got.tolist() == [OracleStream(9, key).poisson(lam) for key in keys]

    @pytest.mark.parametrize("lam", [3.0, 9.99, 10.0, 150.0])
    def test_poisson_law(self, lam):
        # chi-square over counts whose expected number is at least 20, the
        # tails pooled into the end bins
        n = 40_000
        counts = controller._poisson(QubitStreams(17, range(n)), np.arange(n), np.full(n, lam))
        x = np.arange(int(lam + 12 * math.sqrt(lam) + 20))
        pmf = np.exp([-lam + k * math.log(lam) - math.lgamma(k + 1) for k in x.tolist()])
        inside = np.flatnonzero(n * pmf >= 20)
        lo, hi = inside[0], inside[-1]
        expected = n * pmf[lo:hi + 1]
        expected[0] += n * pmf[:lo].sum()
        expected[-1] = n - expected[:-1].sum()
        observed = np.bincount(np.clip(counts, lo, hi) - lo, minlength=hi - lo + 1)
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi2_pvalue(stat, len(expected) - 1) >= 0.001, stat


class TestQubitStreams:
    # SeedSequence splits each integer into uint32 words: these seeds give
    # one, two, three and seven seed words, so rows of three to nine words,
    # and a row longer than the pool of four mixes its extra words last
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 3, 2**200]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_match_pcg64(self, seed):
        # reads of 1, 3, 255 and 256 words in turn, the last two past the
        # walk's longest block of three-word pulses at 85 and 86 pulses
        keys = ["", "fab:Q000", "qübit-Ω", "Q001"]
        streams = QubitStreams(seed, keys)
        got = np.concatenate([streams.words(slice(None), k) for k in (1, 3, 255, 256)])
        for key, column in zip(keys, got.T, strict=True):
            assert np.array_equal(column, OracleStream(seed, key).bits.random_raw(515)), key

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_words_match_oracle(self, seed):
        # 7 seeds x 1700 ids: over 10^4 (seed, id) pairs, read for a subset
        # of rows that skips every third
        ids = [f"Q{i:03d}" for i in range(850)] + [f"fab:Q{i:03d}" for i in range(850)]
        rows = np.flatnonzero(np.arange(len(ids)) % 3 != 2)
        got = QubitStreams(seed, ids).words(rows, 3)
        for i, column in zip(rows, got.T, strict=True):
            assert column.tolist() == OracleStream(seed, ids[i]).bits.random_raw(3).tolist(), ids[i]

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
        got = QubitStreams(seed, ["any"]).words(slice(None), 3)[:, 0]
        want = np.random.PCG64(np.random.SeedSequence([seed, qhash])).random_raw(3)
        assert np.array_equal(got, want)

    def test_no_ids_no_streams(self):
        assert QubitStreams(5, []).words(slice(None), 3).shape == (3, 0)

    @pytest.mark.parametrize("k", [0, 3 * controller._MAX_BLOCK + 1])
    def test_read_outside_jump_table_refused(self, k):
        with pytest.raises(ValidationError, match=f"^k must be > 0 and <= {3 * controller._MAX_BLOCK}"):
            QubitStreams(5, ["Q000"]).words(slice(None), k)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="master_seed must be >= 0"):
            QubitStreams(-1, ["Q000"])


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
        # digests of the records at a fixed seed, recorded when the campaign
        # streams became arrays of PCG64 states read through jjtrim's own
        # transforms (each record equal to the scalar oracle then); the noisy
        # ones have 0.5 Ohm probe noise. Any drift of either stream fails
        # here. Targets at 120% of design put each qubit about 650 pulses
        # below its threshold.
        pinned = [
            (0.0, 0.98, 6106,
             "084385fc597b4c882e26d1e25a8cdbca188de304a52bfbfe9f01eca10149ed34"),
            (0.0, 1.2, 31684,
             "67c2bf59f1a74272b53169c70babada69d72a507c9b772d76adec2fe3a08dc0c"),
            (0.5, 0.98, 6208,
             "8f2401904689be1ff544da75c47d8215352043777008b4cf968084920dfeb5d2"),
            (0.5, 1.2, 31792,
             "646ff4af739fd65226f0d1ecaf54258120459c405fa109105f0549135058a529"),
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
        # at 1 Ohm probe noise a qubit walks at most its last 8.6 Ohm: gaps to
        # threshold of 5 + 100 + 0 Ohm (one qubit above it) walk 13.6 Ohm,
        # 7.2 expected pulses, and run; 7.5 + 100 + 0 Ohm walk 16.1 Ohm, 8.5
        # pulses, and fail
        monkeypatch.setattr(controller, "MAX_CAMPAIGN_PULSES", 8)
        targets = make_targets(["a", "b", "c"], 109.0, reserve=0.0)
        run_campaign([104.0, 9.0, 200.0], [0.0] * 3, targets, CampaignConfig(0, 1.0))
        monkeypatch.setattr(controller, "QubitStreams", None)  # no stream is built
        with pytest.raises(ValidationError, match=r"^expected walked pulses must be finite "
                                                  r"and <= 8, got 8\.47"):
            run_campaign([101.5, 9.0, 200.0], [0.0] * 3, targets, CampaignConfig(0, 1.0))

    @pytest.mark.parametrize("noise, row", [(0.0, 8), (0.5, 7)], ids=["0.0", "0.5"])
    def test_campaign_names_lowest_failing_row(self, monkeypatch, noise, row):
        # rows 1, ``row`` and 20 are 595 steps below their thresholds, within
        # a budget of 600; row 1's seeded draws need no more, but those of
        # ``row`` and 20 do: every row is tuned at once, and the lower failing
        # row is named, as the oracle, which tunes rows in order, names it
        r, rho, targets = make_batch(300)
        for i in (1, row, 20):
            r[i] = targets["target_resistance"][i] / 1.0289 - 595 * MEAN_STEP_OHM
        monkeypatch.setattr(controller, "MAX_PULSES", 600)
        message = f"^qubit Q{row:03d}: max_pulses=600 exceeded$"
        with pytest.raises(InfeasibleError, match=message):
            run_campaign(r, rho, targets, CampaignConfig(7, noise))
        with pytest.raises(InfeasibleError, match=message):
            oracle_campaign(r, rho, targets, 7, noise)
        assert rows(run_campaign(r[:row], rho[:row], {k: v[:row] for k, v in targets.items()},
                                 CampaignConfig(7, noise)))[1]["pulses"] <= 600

    @pytest.mark.parametrize("noise", [0.0, 0.5])
    def test_gap_past_max_pulses_refused_before_any_stream(self, monkeypatch, noise):
        # row 200 is 1000 steps below its threshold, past a budget of 600, so
        # it is named before any stream is built, and before row 7, which
        # would fail only from its draws
        r, rho, targets = make_batch(300)
        threshold = targets["target_resistance"][0] / 1.0289
        r[7], r[200] = threshold - 595 * MEAN_STEP_OHM, threshold - 1000 * MEAN_STEP_OHM
        monkeypatch.setattr(controller, "MAX_PULSES", 600)
        monkeypatch.setattr(controller, "QubitStreams", None)
        with pytest.raises(InfeasibleError, match="^qubit Q200: max_pulses=600 exceeded$"):
            run_campaign(r, rho, targets, CampaignConfig(7, noise))

    def test_default_design_at_qubit_cap_within_pulse_cap(self):
        # about 2.2e6 walked pulses at the 0.5 Ohm probe noise of a tuning round
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
        # for the 221-qubit seed-7 batch; recorded when the campaign streams
        # became arrays of PCG64 states read through jjtrim's own transforms,
        # so any drift of a value, a key or their order fails here.
        pinned = {
            0.0: "2478995709d0a63fc8e15d288b4c99f2202a3328511b1835e9e6934dabd8cb14",
            0.5: "9a7345fe480f6d201c56d06bd654bd1db99908eb4ff14ad6be5749aacca4df90",
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
