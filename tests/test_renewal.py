"""The noiseless campaign against its closed form, from renewal theory.

Steps are exponential with mean mu = ``MEAN_STEP_OHM``, so the pulses are
the points of a Poisson process: from any start r0 below the stop threshold
thr = R_T / (1 + reserve), the overshoot past thr is Exp(mu), independent of
r0, and the pulse count less one is Poisson((thr - r0) / mu) (Feller, *An
Introduction to Probability Theory*, Vol. II, ch. XI; Cox, *Renewal
Theory*, 1962). The probe reads r_tuned = (thr + overshoot)(1 + rho), with
rho the qubit's relaxation fraction. Truncating the fabrication draws at 0
is about 10 sigma away, so the closed form ignores it.
"""

import math

import numpy as np
import pytest

from jjtrim.cli import DEFAULT_DESIGN_RESISTANCE
from jjtrim.controller import (
    MEAN_STEP_OHM, CampaignConfig, campaign_stats, qubit_rngs, run_campaign,
)
from jjtrim.freqmodel import AGING_BUDGET
from jjtrim.junction import (
    FAB_MEAN_OFFSET_FRAC, FAB_SIGMA_FRAC, RELAX_FRACTION_MEAN, RELAX_FRACTION_SIGMA,
    sample_fabricated,
)

N, SEED = 20_000, 1
MU = MEAN_STEP_OHM
TARGET = DEFAULT_DESIGN_RESISTANCE * (1.0 - AGING_BUDGET)
RESERVE = RELAX_FRACTION_MEAN
THRESHOLD = TARGET / (1.0 + RESERVE)
# The 0.999 quantile of chi-square with 19 degrees of freedom: the critical
# value of a 20-bin uniformity test at p = 0.001.
CHI2_19_P001 = 43.82


@pytest.fixture(scope="module")
def campaign():
    ids = [f"Q{i:05d}" for i in range(N)]
    r, rho = sample_fabricated(DEFAULT_DESIGN_RESISTANCE,
                               qubit_rngs(SEED, [f"fab:{q}" for q in ids]))
    targets = {"qubit_id": ids, "target_resistance": np.full(N, TARGET),
               "relaxation_reserve": np.full(N, RESERVE)}
    records = run_campaign(r, rho, targets, CampaignConfig(master_seed=SEED))
    return records, campaign_stats(records, targets)


def chi2_uniform(u, bins=20):
    """Pearson's statistic for u against Uniform(0, 1) in equal bins."""
    counts = np.bincount(np.minimum((u * bins).astype(int), bins - 1), minlength=bins)
    expected = len(u) / bins
    return float(((counts - expected) ** 2).sum() / expected)


def sigma_se(x):
    """Standard error of the population standard deviation of the sample x,
    from its fourth central moment."""
    d = x - x.mean()
    var, m4 = (d**2).mean(), (d**4).mean()
    return math.sqrt((m4 - var**2) / (4 * len(x) * var))


def test_share_already_above(campaign):
    records, _ = campaign
    mean = DEFAULT_DESIGN_RESISTANCE * (1.0 + FAB_MEAN_OFFSET_FRAC)
    sigma = DEFAULT_DESIGN_RESISTANCE * FAB_SIGMA_FRAC
    p = 0.5 * math.erfc((THRESHOLD - mean) / (sigma * math.sqrt(2.0)))
    share = records["already_above_target"].mean()
    assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / N)


def test_moments(campaign):
    records, stats = campaign
    tuned = ~records["already_above_target"]
    r_last, r_tuned = records["r_last_pulse"][tuned], records["r_tuned"][tuned]
    # precision + 1 = A * B with A = 1 + rho and B = 1 / (1 + reserve) + E / R_T
    a_mean = 1.0 + RELAX_FRACTION_MEAN
    a_sq = a_mean**2 + RELAX_FRACTION_SIGMA**2
    b_mean = 1.0 / (1.0 + RESERVE) + MU / TARGET
    b_sq = b_mean**2 + (MU / TARGET) ** 2
    closed_form = {
        ("precision_mean_frac", "precision_sigma_frac"): (
            a_mean * b_mean - 1.0, math.sqrt(a_sq * b_sq - (a_mean * b_mean) ** 2),
            (r_tuned - TARGET) / TARGET),
        ("overshoot_mean_ohm", "overshoot_sigma_ohm"): (MU, MU, r_last - THRESHOLD),
        ("reserve_mean", "reserve_sigma"): (
            RELAX_FRACTION_MEAN, RELAX_FRACTION_SIGMA, (r_tuned - r_last) / r_last),
    }
    n = len(r_last)
    for (mean_key, sigma_key), (mean, sigma, x) in closed_form.items():
        assert abs(stats[mean_key] - mean) <= 4 * sigma / math.sqrt(n), mean_key
        assert abs(stats[sigma_key] - sigma) <= 4 * sigma_se(x), sigma_key


def test_overshoot_is_exponential(campaign):
    records, _ = campaign
    tuned = ~records["already_above_target"]
    overshoot = records["r_last_pulse"][tuned] - THRESHOLD
    assert chi2_uniform(-np.expm1(-overshoot / MU)) < CHI2_19_P001


def test_pulses_are_poisson_in_the_gap(campaign):
    records, _ = campaign
    tuned = ~records["already_above_target"]
    lam = (THRESHOLD - records["r_untuned"][tuned]) / MU
    k = records["pulses"][tuned] - 1
    assert abs((k - lam).sum()) <= 4 * math.sqrt(lam.sum())
    # Randomised probability integral transform: u = F(k - 1) + V p(k) is
    # Uniform(0, 1) when k ~ Poisson(lam); F and p by the pmf recurrence.
    assert lam.max() < 700  # exp(-lam) stays a normal float
    p, below = np.exp(-lam), np.zeros_like(lam)
    for j in range(1, int(k.max()) + 1):
        below += p * (j <= k)
        p = np.where(j <= k, p * lam / j, p)
    u = below + np.random.default_rng(SEED).random(len(k)) * p
    assert chi2_uniform(u) < CHI2_19_P001
