"""End-to-end acceptance checks.

Each test exercises one headline claim of the toolkit at its stated
tolerance and records a PASS/FAIL line; conftest prints the collected
scoreboard after the run, outside pytest's output capture.
"""

import time

import numpy as np

from jjtrim.cli import DEFAULT_DESIGN_RESISTANCE
from jjtrim.controller import CampaignConfig, campaign_stats, qubit_rngs, run_campaign
from jjtrim.errors import InfeasibleError
from jjtrim.freqmodel import (
    PowerLawModel,
    fit_power_law,
    fit_segmented_power_law,
    freq_equiv_sigma,
    invert_R,
    predict_f,
)
from jjtrim.junction import RELAX_FRACTION_MEAN, relaxation_shape, sample_fabricated
from jjtrim.lattice import (
    QubitLattice,
    detuning_error_sigma,
    optimize_parking,
    spread_after_centering,
    subtract_global_offset,
)
from jjtrim.yieldmc import (
    YieldConfig,
    generate_unit_cell,
    mc_chip_yield,
    tile,
    wafer_projection,
    yield_curve,
)

DESIGN_R = DEFAULT_DESIGN_RESISTANCE


def report(criterion: str, passed: bool):
    from conftest import ACCEPTANCE_LINES

    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, criterion


def targets_at(ids, target_resistance):
    return {"qubit_id": ids, "target_resistance": np.full(len(ids), target_resistance),
            "relaxation_reserve": np.full(len(ids), RELAX_FRACTION_MEAN)}


def tuned_batch(n=61, seed=7):
    ids = [f"Q{i:03d}" for i in range(n)]
    r, rho = sample_fabricated(DESIGN_R, qubit_rngs(seed, [f"fab:{q}" for q in ids]))
    targets = targets_at(ids, DESIGN_R * 0.98)
    records = run_campaign(r, rho, targets, CampaignConfig(master_seed=seed))
    return records, targets


def test_1_overshoot_statistics():
    start = time.perf_counter()
    records, targets = tuned_batch(61)
    stats = campaign_stats(records, targets)
    mean, sigma = stats["overshoot_mean_ohm"], stats["overshoot_sigma_ohm"]
    elapsed = time.perf_counter() - start
    ok = abs(mean - 1.9) <= 0.5 and abs(sigma - 1.7) <= 0.5 and elapsed < 1.0
    report(
        f"1 overshoot: mean {mean:.2f} Ohm (1.9±0.5), "
        f"sigma {sigma:.2f} Ohm (1.7±0.5), {elapsed:.2f} s",
        ok,
    )


def test_2_relaxation_shift():
    start = time.perf_counter()
    records, _ = tuned_batch(61)
    tuned = ~records["already_above_target"]
    shifts = (records["r_tuned"] - records["r_last_pulse"])[tuned]
    elapsed = time.perf_counter() - start
    ok = 110.0 <= shifts.mean() <= 145.0 and 10.0 <= shifts.std() <= 25.0 and elapsed < 1.0
    report(
        f"2 relaxation shift: mean {shifts.mean():.1f} Ohm ([110,145]), "
        f"sigma {shifts.std():.1f} Ohm ([10,25]), {elapsed:.2f} s",
        ok,
    )


def test_3_targeted_precision():
    start = time.perf_counter()
    records, targets = tuned_batch(221)
    stats = campaign_stats(records, targets)
    sigma, mean = stats["precision_sigma_frac"], stats["precision_mean_frac"]
    # one long-haul qubit starting 18.5% below its target
    far_target = DESIGN_R * 0.98
    far = run_campaign([far_target * (1.0 - 0.185)], [RELAX_FRACTION_MEAN],
                       targets_at(["FAR"], far_target), CampaignConfig(master_seed=7))
    far_pulses = int(far["pulses"][0])
    distance = (far_target - far["r_untuned"][0]) / far_target
    elapsed = time.perf_counter() - start
    ok = (
        0.0025 <= sigma <= 0.0045
        and -0.001 <= mean <= 0.004
        and distance >= 0.18
        and far_pulses > 0
        and elapsed < 10.0
    )
    report(
        f"3 precision: sigma {100 * sigma:.2f}% ([0.25,0.45]), "
        f"mean {100 * mean:.2f}% ([-0.1,0.4]), "
        f"distance {100 * distance:.1f}% tuned in {far_pulses} pulses, {elapsed:.2f} s",
        ok,
    )


def test_4_frequency_equivalent_precision():
    model = PowerLawModel(
        beta=4556.0 * np.sqrt(4496.0), alpha=0.5, residual_sigma=0.0,
        r_min=4000.0, r_max=5000.0,
    )
    sig = freq_equiv_sigma(model, 4556.0, 0.0034)
    r = 4496.0
    h = 0.0034 * r
    fd = (predict_f(model, r - h) - predict_f(model, r + h)) / 2.0
    ok = abs(sig - 7.75) <= 0.1 and abs(sig - fd) / fd <= 0.001
    report(
        f"4 freq-equiv sigma: {sig:.3f} MHz (7.75±0.1), "
        f"finite-difference oracle {fd:.3f} MHz",
        ok,
    )


def test_5_power_law_calibration():
    r = np.linspace(3000, 9000, 20)
    exact = fit_power_law(list(zip(r, 300000.0 * r**-0.5)))
    rng = np.random.default_rng(8)
    r2 = np.linspace(3500, 6500, 60)
    noisy = fit_power_law(list(zip(r2, 280000.0 * r2**-0.51 + rng.normal(0, 12.4, 60))))
    ok = (
        abs(exact.alpha - 0.5) <= 1e-9
        and abs(noisy.alpha - 0.51) <= 0.05
        and 10.0 <= noisy.residual_sigma <= 15.0
    )
    report(
        f"5 power-law fit: exact alpha err {abs(exact.alpha - 0.5):.1e} (<=1e-9), "
        f"noisy alpha {noisy.alpha:.3f} (0.51±0.05), "
        f"residual {noisy.residual_sigma:.1f} MHz ([10,15])",
        ok,
    )


def test_6_segmented_relaxation_fit():
    t = np.geomspace(0.02, 15.0, 500)
    y = np.array([relaxation_shape(x) for x in t])
    rng = np.random.default_rng(0)
    y = y * np.exp(rng.normal(0, 0.02, y.size))
    fit = fit_segmented_power_law(t, y)
    exp_ok = all(
        abs(got - want) <= 0.02 for got, want in zip(fit.exponents, (0.30, 0.24, 0.16))
    )
    bp_ok = all(
        b / 1.5 <= got <= b * 1.5 for got, b in zip(fit.breakpoints, (0.2, 2.0))
    )
    report(
        f"6 segmented fit: exponents {fit.exponents[0]:.3f}/{fit.exponents[1]:.3f}/"
        f"{fit.exponents[2]:.3f} (0.30/0.24/0.16 ±0.02), "
        f"breakpoints {fit.breakpoints[0]:.2f}/{fit.breakpoints[1]:.2f} hr "
        f"(x1.5 of 0.2/2.0)",
        exp_ok and bp_ok,
    )


def test_7_chip_spread_statistics():
    rng = np.random.default_rng(9)

    def chips(sigma):
        return [rng.normal(rng.uniform(-200, 200), sigma, 9) for _ in range(30)]

    # spreads as a fraction of the average design frequency
    tuned = spread_after_centering(chips(18.4))
    tuned_frac = tuned / 4628.0
    untuned_frac = spread_after_centering(chips(93.5)) / 4628.0
    ok = (
        abs(tuned - 18.4) / 18.4 <= 0.15
        and abs(tuned_frac - 0.0040) <= 0.0006
        and abs(untuned_frac - 0.0202) <= 0.003
    )
    report(
        f"7 chip spread: tuned {tuned:.1f} MHz = "
        f"{100 * tuned_frac:.2f}% (0.40±0.06), "
        f"untuned {100 * untuned_frac:.2f}% (2.02±0.3)",
        ok,
    )


def test_8_detuning_error():
    analytic = detuning_error_sigma(18.4)
    rng = np.random.default_rng(12)
    mc = float(np.std(rng.normal(0, 18.4, 10**5) - rng.normal(0, 18.4, 10**5)))
    ok = abs(analytic - 26.0) <= 0.1 and abs(mc - 26.0) <= 0.3
    report(
        f"8 detuning error: analytic {analytic:.2f} MHz (26.0±0.1), "
        f"MC {mc:.2f} MHz (26.0±0.3)",
        ok,
    )


def test_9_yield_reproduction():
    start = time.perf_counter()
    cell = generate_unit_cell(seed=7)
    chip = tile(cell, 1, 1)
    ys = {}
    for sigma in (18.4, 7.7, 93.5):
        res = mc_chip_yield(chip, YieldConfig(sigma_f_mhz=sigma, master_seed=7, trials=10**5))
        ys[sigma] = res
    big = yield_curve(cell, sigmas_mhz=[7.7], sizes=[(2, 6)], master_seed=7, trials=10**5)
    chips = wafer_projection(ys[18.4])
    elapsed = time.perf_counter() - start
    ok = (
        0.08 <= ys[18.4].yield_estimate <= 0.30
        and 0.75 <= ys[7.7].yield_estimate <= 0.95
        and ys[93.5].yield_estimate < 0.005
        and abs(chips - round(ys[18.4].yield_estimate * 212)) <= 2
        and big[0]["qubits"] == 108
        and big[0]["yield"] > 0.0
        and elapsed < 30.0
    )
    report(
        f"9 yield: sigma 18.4 -> {ys[18.4].yield_estimate:.3f} ([0.08,0.30], "
        f"{chips} chips/wafer), 7.7 -> {ys[7.7].yield_estimate:.3f} ([0.75,0.95]), "
        f"93.5 -> {ys[93.5].yield_estimate:.4f} (<0.005), "
        f"108-qubit at 7.7 -> {big[0]['yield']:.4f} (>0), {elapsed:.1f} s",
        ok,
    )


def brute_force_parking(lattice, window, max_park, step):
    """First plan of least (count, max |offset|, sum |offset|) in
    ``itertools.product`` order over every downward assignment, or None."""
    lo, hi = window
    candidates = [0.0] + [-k * step for k in range(1, int(max_park / step) + 1)]
    freqs = lattice.design_f01max
    n = lattice.n_qubits
    # Row r is the r-th assignment of itertools.product(candidates, repeat=n).
    offsets = np.array(candidates)[np.indices((len(candidates),) * n).reshape(n, -1).T]
    ok = np.ones(len(offsets), dtype=bool)
    for a, b in lattice.edges():
        d = np.abs(freqs[a] + offsets[:, a] - freqs[b] - offsets[:, b])
        ok &= (lo <= d) & (d <= hi)
    if not ok.any():
        return None
    offsets = offsets[ok]
    mags = np.abs(offsets)
    total = np.zeros(len(offsets))
    for col in mags.T:
        total = total + col
    first = np.lexsort((total, mags.max(axis=1), (offsets != 0.0).sum(axis=1)))[0]
    return tuple(float(o) for o in offsets[first])


def test_10_property_suites():
    checks = []

    # monotone resistance trajectory: each noiseless record rises from
    # fabrication through the last pulse to the probe, and the relaxation
    # profile never falls over 200 seeded times up to 300 hr
    records, _ = tuned_batch(61)
    monotone = bool(np.all(
        (records["r_untuned"] <= records["r_last_pulse"])
        & (records["r_last_pulse"] <= records["r_tuned"])
        & ((records["pulses"] == 0) == records["already_above_target"])
    ))
    times = np.sort(np.random.default_rng(1).uniform(0.0, 300.0, 200))
    shape = [relaxation_shape(float(t)) for t in times]
    monotone &= all(b >= a for a, b in zip(shape, shape[1:]))
    checks.append(("monotone trajectory", monotone))

    # predict/invert round trip at 1e-9
    model = PowerLawModel(beta=3e5, alpha=0.5, residual_sigma=0.0, r_min=3000, r_max=9000)
    rs = np.random.default_rng(0).uniform(3000, 9000, 200)
    rt = all(abs(invert_R(model, predict_f(model, r)) - r) <= 1e-9 * r for r in rs)
    checks.append(("predict/invert round trip 1e-9", rt))

    # per-chip centering residual exactly ~0
    chips = [np.random.default_rng(s).normal(s * 10.0, 18.4, 9) for s in range(5)]
    centered_ok = all(abs(c.mean()) < 1e-9 for c in subtract_global_offset(chips))
    checks.append(("centering residual 0", centered_ok))

    # parking equals the brute-force optimum on 20 seeded 3x3 instances
    window = (20.0, 130.0)
    park_ok = True
    for seed in range(20):
        g = np.random.default_rng(seed)
        freqs = tuple(4500.0 + 30.0 * g.integers(0, 6, 9).astype(float))
        lat = QubitLattice(rows=3, cols=3, design_f01max=freqs)
        oracle = brute_force_parking(lat, window, 30.0, 10.0)
        try:
            plan = optimize_parking(lat, window, max_park_mhz=30.0, step_mhz=10.0)
        except InfeasibleError:
            park_ok &= oracle is None
            continue
        park_ok &= oracle is not None and plan.offsets_mhz == oracle
    checks.append(("parking matches brute force (20 instances)", park_ok))

    # MC yield bit-identical across thread counts
    cell = generate_unit_cell(seed=7)
    chip = tile(cell, 1, 1)
    runs = [
        mc_chip_yield(chip, YieldConfig(sigma_f_mhz=18.4, master_seed=5, trials=20000, n_threads=t))
        for t in (1, 4)
    ]
    checks.append(("thread-count invariance", runs[0].passes == runs[1].passes))

    # yield monotone in chip size and sigma within 3x CI width
    rows = yield_curve(
        cell, sigmas_mhz=[7.7, 18.4], sizes=[(1, 1), (1, 2), (2, 2)],
        master_seed=7, trials=20000,
    )
    mono = True
    keyfuncs = [
        (lambda r: r["sigma_mhz"], lambda r: r["qubits"]),
        (lambda r: r["qubits"], lambda r: r["sigma_mhz"]),
    ]
    for fix, vary in keyfuncs:
        groups = {}
        for r in rows:
            groups.setdefault(fix(r), []).append(r)
        for grp in groups.values():
            grp.sort(key=vary)
            for a, b in zip(grp, grp[1:]):
                mono &= b["yield"] <= a["yield"] + 3.0 * (a["ci_hi"] - a["ci_lo"])
    checks.append(("yield monotonicity within 3x CI", mono))

    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{name} {'ok' if p else 'FAILED'}" for name, p in checks)
    report(f"10 property suites: {detail}", ok)
