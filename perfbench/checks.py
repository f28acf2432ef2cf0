"""Output checker: decides whether each op's outputs are correct.

Results that do not depend on a random stream (calibration, targets,
relaxation fit, detunings, lattice summary, parking, exit codes, manifests)
must match ``reference`` to tight tolerance. Stream-dependent results
(campaign, precision and report CSVs, unit cell, yield) are checked by
invariants and statistical tolerances, so that a planned re-pin of a stream
is not a failure; whether they still equal the defining commit's values bit
for bit is only counted, in ``Verdict.identical``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref
import workloads as wl

# Per-qubit statistics of tuned (not already-above-target) qubits at the
# defining commit, (mean, standard deviation), from 20 000 qubits reproduced by
# reference.campaign_records with master seed 12345. A campaign passes when
# each of its sample means lies within CAMPAIGN_Z standard errors of these.
CAMPAIGN_POPULATION = {
    0.0: {"pulses": (153.579, 78.082), "precision": (4.166e-4, 2.953e-3),
          "overshoot": (1.9055, 1.8860)},
    0.5: {"pulses": (153.674, 78.238), "precision": (4.060e-4, 2.963e-3),
          "overshoot": (1.9698, 1.9330)},
}
CAMPAIGN_Z = 6.0
# Two yields agree when their Wilson intervals at this z overlap; for two
# estimates of one yield that fails about once in 10**8 comparisons.
YIELD_Z = 4.0
REL_TOL = 1e-9


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    identical: int = 0  # output files equal, value for value, to the reference
    compared: int = 0  # output files compared with a reference
    counts: dict = field(default_factory=dict)  # exact work counts read from outputs

    def same(self, equal: bool) -> None:
        self.compared += 1
        self.identical += bool(equal)

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


def close(a, b, rel=REL_TOL, abs_=1e-12) -> bool:
    return abs(float(a) - float(b)) <= abs_ + rel * abs(float(b))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rel(path, base: Path) -> str:
    return os.path.relpath(path, base)


def check_op(op: wl.Op, rcs: list, version: str, full: bool) -> Verdict:
    """Check every step of one op. ``rcs`` holds each step's exit code, or the
    exception it raised. ``full`` adds the checks that cost about as much as
    the op itself (stream reproduction for bulk campaigns and yields)."""
    v = Verdict()
    context = {}
    for step, rc in zip(op.steps, rcs):
        before = len(v.problems)
        if isinstance(rc, BaseException):
            v.problems.append(f"{step.command}: raised {type(rc).__name__}: {rc}")
            continue
        if step.expect_rc is not None and rc != step.expect_rc:
            v.problems.append(f"{step.command}: exit {rc}, expected {step.expect_rc}")
            continue
        try:
            CHECKERS[step.command](op, step, rc, v, context, full)
            if rc == 0:
                _check_manifest(op, step, v, version)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            v.problems.append(f"{step.command}: unreadable output: {type(exc).__name__}: {exc}")
        if len(v.problems) > before:
            v.problems[before:] = [f"op {op.index}: {p}" for p in v.problems[before:]]
    return v


def _check_manifest(op, step, v: Verdict, version: str) -> None:
    m = _read_json(step.out / "manifest.json")
    # "data" is the one config entry that holds a path.
    config = {k: (_rel(x, op.dir) if k == "data" else x) for k, x in m["config"].items()}
    want_config = {
        k: (_rel(x, op.dir) if k == "data" else x) for k, x in step.manifest_config.items()
    }
    digests = {_rel(k, op.dir): d for k, d in m["input_digests"].items()}
    want_digests = {_rel(p, op.dir): _sha256(p) for p in step.inputs}
    ok = v.require(m["command"] == step.command, f"{step.command}: manifest command {m['command']!r}")
    ok &= v.require(config == want_config, f"{step.command}: manifest config {config} != {want_config}")
    ok &= v.require(m["master_seed"] == step.manifest_seed, f"{step.command}: manifest seed {m['master_seed']}")
    ok &= v.require(digests == want_digests, f"{step.command}: manifest digests {digests} != {want_digests}")
    ok &= v.require(m["tool_version"] == version, f"{step.command}: manifest version {m['tool_version']}")
    v.same(ok)


def _check_calibration(op, step, rc, v, ctx, full):
    got = _read_json(step.out / "calibration.json")
    want = ref.power_law(op.params["probe"])
    ctx["calibration"] = want
    v.require(set(got) == set(want), f"calibration keys {sorted(got)}")
    bad = [k for k in want if not close(got[k], want[k])]
    v.require(not bad, f"calibration differs in {bad}: {got} vs {want}")
    v.same(got == want)


def _check_targets(op, step, rc, v, ctx, full):
    rows = _read_rows(step.out / "targets.csv")
    cal = ctx.get("calibration") or ref.power_law(op.params["probe"])
    want = [
        [f"Q{i:03d}", f"{f:.4f}", f"{ref.target_resistance(cal, f, wl.AGING_BUDGET):.4f}"]
        for i, f in enumerate(op.params["design_f"])
    ]
    v.require(rows[0] == ["qubit_id", "design_f_mhz", "target_resistance_ohm"], f"targets header {rows[0]}")
    body = rows[1:]
    ok = v.require(len(body) == len(want), f"targets: {len(body)} rows, want {len(want)}")
    if ok:
        bad = [
            g[0] for g, w in zip(body, want)
            if g[:2] != w[:2] or not close(g[2], w[2], rel=1e-9, abs_=1.5e-4)
        ]
        v.require(not bad, f"targets differ for {bad[:5]}")
    v.same(body == want)


def _check_fit(op, step, rc, v, ctx, full):
    got = _read_json(step.out / "relaxation_fit.json")
    t, y = zip(*op.params["trace"])
    want = ref.segmented_fit(t, y)
    ok = v.require(set(got) == set(want), f"relaxation fit keys {sorted(got)}")
    if ok:
        for key in ("breakpoints_hr", "exponents", "amplitudes"):
            v.require(
                len(got[key]) == len(want[key])
                and all(close(a, b) for a, b in zip(got[key], want[key])),
                f"relaxation fit {key} {got[key]} vs {want[key]}",
            )
        v.require(close(got["continuity_residual"], want["continuity_residual"], rel=1e-7),
                  f"continuity residual {got['continuity_residual']}")
    v.same(got == want)


def _check_campaign(op, step, rc, v, ctx, full):
    p = op.params
    data = _read_json(step.out / "campaign.json")
    records = data["records"]
    ctx["records"] = records
    v.counts["controller.pulses"] = sum(r["pulses"] for r in records)
    target = wl.DESIGN_RESISTANCE * (1.0 - wl.AGING_BUDGET)
    threshold = target / (1.0 + wl.RESERVE)
    ids = [f"Q{i:03d}" for i in range(p["qubits"])]
    v.require([r["qubit_id"] for r in records] == ids, "campaign: qubit ids")
    v.require([t["qubit_id"] for t in data["targets"]] == ids, "campaign: target ids")
    v.require(all(close(t["target_resistance"], target) and t["relaxation_reserve"] == wl.RESERVE
                  for t in data["targets"]), "campaign: targets")
    v.require(data["config"]["master_seed"] == p["seed"], "campaign: master seed")
    v.require(data["config"]["noise_sigma"] == p["noise"], "campaign: noise")
    bad = [
        r["qubit_id"] for r in records
        if not (
            isinstance(r["pulses"], int) and r["pulses"] >= 0
            and close(r["threshold"], threshold)
            and (r["pulses"] == 0 or r["r_last_pulse"] >= r["threshold"])
            and r["r_tuned"] >= r["r_last_pulse"]
            and not (r["already_above_target"] and r["pulses"])
        )
    ]
    v.require(not bad, f"campaign invariants fail for {bad[:5]}")
    pop = CAMPAIGN_POPULATION[p["noise"]]
    tuned = [r for r in records if not r["already_above_target"]]
    samples = {
        "pulses": [r["pulses"] for r in tuned],
        "precision": [(r["r_tuned"] - target) / target for r in tuned],
        "overshoot": [r["r_last_pulse"] - r["threshold"] for r in tuned],
    }
    for name, xs in samples.items():
        mean, sd = pop[name]
        z = (sum(xs) / len(xs) - mean) / (sd / math.sqrt(len(xs)))
        v.require(abs(z) <= CAMPAIGN_Z, f"campaign {name} mean is {z:+.1f} standard errors off")
    if full:
        want = ref.campaign_records(p["seed"], p["qubits"], p["noise"], wl.DESIGN_RESISTANCE,
                                    wl.AGING_BUDGET, wl.RESERVE)
        ctx["ref_records"] = want
        v.same(records == want)
    stats = ref.campaign_stats(records, target)
    rows = _read_rows(step.out / "precision_report.csv")
    names = ["precision_mean_frac", "precision_sigma_frac", "precision_min_frac",
             "precision_max_frac", "overshoot_mean_ohm", "overshoot_sigma_ohm",
             "reserve_mean", "reserve_sigma"]
    v.require([r[0] for r in rows] == ["metric", *names], "precision report rows")
    v.require(all(close(val, stats[n], rel=0, abs_=1.5e-6) for (n, val) in
                  zip(names, (r[1] for r in rows[1:]))), "precision report values")
    if full:
        want_stats = ref.campaign_stats(ctx["ref_records"], target)
        v.same(rows[1:] == [[n, f"{want_stats[n]:.6f}"] for n in names])


def _check_report(op, step, rc, v, ctx, full):
    rows = _read_rows(step.out / "report.csv")
    names = ["qubits", "precision_mean_frac", "precision_sigma_frac", "overshoot_mean_ohm",
             "overshoot_sigma_ohm", "reserve_mean", "reserve_sigma"]
    target = wl.DESIGN_RESISTANCE * (1.0 - wl.AGING_BUDGET)
    stats = ref.campaign_stats(ctx["records"], target)
    v.require([r[0] for r in rows] == ["metric", *names], "report rows")
    v.require(all(close(val, stats[n]) for n, val in zip(names, (r[1] for r in rows[1:]))),
              "report values")
    if "ref_records" in ctx:
        want = ref.campaign_stats(ctx["ref_records"], target)
        v.same(rows[1:] == [[n, str(want[n])] for n in names])


def _check_analyze(op, step, rc, v, ctx, full):
    window = tuple(float(x) for x in wl.WINDOW_ARG.split(","))
    want_rows, want_summary = ref.detunings(3, 3, op.params["freqs"], window)
    rows = _read_rows(step.out / "detunings.csv")
    v.require(rows[0] == ["node_a", "node_b", "signed_mhz", "abs_mhz", "modulated_qubit",
                          "in_window"], "detunings header")
    want = [[str(a), str(b), f"{s:.4f}", f"{d:.4f}", str(m), str(w).lower()]
            for a, b, s, d, m, w in want_rows]
    ok = v.require(len(rows) - 1 == len(want), "detunings row count")
    if ok:
        bad = [
            i for i, (g, w) in enumerate(zip(rows[1:], want))
            if g[:2] != w[:2] or g[4:] != w[4:]
            or not all(close(g[k], w[k], rel=0, abs_=1.5e-4) for k in (2, 3))
        ]
        v.require(not bad, f"detunings differ on edges {bad}")
    v.same(rows[1:] == want)
    summary = _read_json(step.out / "lattice_summary.json")
    v.require(set(summary) == set(want_summary), "lattice summary keys")
    v.require(all(close(summary[k], want_summary[k]) if isinstance(want_summary[k], float)
                  else summary[k] == want_summary[k] for k in want_summary),
              f"lattice summary {summary} vs {want_summary}")
    v.same(summary == want_summary)


def _check_park(op, step, rc, v, ctx, full):
    freqs, stp, top = op.params["freqs"], op.params["step"], op.params["max_park"]
    window = tuple(float(x) for x in wl.WINDOW_ARG.split(","))
    v.counts["lattice.park_attempts"] = 1
    v.counts["lattice.park_feasible"] = int(rc == 0)
    v.counts["lattice.parked_qubits"] = 0
    if rc == 3:
        plan = ref.verify_parking(freqs, 3, 3, window, top, stp, None)
        v.require(plan is None, f"park: exit 3 but plan {plan} is feasible")
        return
    if not v.require(rc == 0, f"park: exit {rc}"):
        return
    got = _read_json(step.out / "parking.json")
    offsets = got["offsets_mhz"]
    v.require(len(offsets) == 9, "park: offset count")
    on_grid = all(-top <= o <= 0 and close(o / stp, round(o / stp)) for o in offsets)
    v.require(on_grid, f"park: offsets off the grid {offsets}")
    v.require(ref.plan_feasible(freqs, 3, 3, offsets, window), f"park: plan {offsets} infeasible")
    cost = ref.plan_cost(offsets)
    v.require(
        got["parked_count"] == cost[0] and close(got["max_abs_offset_mhz"], cost[1])
        and close(got["sum_abs_offset_mhz"], cost[2]),
        f"park: summary {got} does not match offsets",
    )
    v.counts["lattice.parked_qubits"] = cost[0]
    better, first = ref.verify_parking(freqs, 3, 3, window, top, stp, cost)
    v.require(better is None, f"park: plan {better} beats {offsets}")
    v.same(first == offsets)


def _check_yield(op, step, rc, v, ctx, full):
    p = op.params
    cells = step.argv[step.argv.index("--cells") + 1]
    m, n = (int(x) for x in cells.split("x"))
    unit = _read_json(step.out / "unit_cell.json")
    cell = unit["offsets_mhz"]
    v.require(
        unit["rows"] == 3 and unit["cols"] == 3 and len(cell) == 3
        and all(len(row) == 3 for row in cell)
        and ref.cell_violations(cell, tuple(unit["design_window_mhz"])) == 0
        and tuple(unit["design_window_mhz"]) == wl.DESIGN_WINDOW,
        f"unit cell {unit} is not a valid design",
    )
    if "cell" not in ctx:
        ctx["cell"] = ref.generated_cell(p["seed"])
    v.same(cell == ctx["cell"])
    rows = _read_rows(step.out / "yield.csv")
    v.require(rows[0] == ["qubits", "sigma_mhz", "yield", "ci_lo", "ci_hi"], "yield header")
    qubits, sigma, y, lo, hi = rows[1]
    trials = wl.YIELD_TRIALS
    passes = round(float(y) * trials)
    wlo, whi = ref.wilson(passes, trials)
    v.require(int(qubits) == 9 * m * n and close(sigma, p["sigma"], rel=0, abs_=1e-4),
              f"yield row {rows[1]}")
    v.require(close(float(y) * trials, passes, rel=0, abs_=1e-3), f"yield {y} is not passes/trials")
    v.require(close(lo, wlo, rel=0, abs_=1.5e-6) and close(hi, whi, rel=0, abs_=1.5e-6),
              f"yield interval [{lo}, {hi}] vs Wilson [{wlo}, {whi}]")
    if full:
        r, c, freqs = ref.tiled_freqs(cell, unit["base_frequency_mhz"], m, n)
        window = tuple(float(x) for x in wl.WINDOW_ARG.split(","))
        want = ref.mc_passes(freqs, r, c, p["sigma"], p["seed"], window, trials)
        a_lo, a_hi = ref.wilson(passes, trials, YIELD_Z)
        b_lo, b_hi = ref.wilson(want, trials, YIELD_Z)
        v.require(a_lo <= b_hi and b_lo <= a_hi,
                  f"yield {passes}/{trials} disagrees with reference {want}/{trials}")
        v.same(passes == want and cell == ctx["cell"])


CHECKERS = {
    "calibrate-freq": _check_calibration,
    "assign-targets": _check_targets,
    "fit-relaxation": _check_fit,
    "simulate-tuning": _check_campaign,
    "report": _check_report,
    "analyze-lattice": _check_analyze,
    "park": _check_park,
    "yield": _check_yield,
}
