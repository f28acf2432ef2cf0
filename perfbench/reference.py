"""Reference results: what jjtrim computes at the commit that defined the benchmark.

These functions are written from the behaviour of that commit, not imported
from ``src/``, so a later change to the program is checked against the old
results instead of against itself. Deterministic results (calibration,
targets, relaxation fit, detunings, parking) are compared to tight
tolerance. Stream-dependent results (campaign records, unit cell, yield) are
reproduced draw for draw so that ``outputs.bit_identical_ratio`` shows any
change of random stream; the checker itself compares those statistically.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

WILSON_Z = 1.959964


# --- freqmodel ----------------------------------------------------------------


def power_law(points) -> dict:
    """Least-squares fit of log f on log R, as calibration.json holds it."""
    pts = np.asarray(points, dtype=float)
    r, f = pts[:, 0], pts[:, 1]
    slope, intercept = np.polyfit(np.log(r), np.log(f), 1)
    alpha, beta = -float(slope), float(np.exp(intercept))
    return {
        "beta": beta,
        "alpha": alpha,
        "residual_sigma_mhz": float(np.std(f - beta * r ** (-alpha))),
        "r_min": float(r.min()),
        "r_max": float(r.max()),
    }


def target_resistance(cal: dict, f_design: float, aging_budget: float) -> float:
    r = float((cal["beta"] / np.asarray(f_design, dtype=float)) ** (1.0 / cal["alpha"]))
    return r * (1.0 - aging_budget)


def _segment_fit(t, y):
    slope, intercept = np.polyfit(np.log(t), np.log(y), 1)
    return float(slope), float(np.exp(intercept))


def _fit_at(t, y, bps):
    edges = (-np.inf, *bps, np.inf)
    exps, amps = [], []
    for lo, hi in zip(edges, edges[1:]):
        mask = (t > lo) & (t <= hi)
        e, a = _segment_fit(t[mask], y[mask])
        exps.append(e)
        amps.append(a)
    sse = 0.0
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        mask = (t > lo) & (t <= hi)
        pred = np.log(amps[k]) + exps[k] * np.log(t[mask])
        sse += float(np.sum((np.log(y[mask]) - pred) ** 2))
    jumps = []
    for k, b in enumerate(bps):
        left, right = amps[k] * b ** exps[k], amps[k + 1] * b ** exps[k + 1]
        jumps.append(abs(left - right) / max(left, right))
    return sse, {
        "breakpoints_hr": [float(b) for b in bps],
        "exponents": exps,
        "amplitudes": amps,
        "continuity_residual": max(jumps),
    }


def segmented_fit(t_hr, delta_r, n_candidates: int = 50, min_points: int = 3) -> dict:
    """Two-breakpoint search over the log-spaced grid, as relaxation_fit.json.

    Every pair's error comes from prefix sums in O(1); only pairs within a
    relative 1e-6 of the best are refitted the way the program fits, and the
    first of those in grid order with the smallest error wins, as it does in
    the program's nested loop.
    """
    t = np.asarray(t_hr, dtype=float)
    y = np.asarray(delta_r, dtype=float)
    order = np.argsort(t)
    t, y = t[order], y[order]
    x, v = np.log(t), np.log(y)
    cs = [np.concatenate(([0.0], np.cumsum(a))) for a in (np.ones_like(x), x, v, x * x, x * v, v * v)]
    grid = np.geomspace(t[0], t[-1], n_candidates + 2)[1:-1]
    cut = np.searchsorted(t, grid, side="right")
    n_pts = len(t)

    def seg_sse(i0, i1):
        n, sx, sy, sxx, sxy, syy = (c[i1] - c[i0] for c in cs)
        vx = sxx - sx * sx / n
        cov = sxy - sx * sy / n
        return max(syy - sy * sy / n - cov * cov / vx, 0.0)

    scored = []
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            bounds = (0, cut[i], cut[j], n_pts)
            if any(b - a < min_points for a, b in zip(bounds, bounds[1:])):
                continue
            total = sum(seg_sse(a, b) for a, b in zip(bounds, bounds[1:]))
            scored.append((total, i, j))
    best_approx = min(s for s, _, _ in scored)
    best = None
    for total, i, j in scored:
        if total > best_approx * (1 + 1e-6) + 1e-12:
            continue
        sse, fit = _fit_at(t, y, (float(grid[i]), float(grid[j])))
        if best is None or sse < best[0]:
            best = (sse, fit)
    return best[1]


# --- lattice ------------------------------------------------------------------


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    out = []
    for r in range(rows):
        for c in range(cols):
            a = r * cols + c
            if c + 1 < cols:
                out.append((a, a + 1))
            if r + 1 < rows:
                out.append((a, a + cols))
    return out


def detunings(rows, cols, freqs, window):
    """Rows of detunings.csv (unformatted) and lattice_summary.json."""
    lo, hi = window
    rows_out, counts = [], {}
    for a, b in grid_edges(rows, cols):
        signed = float(freqs[a]) - float(freqs[b])
        modulated = a if freqs[a] >= freqs[b] else b
        counts[modulated] = counts.get(modulated, 0) + 1
        rows_out.append((a, b, signed, abs(signed), modulated, lo <= abs(signed) <= hi))
    d = np.array([r[3] for r in rows_out])
    max_count = max(counts.values())
    summary = {
        "edges": len(rows_out),
        "min_mhz": float(d.min()),
        "max_mhz": float(d.max()),
        "median_mhz": float(np.median(d)),
        "modulation_max_count": max_count,
        "modulation_valid": max_count <= 2,
    }
    return rows_out, summary


def plan_cost(offsets) -> tuple[int, float, float]:
    nz = [abs(o) for o in offsets if o != 0.0]
    return len(nz), (max(nz) if nz else 0.0), sum(nz)


def plan_feasible(freqs, rows, cols, offsets, window) -> bool:
    lo, hi = window
    return all(
        lo <= abs(freqs[a] + offsets[a] - freqs[b] - offsets[b]) <= hi
        for a, b in grid_edges(rows, cols)
    )


def verify_parking(freqs, rows, cols, window, max_park, step, claimed_cost):
    """Downward parking search in the program's order (node by node,
    candidates by |offset|), bounded by a claimed optimum.

    With ``claimed_cost=None`` it returns the first feasible plan or None
    (proving infeasibility). Otherwise it returns ``(better, first)``:
    ``better`` is a plan cheaper than the claim, if any exists, and ``first``
    is the first plan at exactly the claimed cost in search order, which is
    the plan the defining commit returns when the claim is optimal.
    """
    lo, hi = window
    n = rows * cols
    cands = [0.0]
    k = 1
    while k * step <= max_park:
        cands.append(-k * step)
        k += 1
    cands.sort(key=abs)
    back = [[] for _ in range(n)]
    for a, b in grid_edges(rows, cols):
        back[b].append(a)
    offsets = [0.0] * n
    found = {"better": None, "first": None}

    def dfs(q):
        if claimed_cost is not None:
            part = plan_cost(offsets[:q])
            limit_hit = part >= claimed_cost if found["first"] is not None else part > claimed_cost
            if limit_hit:
                return False
        if q == n:
            if claimed_cost is None:
                found["first"] = list(offsets)
                return True
            if plan_cost(offsets) < claimed_cost:
                found["better"] = list(offsets)
                return True
            if found["first"] is None:
                found["first"] = list(offsets)
            return False
        for off in cands:
            fq = freqs[q] + off
            if all(lo <= abs(freqs[p] + offsets[p] - fq) <= hi for p in back[q]):
                offsets[q] = off
                if dfs(q + 1):
                    return True
                offsets[q] = 0.0
        return False

    dfs(0)
    if claimed_cost is None:
        return found["first"]
    return found["better"], found["first"]


# --- controller ---------------------------------------------------------------


def _qubit_rng(master_seed: int, key: str) -> np.random.Generator:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int.from_bytes(digest[:8], "big")])
    )


def campaign_records(master_seed, qubits, noise, design_r, aging_budget, reserve,
                     step_mean=1.9, batch=512) -> list[dict]:
    """The records of ``simulate-tuning``, draw for draw."""
    mean_r, sigma_r = design_r * (1.0 + -0.107), design_r * 0.035
    target = design_r * (1.0 - aging_budget)
    threshold = target / (1.0 + reserve)
    records = []
    for i in range(qubits):
        qid = f"Q{i:03d}"
        fab = _qubit_rng(master_seed, f"fab:{qid}")
        while True:
            r0 = float(fab.normal(mean_r, sigma_r))
            if r0 > 0:
                break
        while True:
            rho = float(fab.normal(0.0289, 0.0030))
            if rho >= 0:
                break
        rng = _qubit_rng(master_seed, qid)

        def read(r):
            return r if noise == 0 else r + float(rng.normal(0.0, noise))

        first = read(r0)
        r, pulses, r_last, above = r0, 0, first, first >= threshold
        if not above and noise == 0:
            while r < threshold:
                cum = r + np.cumsum(rng.exponential(step_mean, size=batch))
                hit = int(np.searchsorted(cum, threshold, side="left"))
                if hit < batch:
                    pulses += hit + 1
                    r = float(cum[hit])
                else:
                    pulses += batch
                    r = float(cum[-1])
            r_last = r
        elif not above:
            while True:
                r_last = read(r)
                if r_last >= threshold:
                    break
                r = r + float(rng.exponential(step_mean))
                pulses += 1
        r_tuned = read(r + rho * r)
        records.append({
            "qubit_id": qid,
            "r_untuned": r0,
            "threshold": threshold,
            "r_last_pulse": r_last,
            "r_tuned": r_tuned,
            "pulses": pulses,
            "already_above_target": above,
        })
    return records


def campaign_stats(records, target: float) -> dict:
    """precision_report.csv / report.csv statistics from campaign records
    whose qubits all share one target resistance."""
    tuned = [r for r in records if not r["already_above_target"]]
    prec = np.array([(r["r_tuned"] - target) / target for r in tuned])
    over = np.array([r["r_last_pulse"] - r["threshold"] for r in tuned])
    res = np.array([(r["r_tuned"] - r["r_last_pulse"]) / r["r_last_pulse"] for r in tuned])
    return {
        "qubits": len(records),
        "precision_mean_frac": float(prec.mean()),
        "precision_sigma_frac": float(prec.std()),
        "precision_min_frac": float(prec.min()),
        "precision_max_frac": float(prec.max()),
        "overshoot_mean_ohm": float(over.mean()),
        "overshoot_sigma_ohm": float(over.std()),
        "reserve_mean": float(res.mean()),
        "reserve_sigma": float(res.std()),
    }


# --- yieldmc ------------------------------------------------------------------


def cell_violations(offsets, window=(40.0, 110.0)) -> int:
    """Internal and stitching detunings of a 3x3 cell outside the window."""
    f = np.asarray(offsets, dtype=float)
    lo, hi = window
    diffs = [f[r, (c + 1) % 3] - f[r, c] for r in range(3) for c in range(3)]
    diffs += [f[(r + 1) % 3, c] - f[r, c] for r in range(3) for c in range(3)]
    return sum(1 for d in diffs if not lo <= abs(d) <= hi)


def generated_cell(seed, window=(40.0, 110.0), step=10.0, top=250.0) -> list[list[float]]:
    """The unit cell ``yield`` generates for ``--seed`` without ``--design``."""
    lo, hi = window
    rng = np.random.default_rng(seed)
    values = np.arange(0.0, top + 0.5 * step, step)
    while True:
        order = values[rng.permutation(len(values))]
        cell = np.zeros((3, 3))
        nodes = [0]

        def ok(r, c, v):
            checks = []
            if c > 0:
                checks.append(cell[r, c - 1])
            if r > 0:
                checks.append(cell[r - 1, c])
            if c == 2:
                checks.append(cell[r, 0])
            if r == 2:
                checks.append(cell[0, c])
            return all(lo <= abs(v - o) <= hi for o in checks)

        def place(idx):
            if nodes[0] > 200_000:
                return False
            nodes[0] += 1
            if idx == 9:
                return True
            r, c = divmod(idx, 3)
            for v in order:
                if ok(r, c, v):
                    cell[r, c] = v
                    if place(idx + 1):
                        return True
            return False

        if place(0):
            return [[float(v) for v in row] for row in cell]


def tiled_freqs(cell, base, m, n) -> tuple[int, int, np.ndarray]:
    rows, cols = 3 * m, 3 * n
    freqs = np.array([base + cell[r % 3][c % 3] for r in range(rows) for c in range(cols)])
    return rows, cols, freqs


def mc_passes(freqs, rows, cols, sigma, seed, window, trials, chunk=4096) -> int:
    """Passing trials of the chunked Monte Carlo, draw for draw."""
    edges = grid_edges(rows, cols)
    ia = np.array([a for a, _ in edges])
    ib = np.array([b for _, b in edges])
    lo, hi = window
    passes = 0
    for c in range(-(-trials // chunk)):
        nt = min(chunk, trials - c * chunk)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), c]))
        f = freqs[None, :] + rng.normal(0.0, sigma, size=(nt, freqs.size))
        d = np.abs(f[:, ia] - f[:, ib])
        passes += int(np.all((d >= lo) & (d <= hi), axis=1).sum())
    return passes


def wilson(passes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    p = passes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
