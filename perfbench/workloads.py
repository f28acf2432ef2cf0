"""Seeded workload generators.

Every input the program sees is made here from the workload seed: probe
CSVs, relaxation traces, lattice designs and measured dice. The generator
uses its own formulas and random streams, never jjtrim's, so a change to
the program cannot change its own inputs.

A workload turns ``(seed, n_ops, work_dir)`` into a list of ``Op``. An op is
a short sequence of CLI invocations (``Step``) that the harness times as one
unit; ``Op.params`` carries what the checker needs to know about the inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Design resistance and aging budget are the CLI defaults of simulate-tuning.
DESIGN_RESISTANCE = 4587.8
RESERVE = 0.0289
AGING_BUDGET = 0.02

# Probe data as in acceptance criterion 5: f = beta * R**-alpha + noise.
PROBE_BETA = 280000.0
PROBE_ALPHA = 0.51
PROBE_NOISE_MHZ = 12.4
PROBE_POINTS = 60

# Relaxation trace as in scripts/make_relaxation_demo.py: the default
# three-regime profile, 2% multiplicative read noise, 500 points.
TRACE_POINTS = 500
TRACE_R_STOP = 7711.0
TRACE_RHO = 0.0289
TRACE_NOISE = 0.02
RELAX_BREAKPOINTS = (0.2, 2.0, 24.0)
RELAX_EXPONENTS = (0.30, 0.24, 0.16, 0.11)
PROBE_DELAY_HR = 5.0

CELL_GRID_MHZ = 10.0
CELL_MAX_MHZ = 250.0
DESIGN_WINDOW = (40.0, 110.0)
WINDOW_ARG = "20,130"  # the yield window, used for analysis and parking

# The 13x17 chip of tune_round sits inside the probe calibration's domain
# (3500-6500 Ohm is about 3180-4360 MHz), so assign-targets never warns.
CHIP_ROWS, CHIP_COLS, CHIP_BASE_MHZ = 13, 17, 3600.0
DIE_BASE_MHZ = 4500.0

YIELD_TRIALS = 20000
YIELD_SIGMAS = (93.5, 18.4, 7.7)
YIELD_CELLS = ("1x1", "2x6", "6x6")

# (sigma MHz, --step, --max-park) of the two die classes of park_lot.
TRIMMED_DIE = (7.7, 1.0, 50.0)
FAB_LIMITED_DIE = (18.4, 5.0, 50.0)
LOT_SEED, LOT_DICE = 0, 400


@dataclass
class Step:
    argv: list[str]
    out: Path
    inputs: list[Path]
    manifest_config: dict
    manifest_seed: int | None
    expect_rc: int | None = 0  # None: the checker decides (park)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Op:
    index: int
    dir: Path
    steps: list[Step]
    params: dict = field(default_factory=dict)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *stream]))


def _program_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def relaxation_shape(t_hr: float) -> float:
    """Default relaxation trajectory, normalised to 1 at the probe delay."""

    def raw(t):
        amp, k = 1.0, 0
        for i, b in enumerate(RELAX_BREAKPOINTS):
            if t <= b:
                break
            amp *= b ** (RELAX_EXPONENTS[i] - RELAX_EXPONENTS[i + 1])
            k = i + 1
        return amp * t ** RELAX_EXPONENTS[k]

    return raw(t_hr) / raw(PROBE_DELAY_HR)


def unit_cell(rng: np.random.Generator) -> np.ndarray:
    """Random 3x3 offsets on a 10 MHz grid whose 12 internal and 6 stitching
    detunings all lie in the design window (backtracking, shuffled values)."""
    values = np.arange(0.0, CELL_MAX_MHZ + 0.5 * CELL_GRID_MHZ, CELL_GRID_MHZ)
    lo, hi = DESIGN_WINDOW
    cell = np.zeros((3, 3))

    def fits(r, c, v):
        others = []
        if c > 0:
            others.append(cell[r, c - 1])
        if r > 0:
            others.append(cell[r - 1, c])
        if c == 2:
            others.append(cell[r, 0])
        if r == 2:
            others.append(cell[0, c])
        return all(lo <= abs(v - o) <= hi for o in others)

    def place(idx):
        if idx == 9:
            return True
        r, c = divmod(idx, 3)
        for v in rng.permutation(values):
            if fits(r, c, v):
                cell[r, c] = v
                if place(idx + 1):
                    return True
        return False

    if not place(0):
        raise RuntimeError("no valid unit cell")  # unreachable: valid cells exist
    return cell


def _design(rows, cols, base, offsets, measured=None) -> dict:
    data = {
        "rows": rows,
        "cols": cols,
        "base_frequency_mhz": base,
        "offsets_mhz": [[float(v) for v in row] for row in offsets],
        "design_window_mhz": list(DESIGN_WINDOW),
    }
    if measured is not None:
        data["measured_mhz"] = [[float(v) for v in row] for row in measured]
    return data


def _step(command, out, args, inputs=(), config=None, seed=None, expect_rc=0) -> Step:
    argv = [command, *[str(a) for a in args], "--out", str(out)]
    return Step(argv, out, [Path(p) for p in inputs], config or {}, seed, expect_rc)


def tune_round(seed: int, n_ops: int, work: Path) -> list[Op]:
    rng = _rng(seed, 1)
    seeds = _program_seeds(rng, n_ops)
    r_probe = np.linspace(3500.0, 6500.0, PROBE_POINTS)
    t_trace = np.geomspace(0.02, 15.0, TRACE_POINTS)
    clean = np.array(
        [TRACE_RHO * TRACE_R_STOP * relaxation_shape(float(t)) for t in t_trace]
    )
    ops = []
    for i in range(n_ops):
        d = work / f"op{i:04d}"
        d.mkdir(parents=True, exist_ok=True)
        f_probe = PROBE_BETA * r_probe**-PROBE_ALPHA + rng.normal(0.0, PROBE_NOISE_MHZ, PROBE_POINTS)
        probe_rows = [(repr(float(r)), repr(float(f))) for r, f in zip(r_probe, f_probe)]
        _write_csv(d / "probe.csv", ["resistance_ohm", "f01max_mhz"], probe_rows)
        noisy = clean * np.exp(rng.normal(0.0, TRACE_NOISE, TRACE_POINTS))
        trace_rows = [(f"{t:.6f}", f"{y:.6f}") for t, y in zip(t_trace, noisy)]
        _write_csv(d / "trace.csv", ["t_hr", "delta_r_ohm"], trace_rows)
        cell = unit_cell(rng)
        offsets = [[cell[r % 3, c % 3] for c in range(CHIP_COLS)] for r in range(CHIP_ROWS)]
        _write_json(d / "design.json", _design(CHIP_ROWS, CHIP_COLS, CHIP_BASE_MHZ, offsets))
        s = seeds[i]
        cal = d / "cal"
        steps = [
            _step("calibrate-freq", cal, ["--data", d / "probe.csv"], [d / "probe.csv"],
                  {"data": str(d / "probe.csv")}),
            _step("assign-targets", d / "tgt",
                  ["--calibration", cal / "calibration.json", "--design", d / "design.json"],
                  [cal / "calibration.json", d / "design.json"], {"aging_budget": AGING_BUDGET}),
            _step("fit-relaxation", d / "fit", ["--data", d / "trace.csv"], [d / "trace.csv"],
                  {"breakpoints": None}),
            *_campaign_steps(d, s, 221, 0.5),
        ]
        ops.append(Op(i, d, steps, {
            "probe": [(float(a), float(b)) for a, b in probe_rows],
            "trace": [(float(a), float(b)) for a, b in trace_rows],
            "design_f": [CHIP_BASE_MHZ + v for row in offsets for v in row],
            "qubits": 221, "noise": 0.5, "seed": s,
        }))
    return ops


def _campaign_steps(d: Path, seed: int, qubits: int, noise: float) -> list[Step]:
    sim = d / "sim"
    return [
        _step("simulate-tuning", sim,
              ["--qubits", qubits, "--noise", noise, "--seed", seed], [],
              {"qubits": qubits, "design_resistance": DESIGN_RESISTANCE,
               "aging_budget": AGING_BUDGET, "reserve": RESERVE, "noise": noise}, seed),
        _step("report", d / "rep", ["--campaign", sim / "campaign.json"],
              [sim / "campaign.json"]),
    ]


def tune_bulk(seed: int, n_ops: int, work: Path) -> list[Op]:
    seeds = _program_seeds(_rng(seed, 2), n_ops)
    ops = []
    for i, s in enumerate(seeds):
        d = work / f"op{i:04d}"
        d.mkdir(parents=True, exist_ok=True)
        ops.append(Op(i, d, _campaign_steps(d, s, 2000, 0.0),
                      {"qubits": 2000, "noise": 0.0, "seed": s}))
    return ops


def yield_sweep(seed: int, n_ops: int, work: Path) -> list[Op]:
    seeds = _program_seeds(_rng(seed, 3), n_ops)
    ops = []
    for i, s in enumerate(seeds):
        d = work / f"op{i:04d}"
        d.mkdir(parents=True, exist_ok=True)
        sigma = YIELD_SIGMAS[i % len(YIELD_SIGMAS)]
        steps = [
            _step("yield", d / f"y{cells}",
                  ["--sigma", sigma, "--cells", cells, "--trials", YIELD_TRIALS,
                   "--seed", s, "--threads", 1], [],
                  {"sigma": sigma, "cells": cells, "trials": YIELD_TRIALS,
                   "window": WINDOW_ARG, "dice": 212, "design": None}, s)
            for cells in YIELD_CELLS
        ]
        ops.append(Op(i, d, steps, {"sigma": sigma, "seed": s}))
    return ops


def park_lot(seed: int, n_ops: int, work: Path) -> list[Op]:
    """A fixed lot of dice, visited in passes; ``seed`` orders each pass.

    The lot does not change with the seed because per-die search time at the
    defining commit is heavy-tailed: in 3000 dice of each class the slowest
    took 10 s (trimmed) and 55 s (fab-limited), so any seeded sample of a few
    hundred dice gives a wall time that swings by tens of percent from seed
    to seed. See README.md.
    """
    rng = _rng(LOT_SEED, 4)
    cells = [unit_cell(rng) for _ in range(16)]
    dice = []
    for i in range(LOT_DICE):
        sigma, step, max_park = TRIMMED_DIE if i % 2 == 0 else FAB_LIMITED_DIE
        cell = cells[i % len(cells)]
        measured = DIE_BASE_MHZ + cell + rng.normal(0.0, sigma, (3, 3))
        design = work / f"die{i:03d}" / "die.json"
        design.parent.mkdir(parents=True, exist_ok=True)
        _write_json(design, _design(3, 3, DIE_BASE_MHZ, cell, measured))
        dice.append((design, step, max_park, [float(v) for v in measured.ravel()]))
    order_rng = _rng(seed, 4)
    first_op = {}
    ops = []
    for p in range(max(1, round(n_ops / LOT_DICE))):
        for i in order_rng.permutation(LOT_DICE):
            design, step, max_park, freqs = dice[i]
            d = design.parent / f"pass{p}"
            steps = [
                _step("analyze-lattice", d / "ana", ["--design", design, "--window", WINDOW_ARG],
                      [design], {"window": WINDOW_ARG}),
                _step("park", d / "park",
                      ["--design", design, "--window", WINDOW_ARG, "--step", step,
                       "--max-park", max_park],
                      [design], {"window": WINDOW_ARG, "max_park": max_park, "step": step,
                                 "symmetric": False}, expect_rc=None),
            ]
            k = len(ops)
            ops.append(Op(k, d, steps, {"freqs": freqs, "step": step, "max_park": max_park,
                                        "repeat_of": first_op.get(i)}))
            first_op.setdefault(i, k)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    ops_per_s: float  # nominal rate at the defining commit; fixes the op count
    full_checks: int | None  # ops that get the costly stream checks; None: all
    probe: str  # host-speed probe that follows this workload's kind of work


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tune_round", tune_round, 1.42, None, "mixed"),
        Workload("tune_bulk", tune_bulk, 3.4, 4, "mixed"),
        Workload("yield_sweep", yield_sweep, 1.65, 3, "mc"),
        Workload("park_lot", park_lot, 80.0, None, "mixed"),
    )
}


def op_count(workload: Workload, seconds: float) -> int:
    """Fixed op count of a run: enough ops to fill about ``seconds`` at the
    defining commit, and never fewer than 11 so the tail percentile exists.
    park_lot rounds it to whole passes over its lot."""
    return max(11, math.ceil(seconds * workload.ops_per_s))
