"""Detuning-edge yield: unit-cell search, tiling, and Monte Carlo.

A 3x3 unit cell of frequency offsets is tiled by translation into larger
chips; yield is the probability that every nearest-neighbor edge keeps
its |detuning| inside the acceptance window when each qubit frequency is
perturbed by independent Gaussian spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InfeasibleError, ValidationError, check, check_window
from .lattice import QubitLattice

DESIGN_WINDOW_MHZ = (40.0, 110.0)
YIELD_WINDOW_MHZ = (20.0, 130.0)
DEFAULT_DICE_PER_WAFER = 212
# Dice per wafer stay below 2**53, where round(yield * dice) is still exact.
MAX_DICE = 2**53
# Largest tiled chip, in qubits: 100x the paper's 1000-qubit scale. A larger
# tiling is refused before its frequency list is built.
MAX_TILE_QUBITS = 100_000
# Largest Monte Carlo run, in trials x qubits: 100x the paper's 1000-qubit
# scale at 1e5 trials. A larger run is refused before any draw.
MAX_QUBIT_TRIALS = 10**10
# Most worker threads one run may ask for. Each starts an OS thread, and the
# result is identical for any thread count.
MAX_THREADS = 64
# Backtracking nodes after which the unit-cell search gives up with exit 3.
CELL_SEARCH_NODES = 200_000


# The 18 edges of a 3x3 cell on the torus its tiling wraps it onto, each as
# (label, p, q) with detuning f[p] - f[q]: the 12 internal edges (each node's
# right, then lower neighbour, in row-major order), then the translation
# stitches of each row and of each column.
TORUS_EDGES = (
    tuple(
        (f"internal ({r},{c})-({p[0]},{p[1]})", p, (r, c))
        for r in range(3)
        for c in range(3)
        for p in ((r, c + 1), (r + 1, c))
        if max(p) < 3
    )
    + tuple((f"row stitch ({r},2)-({r},0)", (r, 2), (r, 0)) for r in range(3))
    + tuple((f"col stitch (2,{c})-(0,{c})", (2, c), (0, c)) for c in range(3))
)


def unit_cell_violations(offsets, window=DESIGN_WINDOW_MHZ) -> list[str]:
    """Every ``TORUS_EDGES`` detuning outside the window, in table order."""
    f = np.asarray(offsets, dtype=float)
    if f.shape != (3, 3):
        raise ValidationError(f"unit cell must be 3x3, got shape {f.shape}")
    lo, hi = window
    return [
        f"{label}: |{d:.1f}| MHz outside [{lo}, {hi}]"
        for label, p, q in TORUS_EDGES
        if not lo <= abs(d := f[p] - f[q]) <= hi
    ]


@dataclass(frozen=True)
class UnitCellDesign:
    """3x3 frequency offsets (MHz from a base frequency) whose internal
    and stitching detunings all sit inside the design window."""

    offsets_mhz: tuple[tuple[float, ...], ...]
    base_frequency_mhz: float = 4500.0
    design_window_mhz: tuple[float, float] = DESIGN_WINDOW_MHZ

    def __post_init__(self):
        offs = tuple(tuple(check(f"offsets_mhz[{r}][{c}]", v) for c, v in enumerate(row))
                     for r, row in enumerate(self.offsets_mhz))
        object.__setattr__(self, "offsets_mhz", offs)
        check("base_frequency_mhz", self.base_frequency_mhz)
        window = [check(f"design_window_mhz[{i}]", e) for i, e in enumerate(self.design_window_mhz)]
        bad = unit_cell_violations(offs, window)
        if bad:
            raise ValidationError(
                "unit cell violates its design window: " + "; ".join(bad)
            )


def generate_unit_cell(seed) -> UnitCellDesign:
    """Backtracking search for a cell that fits ``DESIGN_WINDOW_MHZ`` on
    offsets 0-250 MHz in 10 MHz steps.

    Offsets are tried in one order shuffled from the seeded rng, so the
    result is deterministic under a fixed seed. The search is exhaustive:
    when it ends without a cell, no other order finds one either.
    """
    window = DESIGN_WINDOW_MHZ
    lo, hi = window
    grid = np.arange(0.0, 255.0, 10.0)
    order = grid[np.random.default_rng(seed).permutation(len(grid))].tolist()
    cell = [0.0] * 9  # row-major
    nodes = 0
    # Each node's torus neighbours that the row-major search placed before it.
    placed = [[] for _ in range(9)]
    for _, p, q in TORUS_EDGES:
        i, j = sorted((3 * p[0] + p[1], 3 * q[0] + q[1]))
        placed[j].append(i)

    def place(idx):
        nonlocal nodes
        if nodes > CELL_SEARCH_NODES:
            raise InfeasibleError(
                f"unit-cell search for window {window} hit its node budget "
                f"({CELL_SEARCH_NODES} search nodes)"
            )
        nodes += 1
        if idx == 9:
            return True
        for v in order:
            if all(lo <= abs(v - cell[q]) <= hi for q in placed[idx]):
                cell[idx] = v
                if place(idx + 1):
                    return True
        return False

    if not place(0):
        raise InfeasibleError(f"no unit cell on the 10 MHz grid fits window {window}")
    return UnitCellDesign((cell[:3], cell[3:6], cell[6:]), design_window_mhz=window)


def tile(cell: UnitCellDesign, m: int, n: int) -> QubitLattice:
    """(3m)x(3n) lattice of identical translated copies of the cell."""
    check("m", m, ge=1, integer=True)
    check("n", n, ge=1, integer=True)
    check(f"qubits in a {m}x{n} tiling", 9 * m * n, le=MAX_TILE_QUBITS)
    with np.errstate(over="ignore"):  # QubitLattice names a node whose sum overflows
        grid = cell.base_frequency_mhz + np.tile(cell.offsets_mhz, (m, n))
    return QubitLattice(3 * m, 3 * n, grid.ravel().tolist())


@dataclass(frozen=True)
class YieldConfig:
    sigma_f_mhz: float
    master_seed: int
    window_mhz: tuple[float, float] = YIELD_WINDOW_MHZ
    trials: int = 10**5
    n_threads: int = 1
    # Trials per Monte Carlo chunk, each drawn from its own stream.
    chunk_trials: ClassVar[int] = 4096

    def __post_init__(self):
        check("sigma_f", self.sigma_f_mhz, ge=0)
        check("master_seed", self.master_seed, ge=0, integer=True)
        check("trials", self.trials, ge=1, integer=True)
        check_window("window", self.window_mhz)
        check("n_threads", self.n_threads, ge=1, le=MAX_THREADS, integer=True)


def wilson_interval(passes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion over 1 to MAX_QUBIT_TRIALS trials."""
    check("trials", trials, ge=1, le=MAX_QUBIT_TRIALS, integer=True)
    check("passes", passes, ge=0, le=trials, integer=True)
    z = check("z", z, gt=0)
    p = passes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def mc_chip_yield(lattice: QubitLattice, config: YieldConfig) -> dict:
    """Monte Carlo estimate of the all-edges-in-window probability, as the
    ``yield.csv`` columns (``qubits``, ``sigma_mhz``, ``yield`` and its 95%
    Wilson interval ``ci_lo``, ``ci_hi``) plus the count of ``passes``.

    Trials run in fixed-size chunks, and chunk c draws from one stream
    seeded by (master_seed, c). A chunk sweeps the lattice column by column
    and draws each column only for the trials still passing: column 0 is
    one (trials, rows) normal draw, and each later column is drawn, in
    trial order, for the survivors of the columns before it. A column's
    vertical edges and its horizontal edges to the previous column are
    tested together, and the trials that fail any of them are dropped; the
    chunk ends when the last column is tested or no trial is left.

    Every chunk is a pure function of (master_seed, c), so the result is
    bit-identical for any thread count or execution order. A lattice
    without edges passes every trial.
    """
    check(f"trials on {lattice.n_qubits} qubits", config.trials,
          le=MAX_QUBIT_TRIALS // lattice.n_qubits)
    rows = lattice.rows
    design = np.array(lattice.design_f01max).reshape(rows, lattice.cols)
    lo, hi = config.window_mhz
    # One trial's row of flags, read as a single void scalar, when it passes.
    all_pass = np.ones(rows, dtype=bool).view(f"V{rows}")[0]

    n_chunks = -(-config.trials // config.chunk_trials)

    def run_chunk(c: int) -> int:
        nt = min(config.chunk_trials, config.trials - c * config.chunk_trials)
        rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, c]))
        # Column j works on the first n * rows entries, for the n trials that
        # passed the columns before it.
        draw, diff = np.empty(nt * rows), np.empty(nt * rows)
        flags, scratch = np.empty(nt * rows, dtype=bool), np.empty(nt * rows, dtype=bool)

        def window_and(d: np.ndarray, f: np.ndarray) -> None:
            """f &= (lo <= |d| <= hi) entry by entry; d is overwritten."""
            t = scratch[:len(d)]
            np.abs(d, out=d)
            np.greater_equal(d, lo, out=t)
            f &= t
            np.less_equal(d, hi, out=t)
            f &= t

        n = nt
        # At a huge sigma a difference can overflow or be inf - inf; the inf
        # or NaN then fails its trial, which is the right answer.
        with np.errstate(over="ignore", invalid="ignore"):
            prev = None
            for j in range(lattice.cols):
                m = n * rows
                flat, d, f = draw[:m], diff[:m], flags[:m]
                # The stream's rng.normal(0, sigma, (n, rows)), up to the sign
                # of a zero.
                rng.standard_normal(out=flat)
                flat *= config.sigma_f_mhz
                col = flat.reshape(n, rows)
                col += design[:, j]
                # flat[k + 1] - flat[k] is a vertical edge, except where k
                # ends a trial's row and the difference runs into the next
                # trial (or, for the last k, past the draws): those flags are
                # set after the test.
                np.subtract(flat[1:], flat[:-1], out=d[:-1])
                d[-1] = 0.0
                f[:] = True
                window_and(d, f)
                f[rows - 1::rows] = True
                if prev is not None:
                    prev -= col
                    window_and(prev.reshape(-1), f)
                prev = col[f.view(f"V{rows}") == all_pass]
                n = len(prev)
                if not n:
                    break
        return n

    if config.n_threads == 1:
        passes = sum(run_chunk(c) for c in range(n_chunks))
    else:
        # Imported here, not at module load: concurrent.futures pulls in
        # logging, queue and traceback, which only a threaded run needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.n_threads) as pool:
            passes = sum(pool.map(run_chunk, range(n_chunks)))

    ci_lo, ci_hi = wilson_interval(passes, config.trials)
    return {"qubits": lattice.n_qubits, "sigma_mhz": config.sigma_f_mhz,
            "yield": passes / config.trials, "ci_lo": ci_lo, "ci_hi": ci_hi, "passes": passes}


def wafer_projection(yield_fraction: float, dice: int = DEFAULT_DICE_PER_WAFER) -> int:
    """Expected yielded chips per wafer of ``dice`` dice."""
    check("dice", dice, ge=0, lt=MAX_DICE, integer=True)
    return round(check("yield_fraction", yield_fraction, ge=0, le=1) * dice)
