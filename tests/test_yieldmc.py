import csv
import functools
import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jjtrim import yieldmc
from jjtrim.cli import main
from jjtrim.errors import InfeasibleError, ValidationError
from jjtrim.lattice import QubitLattice, edge_detunings
from jjtrim.yieldmc import (
    YIELD_WINDOW_MHZ,
    UnitCellDesign,
    YieldConfig,
    generate_unit_cell,
    mc_chip_yield,
    tile,
    unit_cell_violations,
    wafer_projection,
    wilson_interval,
)

ROOT = Path(__file__).resolve().parent.parent
ADDITIVE_CELL = ((0.0, 50.0, 100.0), (100.0, 150.0, 200.0), (50.0, 100.0, 150.0))


class TestUnitCell:
    def test_additive_cell_is_valid(self):
        assert unit_cell_violations(ADDITIVE_CELL) == []
        cell = UnitCellDesign(offsets_mhz=ADDITIVE_CELL)
        d = sorted(edge_detunings(tile(cell, 1, 1))["abs_mhz"])
        assert d == [50.0] * 9 + [100.0] * 3

    def test_checker_rejects_stitching_violation(self):
        # rows 0/40/80: the row-stitch detuning is 80, outside [40, 40]
        bad = ((0.0, 40.0, 80.0),) * 3
        violations = unit_cell_violations(bad, window=(40.0, 40.0))
        assert any("stitch" in v for v in violations)
        with pytest.raises(ValidationError):
            UnitCellDesign(offsets_mhz=bad, design_window_mhz=(40.0, 40.0))

    def test_violation_messages(self):
        # Each message keeps the label and signed detuning of its torus edge.
        assert unit_cell_violations(ADDITIVE_CELL, window=(60.0, 120.0)) == [
            "internal (0,0)-(0,1): |50.0| MHz outside [60.0, 120.0]",
            "internal (0,1)-(0,2): |50.0| MHz outside [60.0, 120.0]",
            "internal (1,0)-(1,1): |50.0| MHz outside [60.0, 120.0]",
            "internal (1,0)-(2,0): |-50.0| MHz outside [60.0, 120.0]",
            "internal (1,1)-(1,2): |50.0| MHz outside [60.0, 120.0]",
            "internal (1,1)-(2,1): |-50.0| MHz outside [60.0, 120.0]",
            "internal (1,2)-(2,2): |-50.0| MHz outside [60.0, 120.0]",
            "internal (2,0)-(2,1): |50.0| MHz outside [60.0, 120.0]",
            "internal (2,1)-(2,2): |50.0| MHz outside [60.0, 120.0]",
            "col stitch (2,0)-(0,0): |50.0| MHz outside [60.0, 120.0]",
            "col stitch (2,1)-(0,1): |50.0| MHz outside [60.0, 120.0]",
            "col stitch (2,2)-(0,2): |50.0| MHz outside [60.0, 120.0]",
        ]

    def test_torus_edges_are_the_edges_of_a_tiling(self):
        # Each edge of a tiled chip joins the cell nodes of one table entry.
        table = {frozenset((p, q)) for _, p, q in yieldmc.TORUS_EDGES}
        assert len(yieldmc.TORUS_EDGES) == len(table) == 18
        lat = tile(UnitCellDesign(offsets_mhz=ADDITIVE_CELL), 2, 3)
        tiled = {frozenset(divmod(v, lat.cols) for v in edge) for edge in lat.edges()}
        assert {frozenset((r % 3, c % 3) for r, c in e) for e in tiled} == table

    @pytest.mark.parametrize(
        "constant, value, message",
        [
            ("DESIGN_WINDOW_MHZ", (40.0, 40.0),
             "no unit cell on the 10 MHz grid fits window (40.0, 40.0)"),
            ("CELL_SEARCH_NODES", 3,
             "unit-cell search for window (40.0, 110.0) hit its node budget (3 search nodes)"),
        ],
        ids=["overconstrained-window", "node-budget"],
    )
    def test_failed_search_is_infeasible(self, tmp_path, capsys, monkeypatch, constant, value,
                                         message):
        monkeypatch.setattr(yieldmc, constant, value)
        with pytest.raises(InfeasibleError) as err:
            generate_unit_cell(seed=0)
        assert str(err.value) == message
        out = tmp_path / "o"
        assert main(["yield", "--sigma", "7.7", "--seed", "0", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"infeasible: {message}\n"
        assert not out.exists()

    def test_no_cell_keeps_a_wider_margin_than_thirty_mhz(self):
        # Each row and column of a 3x3 torus cell is a 3-cycle of its edges.
        # For x <= y <= z with every |delta| a margin m inside [lo, hi],
        # z - x = (y - x) + (z - y) >= 2 (lo + m) and z - x <= hi - m, so
        # m <= (hi - 2 lo) / 3: 30 MHz in the yield window, over all 26**3
        # offset triples of the search grid.
        lo, hi = YIELD_WINDOW_MHZ
        grid = np.arange(0.0, 251.0, 10.0)
        x, y, z = np.meshgrid(grid, grid, grid, indexing="ij")
        delta = np.abs(np.stack([x - y, y - z, z - x]))
        margin = np.minimum(delta - lo, hi - delta).min(axis=0)
        assert margin.size == 26**3 == 17_576
        assert margin.max() <= (hi - 2 * lo) / 3 == 30.0
        assert margin[0, 5, 10] == 30.0  # offsets (0, 50, 100)
        cell = [[50.0 * ((r + c) % 3) for c in range(3)] for r in range(3)]
        assert unit_cell_violations(cell) == []
        assert unit_cell_violations(cell, YIELD_WINDOW_MHZ) == []

    def test_generated_cells_pass_independent_checker(self):
        for seed in range(100):
            cell = generate_unit_cell(seed=seed)
            assert unit_cell_violations(cell.offsets_mhz) == []

    def test_generation_deterministic(self):
        assert generate_unit_cell(seed=3).offsets_mhz == generate_unit_cell(seed=3).offsets_mhz


def lookup_tile(cell, m, n):
    """Each node's offset looked up by its position in the cell: the oracle for ``tile``."""
    rows, cols = 3 * m, 3 * n
    offs = cell.offsets_mhz
    freqs = [cell.base_frequency_mhz + offs[r % 3][c % 3] for r in range(rows) for c in range(cols)]
    return QubitLattice(rows=rows, cols=cols, design_f01max=tuple(freqs))


class TestTiling:
    @pytest.mark.parametrize("seed", [7, 1, 3])
    def test_matches_cell_lookup(self, seed):
        cell = generate_unit_cell(seed=seed)
        for m, n in [(1, 1), (2, 6), (6, 6), (6, 18), (100, 111)]:
            lat, want = tile(cell, m, n), lookup_tile(cell, m, n)
            assert lat == want
            assert set(map(type, lat.design_f01max)) == {float}

    def test_overflowing_node_named_without_warning(self):
        # a window of [0, 10] admits a flat cell; base + offset is inf
        cell = UnitCellDesign(((1e308,) * 3,) * 3, 1e308, design_window_mhz=(0.0, 10.0))
        with pytest.raises(ValidationError, match=r"nodes\[0\]\.design_mhz must be finite, got inf"):
            tile(cell, 1, 1)

    def test_single_cell(self):
        lat = tile(UnitCellDesign(offsets_mhz=ADDITIVE_CELL), 1, 1)
        assert lat.n_qubits == 9
        assert len(lat.edges()) == 12

    def test_one_by_two_edge_count(self):
        lat = tile(UnitCellDesign(offsets_mhz=ADDITIVE_CELL), 1, 2)
        assert lat.n_qubits == 18
        # grid formula (3m)(3n-1) + (3n)(3m-1)
        assert len(lat.edges()) == 27

    def test_stitching_detunings_translation_invariant(self):
        cell = UnitCellDesign(offsets_mhz=ADDITIVE_CELL)
        lat = tile(cell, 2, 2)
        f = lat.design_f01max
        # horizontal stitching edges between column 2 and column 3
        for r in range(6):
            a, b = r * lat.cols + 2, r * lat.cols + 3
            expected = abs(cell.offsets_mhz[r % 3][2] - cell.offsets_mhz[r % 3][0])
            assert abs(f[a] - f[b]) == pytest.approx(expected)

    def test_design_edges_inside_window_when_unperturbed(self):
        cell = generate_unit_cell(seed=11)
        for m, n in [(1, 1), (2, 3)]:
            d = edge_detunings(tile(cell, m, n))["abs_mhz"]
            assert np.all((d >= 40.0) & (d <= 110.0))


class TestMonteCarloYield:
    def test_zero_sigma_yields_one(self):
        lat = tile(UnitCellDesign(offsets_mhz=ADDITIVE_CELL), 1, 1)
        res = mc_chip_yield(lat, YieldConfig(sigma_f_mhz=0.0, master_seed=1, trials=1000))
        assert res["yield"] == 1.0

    def test_thread_count_invariance(self):
        lat = tile(UnitCellDesign(offsets_mhz=ADDITIVE_CELL), 1, 1)
        results = [
            mc_chip_yield(
                lat,
                YieldConfig(
                    sigma_f_mhz=18.4, master_seed=5, trials=20000, n_threads=t
                ),
            )
            for t in (1, 4)
        ]
        assert results[0]["passes"] == results[1]["passes"]
        assert results[0]["yield"] == results[1]["yield"]

    def test_wilson_ci_shrinks_like_sqrt_trials(self):
        lat = tile(UnitCellDesign(offsets_mhz=ADDITIVE_CELL), 1, 1)
        widths = {}
        for trials in (10**3, 10**5):
            res = mc_chip_yield(lat, YieldConfig(sigma_f_mhz=18.4, master_seed=2, trials=trials))
            assert res["ci_lo"] <= res["yield"] <= res["ci_hi"]
            widths[trials] = res["ci_hi"] - res["ci_lo"]
        ratio = widths[10**3] / widths[10**5]
        assert ratio == pytest.approx(10.0, rel=0.25)

    def test_yield_bands_paper_scale(self):
        cell = generate_unit_cell(seed=7)
        lat = tile(cell, 1, 1)
        yields = {}
        for sigma in (18.4, 7.7, 93.5):
            res = mc_chip_yield(lat, YieldConfig(sigma_f_mhz=sigma, master_seed=7, trials=10**5))
            yields[sigma] = res["yield"]
        assert 0.08 <= yields[18.4] <= 0.30
        assert 0.75 <= yields[7.7] <= 0.95
        assert yields[93.5] < 0.005


def gather_passes(lattice, config):
    """Oracle: the fancy-index gather kernel, which draws every qubit of
    every trial.

    Each chunk is one (trials, qubits) draw; the edges are gathered by
    node id and tested in one pass. It gives the same passes as the
    whole-chunk block kernel that the survivor kernel replaced.
    """
    freqs = np.array(lattice.design_f01max)
    edges = lattice.edges()
    ia = np.array([a for a, _ in edges], dtype=int)
    ib = np.array([b for _, b in edges], dtype=int)
    lo, hi = config.window_mhz
    passes = 0
    for c in range(-(-config.trials // config.chunk_trials)):
        nt = min(config.chunk_trials, config.trials - c * config.chunk_trials)
        rng = np.random.default_rng(np.random.SeedSequence([int(config.master_seed), c]))
        if config.sigma_f_mhz > 0:
            pert = rng.normal(0.0, config.sigma_f_mhz, size=(nt, freqs.size))
        else:
            pert = np.zeros((nt, freqs.size))
        f = freqs[None, :] + pert
        d = np.abs(f[:, ia] - f[:, ib])
        passes += int(np.all((d >= lo) & (d <= hi), axis=1).sum())
    return passes


def wilson_overlap(passes_a, passes_b, trials, z=4.0):
    """Whether two estimates of one yield have overlapping z-Wilson intervals."""
    a_lo, a_hi = wilson_interval(passes_a, trials, z)
    b_lo, b_hi = wilson_interval(passes_b, trials, z)
    return a_lo <= b_hi and b_lo <= a_hi


def alternating_lattice(rows, cols, seed):
    """Neighbours about 70 MHz apart with 10 MHz of seeded design scatter."""
    rng = np.random.default_rng(seed)
    freqs = [
        4500.0 + 70.0 * ((r + c) % 2) + rng.normal(0.0, 10.0)
        for r in range(rows)
        for c in range(cols)
    ]
    return QubitLattice(rows=rows, cols=cols, design_f01max=tuple(freqs))


ORACLE_LATTICES = {
    "qubit1x1": lambda: QubitLattice(rows=1, cols=1, design_f01max=(4500.0,)),
    "tiled1x1": lambda: tile(generate_unit_cell(seed=7), 1, 1),
    "tiled2x6": lambda: tile(generate_unit_cell(seed=7), 2, 6),
    "tiled6x6": lambda: tile(generate_unit_cell(seed=7), 6, 6),
    "grid1x5": lambda: alternating_lattice(1, 5, seed=15),
    "grid5x1": lambda: alternating_lattice(5, 1, seed=51),
    "grid4x7": lambda: alternating_lattice(4, 7, seed=47),
}


class TestSliceKernelOracle:
    """The survivor kernel against the gather kernel: the same yield within
    z = 4 Wilson intervals, and the same passes wherever they do not depend
    on the draw."""

    @pytest.mark.parametrize("sigma", [0.0, 7.7, 18.4, 93.5])
    @pytest.mark.parametrize("name", sorted(ORACLE_LATTICES))
    def test_passes_match_gather_kernel(self, name, sigma):
        lat = ORACLE_LATTICES[name]()
        # chunk_trials (4096) divides neither 4097 nor 5000
        for trials in (1, 4097, 5000):
            cfg = YieldConfig(sigma_f_mhz=sigma, master_seed=13, trials=trials)
            expected = gather_passes(lat, cfg)
            one, two = (
                mc_chip_yield(lat, replace(cfg, n_threads=t))["passes"] for t in (1, 2)
            )
            assert one == two
            if sigma == 0.0 or lat.n_qubits == 1:
                assert one == expected
            else:
                assert wilson_overlap(one, expected, trials)


def survivor_passes(lattice, config):
    """Oracle: the survivor kernel's column step on 2-D columns, as first
    written. Each column is one ``rng.normal`` draw of (trials, rows); its
    vertical edges are a strided difference and then its horizontal edges
    to the previous column, each tested with ``all(axis=1)``.

    It reads the same streams in the same order as ``mc_chip_yield``, so the
    passes must be equal, not only close.
    """
    design = np.array(lattice.design_f01max).reshape(lattice.rows, lattice.cols)
    lo, hi = config.window_mhz

    def in_window(d):
        d = np.abs(d)
        return ((d >= lo) & (d <= hi)).all(axis=1)

    passes = 0
    for c in range(-(-config.trials // config.chunk_trials)):
        nt = min(config.chunk_trials, config.trials - c * config.chunk_trials)
        rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, c]))
        alive = None
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(lattice.cols):
                n = nt if alive is None else len(alive)
                col = rng.normal(0.0, config.sigma_f_mhz, size=(n, lattice.rows))
                col += design[:, j]
                ok = in_window(col[:, 1:] - col[:, :-1])
                if alive is not None:
                    ok &= in_window(alive - col)
                alive = col[ok]
                if not len(alive):
                    break
        passes += len(alive)
    return passes


def random_design(seed, huge=None):
    """A seeded 1-6 x 1-6 ``alternating_lattice``; ``huge``, if given,
    replaces the frequency of one seeded node."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(v) for v in rng.integers(1, 7, size=2))
    lat = alternating_lattice(rows, cols, seed)
    if huge is None:
        return lat
    f = list(lat.design_f01max)
    f[rng.integers(len(f))] = huge
    return replace(lat, design_f01max=tuple(f))


COLUMN_STEP_LATTICES = {
    **ORACLE_LATTICES,
    **{f"random{s}": functools.partial(random_design, s) for s in (1, 2, 3, 4)},
    "random5-huge": functools.partial(random_design, 5, 1e308),
    "random6-huge": functools.partial(random_design, 6, -1e308),
    # every design edge exactly 20 or 130 MHz, on the yield window's edges
    "boundary2x3": lambda: QubitLattice(
        rows=2, cols=3, design_f01max=(4500.0, 4520.0, 4650.0, 4630.0, 4650.0, 4520.0)
    ),
}


class TestColumnStepOracle:
    """The flat column step against the 2-D one it replaced: the same passes
    for every stream, window, spread, trial count and thread count."""

    @pytest.mark.parametrize("sigma", [0.0, 7.7, 93.5, 1e300])
    @pytest.mark.parametrize("name", sorted(COLUMN_STEP_LATTICES))
    def test_passes_equal_2d_column_step(self, name, sigma):
        lat = COLUMN_STEP_LATTICES[name]()
        # lo > 0; lo <= 0; and a hi that a 1e308 node's edges can pass
        for window in (YIELD_WINDOW_MHZ, (-5.0, 90.0), (-5.0, 1e308)):
            # chunk_trials (4096) divides neither 4097 nor 5000
            for trials in (1, 4097, 5000):
                cfg = YieldConfig(sigma_f_mhz=sigma, master_seed=13, window_mhz=window,
                                  trials=trials)
                expected = survivor_passes(lat, cfg)
                for t in (1, 2):
                    assert mc_chip_yield(lat, replace(cfg, n_threads=t))["passes"] == expected


def transfer_yields(lattice, sigma, h, window=YIELD_WINDOW_MHZ, span=5.0):
    """Oracle: the yield of columns 0..j of a lattice, for every j, by a
    column transfer operator (Kramers & Wannier, Phys. Rev. 60, 252, 1941).

    The state is one column's perturbations on the grid k*h, |k*h| <= span *
    sigma, each weighted by h times the Gaussian density. An edge counts 1
    inside the window, 1/2 on its boundary and 0 outside. h must divide
    every design difference and both window edges, so each boundary falls
    on grid points and the yield converges as h**2. Moving to the next
    column applies one edge matrix along each row's axis, at O(K**(rows+1))
    for K grid points.
    """
    rows, cols = lattice.rows, lattice.cols
    design = np.array(lattice.design_f01max).reshape(rows, cols)

    def steps(x):
        n = round(x / h)
        assert math.isclose(n * h, x, abs_tol=1e-9), f"{x} MHz is off the {h} MHz grid"
        return n

    lo, hi = steps(window[0]), steps(window[1])
    m = math.ceil(span * sigma / h)
    k = np.arange(-m, m + 1)
    weight = h * np.exp(-0.5 * (k * h / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    def edge(f_a, f_b):
        """Window weight of |f_a + x - f_b - y| for grid steps x (rows), y (columns)."""
        d = np.abs(steps(f_a - f_b) + k[:, None] - k[None, :])
        return ((d >= lo) & (d <= hi)) - 0.5 * ((d == lo) | (d == hi))

    def axes(*which):
        return [k.size if r in which else 1 for r in range(rows)]

    v = np.ones((k.size,) * rows)
    yields = []
    for j in range(cols):
        for r in range(rows):
            if j:
                a = edge(design[r, j - 1], design[r, j])
                v = np.moveaxis(np.tensordot(a, v, (0, r)), 0, r)
            v *= weight.reshape(axes(r))
        for r in range(rows - 1):
            v *= edge(design[r, j], design[r + 1, j]).reshape(axes(r, r + 1))
        yields.append(float(v.sum()))
    return yields


def seed7_chain():
    """A 1x5 chain: row 0 of the seed-7 cell, tiled."""
    row = generate_unit_cell(seed=7).offsets_mhz[0]
    return QubitLattice(rows=1, cols=5, design_f01max=tuple(4500.0 + row[c % 3] for c in range(5)))


STRIPS = {
    "tiled1x2": lambda: tile(generate_unit_cell(seed=7), 1, 2),
    "chain1x5": seed7_chain,
}


@functools.cache
def operator_yields(strip, sigma, h):
    return transfer_yields(STRIPS[strip](), sigma, h)


def leading_columns(lattice, cols):
    f = np.array(lattice.design_f01max).reshape(lattice.rows, lattice.cols)[:, :cols]
    return QubitLattice(rows=lattice.rows, cols=cols, design_f01max=tuple(f.ravel()))


# (strip, leading columns, sigma, h): the 1x1 tiling is the 1x2 strip's
# first three columns.
OPERATOR_CASES = {
    "tiled1x1-7.7": ("tiled1x2", 3, 7.7, 1.0),
    "tiled1x2-7.7": ("tiled1x2", 6, 7.7, 1.0),
    "tiled1x1-18.4": ("tiled1x2", 3, 18.4, 2.0),
    "tiled1x2-18.4": ("tiled1x2", 6, 18.4, 2.0),
    "chain1x5-93.5": ("chain1x5", 5, 93.5, 2.0),
}


class TestTransferOperatorOracle:
    @pytest.mark.parametrize("strip, sigma", [("tiled1x2", 7.7), ("chain1x5", 93.5)])
    def test_converges_as_h_squared(self, strip, sigma):
        y0, y1, y2 = (operator_yields(strip, sigma, h)[-1] for h in (2.0, 1.0, 0.5))
        assert 3.5 < (y0 - y1) / (y1 - y2) < 4.5

    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
    def test_survivor_mc_brackets_operator_yield(self, case):
        strip, cols, sigma, h = OPERATOR_CASES[case]
        lat = leading_columns(STRIPS[strip](), cols)
        cfg = YieldConfig(sigma_f_mhz=sigma, master_seed=7, trials=10**5)
        lo, hi = wilson_interval(mc_chip_yield(lat, cfg)["passes"], cfg.trials, z=4.0)
        coarse = operator_yields(strip, sigma, h)[cols - 1]
        fine = operator_yields(strip, sigma, h / 2)[cols - 1]
        # Second-order convergence puts the error of the h/2 yield at a
        # third of its distance to the h yield.
        assert abs(coarse - fine) / 3 < (hi - lo) / 2 / 10
        assert lo <= fine <= hi


class TestLatticesWithFewEdges:
    def test_single_qubit_passes_every_trial(self):
        lat = QubitLattice(rows=1, cols=1, design_f01max=(4500.0,))
        res = mc_chip_yield(lat, YieldConfig(sigma_f_mhz=18.4, master_seed=1, trials=5000))
        assert res["passes"] == 5000
        assert res["yield"] == 1.0

    @pytest.mark.parametrize(
        "rows, cols, seed, pinned",
        [(1, 5, 15, (4998, 3982, 442)), (5, 1, 51, (5000, 4235, 452))],
    )
    def test_single_row_and_column_pinned(self, rows, cols, seed, pinned):
        lat = alternating_lattice(rows, cols, seed)
        got = tuple(
            mc_chip_yield(lat, YieldConfig(sigma_f_mhz=s, master_seed=11, trials=5000))["passes"]
            for s in (7.7, 18.4, 93.5)
        )
        assert got == pinned


class TestYieldCurve:
    def test_scan_script(self, tmp_path, monkeypatch, capsys):
        path = ROOT / "scripts" / "yield_scan.py"
        spec = importlib.util.spec_from_file_location("yield_scan", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = tmp_path / "scan.csv"
        monkeypatch.setattr(sys, "argv", ["yield_scan.py", "--trials", "200", "--out", str(out)])
        script.main()
        assert capsys.readouterr().out == f"wrote 120 rows to {out}\n"
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["cell", "qubits", "sigma_mhz", "yield", "ci_lo", "ci_hi"]
            rows = [[row[0], *(float(v) for v in row[1:])] for row in reader]
        assert len(rows) == 3 * len(script.SIGMAS_MHZ) * len(script.SIZES) == 120
        assert [row[0] for row in rows] == ["seed7"] * 40 + ["max_margin"] * 40 + ["checkerboard"] * 40
        assert [row[1:3] for row in rows[80:]] == [row[1:3] for row in rows[:40]]
        assert all(lo <= y <= hi for _c, _q, _s, y, lo, hi in rows)
        assert script.MAX_MARGIN_CELL.offsets_mhz[1] == (50.0, 100.0, 0.0)
        board = script.checkerboard(1, 2)
        assert (board.rows, board.cols) == (3, 6)
        assert set(edge_detunings(board)["abs_mhz"]) == {75.0}
        assert board.design_f01max[:7] == (4500.0, 4575.0) * 3 + (4575.0,)


class TestWaferProjection:
    def test_seventeen_percent(self):
        assert wafer_projection(0.17) == 36

    def test_eighty_six_percent(self):
        assert wafer_projection(0.86) == 182

    def test_zero_yield(self):
        assert wafer_projection(0.0) == 0

    def test_negative_dice_rejected(self):
        with pytest.raises(ValidationError):
            wafer_projection(0.5, dice=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_non_finite_or_negative_yield_rejected(self, bad):
        with pytest.raises(ValidationError, match="yield_fraction"):
            wafer_projection(bad)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(170, 1000)
        assert lo < 0.17 < hi

    def test_degenerate_all_pass(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0 and lo > 0.99
