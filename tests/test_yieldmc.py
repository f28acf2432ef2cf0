import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from jjtrim import yieldmc
from jjtrim.errors import InfeasibleError, ValidationError
from jjtrim.lattice import QubitLattice, edge_detunings
from jjtrim.yieldmc import (
    YIELD_WINDOW_MHZ,
    UnitCellDesign,
    YieldConfig,
    YieldResult,
    generate_unit_cell,
    mc_chip_yield,
    tile,
    unit_cell_violations,
    wafer_projection,
    wilson_interval,
    yield_curve,
)

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

    def test_overconstrained_window_fails_search(self, monkeypatch):
        monkeypatch.setattr(yieldmc, "DESIGN_WINDOW_MHZ", (40.0, 40.0))
        with pytest.raises(InfeasibleError, match=r"fits window \(40.0, 40.0\)"):
            generate_unit_cell(seed=0)

    def test_generated_cells_pass_independent_checker(self):
        for seed in range(100):
            cell = generate_unit_cell(seed=seed)
            assert unit_cell_violations(cell.offsets_mhz) == []

    def test_generation_deterministic(self):
        assert generate_unit_cell(seed=3).offsets_mhz == generate_unit_cell(seed=3).offsets_mhz


class TestTiling:
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
            a, b = lat.node_id(r, 2), lat.node_id(r, 3)
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
        assert res.yield_estimate == 1.0

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
        assert results[0].passes == results[1].passes
        assert results[0].yield_estimate == results[1].yield_estimate

    def test_wilson_ci_shrinks_like_sqrt_trials(self):
        lat = tile(UnitCellDesign(offsets_mhz=ADDITIVE_CELL), 1, 1)
        widths = {}
        for trials in (10**3, 10**5):
            res = mc_chip_yield(lat, YieldConfig(sigma_f_mhz=18.4, master_seed=2, trials=trials))
            assert res.ci_low <= res.yield_estimate <= res.ci_high
            widths[trials] = res.ci_high - res.ci_low
        ratio = widths[10**3] / widths[10**5]
        assert ratio == pytest.approx(10.0, rel=0.25)

    def test_yield_bands_paper_scale(self):
        cell = generate_unit_cell(seed=7)
        lat = tile(cell, 1, 1)
        yields = {}
        for sigma in (18.4, 7.7, 93.5):
            res = mc_chip_yield(lat, YieldConfig(sigma_f_mhz=sigma, master_seed=7, trials=10**5))
            yields[sigma] = res.yield_estimate
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
                mc_chip_yield(lat, replace(cfg, n_threads=t)).passes for t in (1, 2)
            )
            assert one == two
            if sigma == 0.0 or lat.n_qubits == 1:
                assert one == expected
            else:
                assert wilson_overlap(one, expected, trials)


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
        res = mc_chip_yield(lat, YieldConfig(sigma_f_mhz=sigma, master_seed=7, trials=10**5))
        lo, hi = wilson_interval(res.passes, res.trials, z=4.0)
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
        assert res.passes == 5000
        assert res.yield_estimate == 1.0

    @pytest.mark.parametrize(
        "rows, cols, seed, pinned",
        [(1, 5, 15, (4998, 3982, 442)), (5, 1, 51, (5000, 4235, 452))],
    )
    def test_single_row_and_column_pinned(self, rows, cols, seed, pinned):
        lat = alternating_lattice(rows, cols, seed)
        got = tuple(
            mc_chip_yield(lat, YieldConfig(sigma_f_mhz=s, master_seed=11, trials=5000)).passes
            for s in (7.7, 18.4, 93.5)
        )
        assert got == pinned


class TestYieldCurve:
    def test_monotone_in_size_and_sigma(self):
        cell = generate_unit_cell(seed=7)
        rows = yield_curve(
            cell,
            sigmas_mhz=[7.7, 18.4],
            sizes=[(1, 1), (1, 2), (2, 2)],
            master_seed=7,
            trials=20000,
        )
        by_sigma = {}
        by_size = {}
        for r in rows:
            by_sigma.setdefault(r["sigma_mhz"], []).append(r)
            by_size.setdefault(r["qubits"], []).append(r)
        # non-increasing in qubit count for fixed sigma, within 3x CI width
        for sigma, grp in by_sigma.items():
            grp.sort(key=lambda r: r["qubits"])
            for a, b in zip(grp, grp[1:]):
                slack = 3.0 * (a["ci_hi"] - a["ci_lo"])
                assert b["yield"] <= a["yield"] + slack
        # non-increasing in sigma for fixed size
        for q, grp in by_size.items():
            grp.sort(key=lambda r: r["sigma_mhz"])
            for a, b in zip(grp, grp[1:]):
                slack = 3.0 * (a["ci_hi"] - a["ci_lo"])
                assert b["yield"] <= a["yield"] + slack

    def test_hundred_qubit_scale_survives_at_projected_precision(self):
        cell = generate_unit_cell(seed=7)
        rows = yield_curve(cell, sigmas_mhz=[7.7], sizes=[(2, 6)], master_seed=7, trials=10**5)
        assert rows[0]["qubits"] == 108
        assert rows[0]["yield"] > 0.0


class TestWaferProjection:
    def _result(self, y, qubits=9):
        return YieldResult(
            yield_estimate=y, ci_low=y, ci_high=y, passes=0, trials=1, qubit_count=qubits
        )

    def test_seventeen_percent(self):
        assert wafer_projection(self._result(0.17)) == 36

    def test_eighty_six_percent(self):
        assert wafer_projection(self._result(0.86)) == 182

    def test_zero_yield(self):
        assert wafer_projection(self._result(0.0)) == 0

    def test_negative_dice_rejected(self):
        with pytest.raises(ValidationError):
            wafer_projection(self._result(0.5), dice=-1)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(170, 1000)
        assert lo < 0.17 < hi

    def test_degenerate_all_pass(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0 and lo > 0.99
