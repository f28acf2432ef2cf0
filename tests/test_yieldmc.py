import numpy as np
import pytest

from jjtrim import yieldmc
from jjtrim.errors import InfeasibleError, ValidationError
from jjtrim.lattice import QubitLattice, edge_detunings
from jjtrim.yieldmc import (
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
        d = sorted(edge_detunings(tile(cell, 1, 1)).abs_detunings())
        assert d == [50.0] * 9 + [100.0] * 3

    def test_checker_rejects_stitching_violation(self):
        # rows 0/40/80: the row-stitch detuning is 80, outside [40, 40]
        bad = ((0.0, 40.0, 80.0),) * 3
        violations = unit_cell_violations(bad, window=(40.0, 40.0))
        assert any("stitch" in v for v in violations)
        with pytest.raises(ValidationError):
            UnitCellDesign(offsets_mhz=bad, design_window_mhz=(40.0, 40.0))

    def test_overconstrained_window_fails_search(self):
        with pytest.raises(InfeasibleError):
            generate_unit_cell(window=(40.0, 40.0), seed=0)

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
            d = edge_detunings(tile(cell, m, n)).abs_detunings()
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
    """Oracle: the fancy-index gather kernel that the slice kernel replaced.

    Each chunk is one (trials, qubits) draw; the edges are gathered by
    node id and tested in one pass.
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
    "tiled1x1": lambda: tile(generate_unit_cell(seed=7), 1, 1),
    "tiled2x6": lambda: tile(generate_unit_cell(seed=7), 2, 6),
    "tiled6x6": lambda: tile(generate_unit_cell(seed=7), 6, 6),
    "grid1x5": lambda: alternating_lattice(1, 5, seed=15),
    "grid5x1": lambda: alternating_lattice(5, 1, seed=51),
    "grid4x7": lambda: alternating_lattice(4, 7, seed=47),
}


class TestSliceKernelOracle:
    @pytest.mark.parametrize("sigma", [0.0, 7.7, 18.4, 93.5])
    @pytest.mark.parametrize("name", sorted(ORACLE_LATTICES))
    def test_passes_match_gather_kernel(self, name, sigma):
        lat = ORACLE_LATTICES[name]()
        # neither chunk_trials (4096) nor any block size divides 4097 or 5000
        for trials in (1, 4097, 5000):
            expected = gather_passes(
                lat, YieldConfig(sigma_f_mhz=sigma, master_seed=13, trials=trials)
            )
            for threads in (1, 2):
                cfg = YieldConfig(
                    sigma_f_mhz=sigma, master_seed=13, trials=trials, n_threads=threads
                )
                assert mc_chip_yield(lat, cfg).passes == expected

    @pytest.mark.parametrize("block_values", [1, 100, 4096])
    def test_block_size_does_not_change_passes(self, monkeypatch, block_values):
        lat = tile(generate_unit_cell(seed=7), 2, 2)
        cfg = YieldConfig(sigma_f_mhz=18.4, master_seed=3, trials=5000)
        expected = mc_chip_yield(lat, cfg).passes
        monkeypatch.setattr(yieldmc, "BLOCK_VALUES", block_values)
        assert mc_chip_yield(lat, cfg).passes == expected


class TestLatticesWithFewEdges:
    def test_single_qubit_passes_every_trial(self):
        lat = QubitLattice(rows=1, cols=1, design_f01max=(4500.0,))
        res = mc_chip_yield(lat, YieldConfig(sigma_f_mhz=18.4, master_seed=1, trials=5000))
        assert res.passes == 5000
        assert res.yield_estimate == 1.0

    @pytest.mark.parametrize(
        "rows, cols, seed, pinned",
        [(1, 5, 15, (4997, 4025, 458)), (5, 1, 51, (5000, 4235, 452))],
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
        proj = wafer_projection(self._result(0.17))
        assert proj.chips == 36
        assert proj.qubits == 324

    def test_eighty_six_percent(self):
        assert wafer_projection(self._result(0.86)).chips == 182

    def test_zero_yield(self):
        proj = wafer_projection(self._result(0.0))
        assert proj.chips == 0 and proj.qubits == 0

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
