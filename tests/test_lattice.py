import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_edge_detunings

from jjtrim import lattice
from jjtrim.errors import FitError, InfeasibleError, ValidationError
from jjtrim.lattice import (
    QubitLattice,
    detuning_error_sigma,
    edge_detunings,
    optimize_parking,
    spread_after_centering,
    subtract_global_offset,
)
from jjtrim.yieldmc import generate_unit_cell, tile

# Additive unit cell: row offsets (0,100,50) + column offsets (0,50,100).
CELL_FREQS = [0.0, 50.0, 100.0, 100.0, 150.0, 200.0, 50.0, 100.0, 150.0]


def cell_lattice(base=4500.0):
    return QubitLattice(rows=3, cols=3, design_f01max=tuple(base + f for f in CELL_FREQS))


class TestEdgeDetunings:
    def test_unit_cell_pattern(self):
        d = sorted(edge_detunings(cell_lattice())["abs_mhz"])
        assert len(d) == 12
        assert d[:9] == [50.0] * 9
        assert d[9:] == [100.0] * 3

    def test_all_equal_frequencies(self):
        lat = QubitLattice(rows=2, cols=3, design_f01max=(4500.0,) * 6)
        cols = edge_detunings(lat)
        assert np.all(cols["abs_mhz"] == 0.0)
        assert cols["in_window"] is None

    def test_summary_reflects_inputs(self):
        # detunings spanning 20-80 MHz, as on a full design Hamiltonian
        lat = QubitLattice(rows=1, cols=4, design_f01max=(4500.0, 4520.0, 4575.0, 4495.0))
        cols = edge_detunings(lat, window=(25.0, 80.0))
        assert cols["node_a"].tolist() == [0, 1, 2]
        assert cols["node_b"].tolist() == [1, 2, 3]
        assert cols["signed_mhz"].tolist() == [-20.0, -55.0, 80.0]
        assert cols["abs_mhz"].tolist() == [20.0, 55.0, 80.0]
        assert cols["in_window"].tolist() == [False, True, True]

    def test_wrong_frequency_count(self):
        for n in (8, 10):
            with pytest.raises(ValidationError, match=f"expected 9 frequencies, got {n}"):
                edge_detunings(cell_lattice(), [4500.0] * n)

    def test_modulated_endpoint_is_higher(self):
        cols = edge_detunings(cell_lattice())
        freqs = np.array(cell_lattice().design_f01max)
        a, b, m = cols["node_a"], cols["node_b"], cols["modulated_qubit"]
        other = np.where(m == a, b, a)
        assert np.all((m == a) | (m == b))
        assert np.all(freqs[m] >= freqs[other])

    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        levels=st.lists(st.integers(-8, 8), min_size=25, max_size=25),
        scale=st.sampled_from([0.1, 7.7, 15.0]),
        window=st.one_of(st.none(), st.tuples(st.floats(0, 60), st.floats(60.5, 130))),
    )
    @settings(derandomize=True, deadline=None, max_examples=100)
    def test_matches_scalar_oracle(self, rows, cols, levels, scale, window):
        freqs = [4500.0 + scale * v for v in levels[: rows * cols]]
        lat = QubitLattice(rows=rows, cols=cols, design_f01max=tuple(freqs))
        got = edge_detunings(lat, window=window)
        want = oracle_edge_detunings(lat, freqs, window)
        assert list(got) == list(want)
        for name, column in want.items():
            if window is None and name == "in_window":
                assert got[name] is None
                continue
            dtype = float if name.endswith("_mhz") else (bool if name == "in_window" else np.int64)
            assert got[name].dtype == dtype
            assert got[name].tobytes() == np.array(column, dtype).tobytes(), name


class TestModulationAssignment:
    """The modulated qubit of each edge is its higher-frequency endpoint;
    the count per qubit is ``np.bincount`` of that column."""

    def test_valid_two_by_two(self):
        lat = QubitLattice(rows=2, cols=2, design_f01max=(100.0, 50.0, 50.0, 100.0))
        counts = np.bincount(edge_detunings(lat)["modulated_qubit"])
        assert counts.tolist() == [2, 0, 0, 2]

    def test_unit_cell_center_violation(self):
        # node at +150 MHz next to the 200 MHz corner modulates 3 edges
        counts = np.bincount(edge_detunings(cell_lattice())["modulated_qubit"])
        assert counts.max() == 3
        assert counts[4] == 3

    def test_single_edge_trivially_valid(self):
        lat = QubitLattice(rows=1, cols=2, design_f01max=(4500.0, 4550.0))
        assert edge_detunings(lat)["modulated_qubit"].tolist() == [1]

    @pytest.mark.parametrize("seed", range(12))
    def test_every_tiling_of_a_valid_cell_has_a_qubit_on_four_edges(self, seed):
        # Adjacent design offsets differ by at least 40 MHz, so the cell's
        # highest qubit is above all four torus neighbours; from 2x2 tilings
        # on, some copy of it is interior and modulates 4 edges.
        cell = generate_unit_cell(seed)
        for m in (2, 3):
            for n in (2, 3):
                modulated = edge_detunings(tile(cell, m, n))["modulated_qubit"]
                assert np.bincount(modulated).max() == 4


class TestGlobalOffset:
    def test_simple_centering(self):
        (out,) = subtract_global_offset([[10.0, 20.0, 30.0]])
        assert list(out) == [-10.0, 0.0, 10.0]

    def test_offset_invariance(self):
        base = [3.0, -1.0, 7.0, -9.0]
        a, b = subtract_global_offset([base, [x + 100.0 for x in base]])
        assert np.allclose(a, b)

    def test_residual_mean_zero(self):
        rng = np.random.default_rng(4)
        chips = [rng.normal(rng.uniform(-100, 100), 18.4, 9) for _ in range(5)]
        for centered in subtract_global_offset(chips):
            assert abs(centered.mean()) < 1e-9

    def test_empty_chip_rejected(self):
        with pytest.raises(ValidationError):
            subtract_global_offset([[1.0], []])


class TestSpread:
    def _chips(self, sigma, n_chips=3, n_qubits=9, seed=9):
        rng = np.random.default_rng(seed)
        return [
            rng.normal(rng.uniform(-200, 200), sigma, n_qubits) for _ in range(n_chips)
        ]

    def test_tuned_replica(self):
        sigma = spread_after_centering(self._chips(18.4, n_chips=30))
        assert abs(sigma - 18.4) / 18.4 < 0.15
        assert sigma / 4628.0 == pytest.approx(0.0040, abs=0.0006)

    def test_untuned_replica(self):
        sigma = spread_after_centering(self._chips(93.5, n_chips=30))
        assert sigma / 4628.0 == pytest.approx(0.0202, abs=0.002)

    def test_zero_deviation(self):
        assert spread_after_centering([[0.0] * 9]) == 0.0

    def test_population_sigma(self):
        # two chips centred to -1, +1 and -2, +2: population sigma sqrt(2.5)
        assert spread_after_centering([[4.0, 6.0], [0.0, 4.0]]) == pytest.approx(2.5**0.5)

    def test_too_few_pooled_samples(self):
        with pytest.raises(FitError, match="need at least 2 pooled samples, got 1"):
            spread_after_centering([[5.0]])


class TestDetuningError:
    def test_analytic_value(self):
        assert detuning_error_sigma(18.4) == pytest.approx(26.02, abs=0.01)

    def test_zero(self):
        assert detuning_error_sigma(0.0) == 0.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(12)
        a = rng.normal(0, 18.4, 10**5)
        b = rng.normal(0, 18.4, 10**5)
        assert np.std(a - b) == pytest.approx(26.0, abs=0.3)


def brute_force_parking(lattice, window, max_park, step):
    """Exhaustive enumeration over all downward offset assignments.

    Returns the first plan of least (count, max |offset|, sum |offset|) in
    ``itertools.product`` order, or None when no assignment fits.
    """
    lo, hi = window
    candidates = [0.0]
    k = 1
    while k * step <= max_park:
        candidates.append(-k * step)
        k += 1
    freqs = lattice.measured_f01max or lattice.design_f01max
    n = lattice.n_qubits
    # Row r is the r-th assignment of itertools.product(candidates, repeat=n).
    index = np.indices((len(candidates),) * n).reshape(n, -1).T
    offsets = np.array(candidates)[index]
    ok = np.ones(len(offsets), dtype=bool)
    for a, b in lattice.edges():
        d = np.abs(freqs[a] + offsets[:, a] - freqs[b] - offsets[:, b])
        ok &= (lo <= d) & (d <= hi)
    if not ok.any():
        return None
    offsets = offsets[ok]
    mags = np.abs(offsets)
    total = np.zeros(len(offsets))
    for col in mags.T:  # summed in node order, as the plan's cost is
        total = total + col
    first = np.lexsort((total, mags.max(axis=1), (offsets != 0.0).sum(axis=1)))[0]
    return tuple(float(o) for o in offsets[first])


def dfs_parking(lattice, window, max_park, step, symmetric=False):
    """The depth-first parking search that preceded iterative deepening:
    node-id order, candidates by |offset| (downward first), pruned only
    against the best plan so far. Returns its offsets, or None."""
    lo, hi = window
    candidates = [0.0]
    k = 1
    while k * step <= max_park:
        candidates.append(-k * step)
        if symmetric:
            candidates.append(k * step)
        k += 1
    candidates.sort(key=abs)
    freqs = lattice.measured_f01max or lattice.design_f01max
    n = lattice.n_qubits
    back_edges = [[] for _ in range(n)]
    for a, b in lattice.edges():
        back_edges[b].append(a)
    best = [None]
    offsets = [0.0] * n

    def cost(upto):
        nz = [abs(offsets[i]) for i in range(upto) if offsets[i] != 0.0]
        return (len(nz), max(nz) if nz else 0.0, sum(nz))

    def dfs(q):
        if best[0] is not None and cost(q) >= best[0][0]:
            return
        if q == n:
            if best[0] is None or cost(n) < best[0][0]:
                best[0] = (cost(n), tuple(offsets))
            return
        for off in candidates:
            fq = freqs[q] + off
            if all(lo <= abs(freqs[p] + offsets[p] - fq) <= hi for p in back_edges[q]):
                offsets[q] = off
                dfs(q + 1)
                offsets[q] = 0.0

    dfs(0)
    return None if best[0] is None else best[0][1]


def greedy_matching_size(edges):
    used = set()
    for a, b in edges:
        if a not in used and b not in used:
            used.update((a, b))
    return len(used) // 2


def park_or_none(lattice, window, max_park, step, symmetric=False):
    try:
        return optimize_parking(lattice, window, max_park, step, symmetric=symmetric).offsets_mhz
    except InfeasibleError:
        return None


class TestParking:
    def test_already_satisfying(self):
        plan = optimize_parking(cell_lattice(), (20.0, 130.0), max_park_mhz=50.0, step_mhz=1.0)
        assert plan.parked_count == 0

    def test_two_qubit_minimal_park(self):
        lat = QubitLattice(rows=1, cols=2, design_f01max=(4600.0, 4610.0))
        plan = optimize_parking(lat, (20.0, 130.0), max_park_mhz=50.0, step_mhz=1.0)
        assert plan.parked_count == 1
        assert plan.max_abs_offset == pytest.approx(10.0)
        parked = [f + o for f, o in zip(lat.design_f01max, plan.offsets_mhz)]
        assert edge_detunings(lat, parked, window=(20.0, 130.0))["in_window"].all()

    def test_matches_brute_force_on_random_instances(self):
        window = (20.0, 130.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            freqs = tuple(4500.0 + 30.0 * rng.integers(0, 6, 9).astype(float))
            lat = QubitLattice(rows=3, cols=3, design_f01max=freqs)
            oracle = brute_force_parking(lat, window, max_park=30.0, step=10.0)
            if oracle is None:
                with pytest.raises(InfeasibleError):
                    optimize_parking(lat, window, max_park_mhz=30.0, step_mhz=10.0)
                continue
            plan = optimize_parking(lat, window, max_park_mhz=30.0, step_mhz=10.0)
            assert plan.offsets_mhz == oracle
            parked = [f + o for f, o in zip(freqs, plan.offsets_mhz)]
            assert edge_detunings(lat, parked, window=window)["in_window"].all()

    @given(
        shape=st.sampled_from([(2, 3), (3, 3), (3, 4)]),
        levels=st.lists(st.integers(0, 10), min_size=12, max_size=12),
        symmetric=st.booleans(),
    )
    @settings(derandomize=True, deadline=None, max_examples=120)
    def test_matches_depth_first_search(self, shape, levels, symmetric):
        rows, cols = shape
        freqs = tuple(4500.0 + 15.0 * v for v in levels[: rows * cols])
        lat = QubitLattice(rows=rows, cols=cols, design_f01max=freqs)
        args = ((20.0, 130.0), 30.0, 10.0, symmetric)
        assert park_or_none(lat, *args) == dfs_parking(lat, *args)

    def test_tiled_chip_parks_within_budget(self):
        base = tile(generate_unit_cell(seed=7), 2, 6)
        window = (20.0, 130.0)
        for seed in (8, 17):
            rng = np.random.default_rng(seed)
            freqs = tuple(np.array(base.design_f01max) + rng.normal(0.0, 7.7, base.n_qubits))
            lat = QubitLattice(rows=6, cols=18, design_f01max=freqs)
            cols = edge_detunings(lat, window=window)
            out = ~cols["in_window"]
            violating = list(zip(cols["node_a"][out].tolist(), cols["node_b"][out].tolist()))
            plan = optimize_parking(lat, window, max_park_mhz=50.0, step_mhz=1.0)
            parked = [f + o for f, o in zip(freqs, plan.offsets_mhz)]
            assert edge_detunings(lat, parked, window=window)["in_window"].all()
            assert plan.parked_count >= greedy_matching_size(violating) >= 4

    def test_parked_count_beyond_recursion_limit(self, monkeypatch):
        # 512 parked qubits, more than half of Python's recursion limit.
        lat = QubitLattice(rows=32, cols=32, design_f01max=(5000.0,) * 1024)
        monkeypatch.setattr(lattice, "MAX_PARK_NODES", 10**7)
        plan = optimize_parking(lat, (20.0, 130.0), max_park_mhz=50.0, step_mhz=1.0)
        assert plan.parked_count == 512 and plan.max_abs_offset == 20.0
        parked = [f + o for f, o in zip(lat.design_f01max, plan.offsets_mhz)]
        assert edge_detunings(lat, parked, window=(20.0, 130.0))["in_window"].all()

    def test_node_budget_raises(self, monkeypatch):
        lat = QubitLattice(rows=1, cols=2, design_f01max=(4600.0, 4610.0))
        monkeypatch.setattr(lattice, "MAX_PARK_NODES", 3)
        with pytest.raises(InfeasibleError, match="node budget"):
            optimize_parking(lat, (20.0, 130.0), max_park_mhz=50.0, step_mhz=1.0)

    def test_infeasible_lists_edges(self):
        lat = QubitLattice(rows=1, cols=2, design_f01max=(4600.0, 4600.0))
        with pytest.raises(InfeasibleError, match="violating"):
            optimize_parking(lat, (20.0, 130.0), max_park_mhz=5.0, step_mhz=1.0)
