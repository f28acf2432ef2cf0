"""Lattice Hamiltonian targeting analysis.

Rectangular qubit grids with nearest-neighbor edges: per-edge detunings
and modulated-endpoint assignment, chip-offset subtraction and spread
statistics, and an exact parking search that moves qubits off their
maximum frequency only as a last resort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError
from .freqmodel import GaussianFit, fit_gaussian

# Candidate park offsets per qubit (max_park / step) beyond which the
# search is refused rather than left to grow without bound.
MAX_PARK_OFFSETS = 10_000


@dataclass(frozen=True)
class QubitLattice:
    """rows x cols grid; node ids are row-major integers.

    ``design_f01max`` and optional ``measured_f01max`` are flat tuples of
    MHz values in node-id order.
    """

    rows: int
    cols: int
    design_f01max: tuple[float, ...]
    measured_f01max: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValidationError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        n = self.rows * self.cols
        design = tuple(float(f) for f in self.design_f01max)
        object.__setattr__(self, "design_f01max", design)
        if len(design) != n:
            raise ValidationError(f"expected {n} design frequencies, got {len(design)}")
        if self.measured_f01max is not None:
            meas = tuple(float(f) for f in self.measured_f01max)
            object.__setattr__(self, "measured_f01max", meas)
            if len(meas) != n:
                raise ValidationError(f"expected {n} measured frequencies, got {len(meas)}")

    @property
    def n_qubits(self) -> int:
        return self.rows * self.cols

    def node_id(self, r: int, c: int) -> int:
        return r * self.cols + c

    def edges(self) -> list[tuple[int, int]]:
        """Nearest-neighbor grid adjacency, each edge as (low id, high id)."""
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                a = self.node_id(r, c)
                if c + 1 < self.cols:
                    out.append((a, self.node_id(r, c + 1)))
                if r + 1 < self.rows:
                    out.append((a, self.node_id(r + 1, c)))
        return out


@dataclass(frozen=True)
class EdgeDetuning:
    edge: tuple[int, int]
    signed_mhz: float           # f(low id) - f(high id), fixed orientation
    abs_mhz: float
    modulated_qubit: int        # higher-frequency endpoint
    in_window: bool | None
    tie: bool = False


@dataclass(frozen=True)
class DetuningReport:
    edges: tuple[EdgeDetuning, ...]

    def abs_detunings(self) -> np.ndarray:
        return np.array([e.abs_mhz for e in self.edges])

    def summary(self) -> dict:
        d = self.abs_detunings()
        return {
            "edges": len(self.edges),
            "min_mhz": float(d.min()),
            "max_mhz": float(d.max()),
            "median_mhz": float(np.median(d)),
        }


def edge_detunings(
    lattice: QubitLattice,
    freqs=None,
    window: tuple[float, float] | None = None,
) -> DetuningReport:
    """Per-edge detunings with the modulated (higher-frequency) endpoint.

    ``freqs`` may be a mapping node id -> MHz or a flat sequence; it
    defaults to the lattice's measured frequencies, else design.
    """
    if freqs is None:
        freqs = lattice.measured_f01max or lattice.design_f01max
    if not isinstance(freqs, dict):
        freqs = {i: f for i, f in enumerate(freqs)}
    missing = [i for i in range(lattice.n_qubits) if i not in freqs or freqs[i] is None]
    if missing:
        raise ValidationError(f"missing frequency for nodes {missing}")
    out = []
    for a, b in lattice.edges():
        fa, fb = float(freqs[a]), float(freqs[b])
        signed = fa - fb
        tie = fa == fb
        modulated = a if fa >= fb else b
        in_window = None
        if window is not None:
            in_window = window[0] <= abs(signed) <= window[1]
        out.append(
            EdgeDetuning(
                edge=(a, b),
                signed_mhz=signed,
                abs_mhz=abs(signed),
                modulated_qubit=modulated,
                in_window=in_window,
                tie=tie,
            )
        )
    return DetuningReport(edges=tuple(out))


@dataclass(frozen=True)
class ModulationAssignment:
    counts: dict
    max_count: int
    valid: bool                 # no qubit modulates more than two edges
    ties: tuple[tuple[int, int], ...]


def modulation_assignment(report: DetuningReport) -> ModulationAssignment:
    """Count edges activated by modulating each qubit; at most two per
    qubit keeps gate-activation collisions manageable."""
    counts: dict[int, int] = {}
    ties = []
    for e in report.edges:
        counts[e.modulated_qubit] = counts.get(e.modulated_qubit, 0) + 1
        if e.tie:
            ties.append(e.edge)
    max_count = max(counts.values()) if counts else 0
    return ModulationAssignment(
        counts=counts, max_count=max_count, valid=max_count <= 2, ties=tuple(ties)
    )


def subtract_global_offset(chips) -> list[np.ndarray]:
    """Center each chip's frequency deviations on its own mean."""
    chips = [np.asarray(list(c), dtype=float) for c in chips]
    if not chips:
        raise ValidationError("need at least one chip")
    for i, c in enumerate(chips):
        if c.size == 0:
            raise ValidationError(f"chip {i} has no deviations")
    return [c - c.mean() for c in chips]


@dataclass(frozen=True)
class SpreadReport:
    fit: GaussianFit
    sigma_frac_of_design: float


def spread_after_centering(chips, mean_design_f_mhz: float) -> SpreadReport:
    """Pool per-chip-centered deviations and fit a Gaussian; the spread
    is also reported as a fraction of the average design frequency."""
    if mean_design_f_mhz <= 0:
        raise ValidationError("mean design frequency must be positive")
    pooled = np.concatenate(subtract_global_offset(chips))
    fit = fit_gaussian(pooled)
    return SpreadReport(fit=fit, sigma_frac_of_design=fit.sigma / mean_design_f_mhz)


def detuning_error_sigma(sigma_f_mhz: float) -> float:
    """Edge-detuning spread from independent Gaussian endpoint errors."""
    if sigma_f_mhz < 0:
        raise ValidationError("sigma must be >= 0")
    return math.sqrt(2.0) * sigma_f_mhz


def detuning_deviation_stats(
    measured: DetuningReport, design: DetuningReport
) -> tuple[float, float]:
    """Mean and sigma of (measured - design) signed detuning over edges."""
    m_edges = [e.edge for e in measured.edges]
    d_edges = [e.edge for e in design.edges]
    if m_edges != d_edges:
        raise ValidationError("reports cover different edge sets")
    diffs = np.array(
        [m.signed_mhz - d.signed_mhz for m, d in zip(measured.edges, design.edges)]
    )
    return float(diffs.mean()), float(diffs.std())


@dataclass(frozen=True)
class ParkingPlan:
    offsets_mhz: tuple[float, ...]
    parked_count: int
    max_abs_offset: float
    sum_abs_offset: float
    feasible: bool
    violating_edges: tuple[tuple[int, int], ...] = ()

    @property
    def cost(self) -> tuple:
        return (self.parked_count, self.max_abs_offset, self.sum_abs_offset)


def _plan_from_offsets(offsets, feasible=True, violating=()):
    offs = tuple(float(o) for o in offsets)
    nonzero = [abs(o) for o in offs if o != 0.0]
    return ParkingPlan(
        offsets_mhz=offs,
        parked_count=len(nonzero),
        max_abs_offset=max(nonzero) if nonzero else 0.0,
        sum_abs_offset=sum(nonzero),
        feasible=feasible,
        violating_edges=tuple(violating),
    )


def optimize_parking(
    lattice: QubitLattice,
    window: tuple[float, float],
    max_park_mhz: float,
    step_mhz: float,
    symmetric: bool = False,
    max_qubits: int = 12,
) -> ParkingPlan:
    """Exact search for per-qubit park offsets bringing every edge
    |detuning| inside the window.

    Offsets are multiples of ``step_mhz`` with |offset| <= max_park_mhz;
    by default only downward parking (offsets <= 0) is searched, since
    the maximum frequency is the flux sweet spot. The objective is
    lexicographic: fewest parked qubits, then smallest max |offset|,
    then smallest total |offset|. Raises InfeasibleError when no
    assignment exists within the budget.
    """
    if window[0] >= window[1]:
        raise ValidationError(f"window must satisfy lo < hi, got {window}")
    if not (math.isfinite(step_mhz) and step_mhz > 0):
        raise ValidationError(f"step must be finite and > 0, got {step_mhz}")
    if not (math.isfinite(max_park_mhz) and max_park_mhz >= 0):
        raise ValidationError(f"max_park must be finite and >= 0, got {max_park_mhz}")
    if max_park_mhz / step_mhz > MAX_PARK_OFFSETS:
        raise ValidationError(
            f"max_park / step must be <= {MAX_PARK_OFFSETS} offsets per qubit, "
            f"got {max_park_mhz} / {step_mhz}"
        )
    if lattice.n_qubits > max_qubits:
        raise ValidationError(
            f"exact parking search is limited to {max_qubits} qubits, "
            f"lattice has {lattice.n_qubits}"
        )
    freqs = lattice.measured_f01max or lattice.design_f01max
    lo, hi = window

    candidates = [0.0]
    k = 1
    while k * step_mhz <= max_park_mhz:
        candidates.append(-k * step_mhz)
        if symmetric:
            candidates.append(k * step_mhz)
        k += 1
    candidates.sort(key=abs)

    # Edges from each node back to already-assigned (lower-id) nodes;
    # assignment proceeds in node-id order.
    back_edges: list[list[int]] = [[] for _ in range(lattice.n_qubits)]
    for a, b in lattice.edges():
        back_edges[b].append(a)

    n = lattice.n_qubits
    best: list[ParkingPlan | None] = [None]
    offsets = [0.0] * n

    def cost_partial(upto):
        nz = [abs(offsets[i]) for i in range(upto) if offsets[i] != 0.0]
        return (len(nz), max(nz) if nz else 0.0, sum(nz))

    def dfs(q):
        if best[0] is not None and cost_partial(q) >= best[0].cost:
            return
        if q == n:
            plan = _plan_from_offsets(offsets)
            if best[0] is None or plan.cost < best[0].cost:
                best[0] = plan
            return
        for off in candidates:
            fq = freqs[q] + off
            ok = True
            for p in back_edges[q]:
                d = abs(freqs[p] + offsets[p] - fq)
                if not lo <= d <= hi:
                    ok = False
                    break
            if ok:
                offsets[q] = off
                dfs(q + 1)
                offsets[q] = 0.0

    dfs(0)
    if best[0] is None:
        base = edge_detunings(lattice, freqs, window=window)
        violating = [e.edge for e in base.edges if not e.in_window]
        raise InfeasibleError(
            f"no parking plan within +/-{max_park_mhz} MHz satisfies the "
            f"window {window}; violating edges without parking: {violating}"
        )
    return best[0]
