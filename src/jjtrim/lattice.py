"""Lattice Hamiltonian targeting analysis.

Rectangular qubit grids with nearest-neighbor edges: per-edge detuning
and modulated-endpoint columns, chip-offset subtraction and spread
statistics, and an exact parking search that moves qubits off their
maximum frequency only as a last resort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError, ValidationError, check, check_rows, check_window, floats, is_real, item,
)

# Candidate park offsets per qubit (max_park / step) beyond which the
# search is refused rather than left to grow without bound.
MAX_PARK_OFFSETS = 10_000
# Work after which the parking search gives up with exit 3, in search
# nodes: each offset tried and each candidate checked or filtered is one,
# and each parked set visited is one per member and per edge it scans, so
# the budget bounds both time (0.2-2 s where measured) and the memory of
# the visited sets.
MAX_PARK_NODES = 2_000_000


@dataclass(frozen=True)
class QubitLattice:
    """rows x cols grid; node ids are row-major integers.

    ``design_f01max`` and optional ``measured_f01max`` are flat tuples of
    finite MHz values in node-id order, and no edge's detuning overflows.
    """

    rows: int
    cols: int
    design_f01max: tuple[float, ...]
    measured_f01max: tuple[float, ...] | None = None

    def __post_init__(self):
        check("rows", self.rows, ge=1, integer=True)
        check("cols", self.cols, ge=1, integer=True)
        n, grids = self.rows * self.cols, {}
        names = ("design",) if self.measured_f01max is None else ("design", "measured")
        for name in names:
            grid = tuple(getattr(self, f"{name}_f01max"))
            if len(grid) != n:
                raise ValidationError(f"expected {n} {name} frequencies, got {len(grid)}")
            grids[f"{name}_mhz"] = grid
        check_rows("nodes", grids, dict.fromkeys(grids, {}))  # each node a float can hold
        f = np.array(list(grids.values()), dtype=float).reshape(len(grids), self.rows, self.cols)
        for name, grid in zip(names, f.reshape(len(names), n).tolist()):
            object.__setattr__(self, f"{name}_f01max", tuple(grid))
        with np.errstate(over="ignore"):
            steps = ((1, f[:, :, 1:] - f[:, :, :-1]), (self.cols, f[:, 1:] - f[:, :-1]))
        for step, d in steps:  # right, then lower neighbours
            if not np.isfinite(d).all():
                k, r, c = np.unravel_index(np.argmin(np.isfinite(d)), d.shape)
                name, g, a = list(grids)[k], f[k].ravel().tolist(), int(r * self.cols + c)
                raise ValidationError(
                    f"edge ({a}, {a + step}) {name} detuning {g[a]} - {g[a + step]} overflows")

    @property
    def n_qubits(self) -> int:
        return self.rows * self.cols

    def edges(self) -> list[tuple[int, int]]:
        """Nearest-neighbor grid adjacency, each edge as (low id, high id)."""
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                a = r * self.cols + c
                if c + 1 < self.cols:
                    out.append((a, a + 1))
                if r + 1 < self.rows:
                    out.append((a, a + self.cols))
        return out


def edge_detunings(lattice: QubitLattice, window: tuple[float, float] | None = None) -> dict:
    """Per-edge detuning columns, in ``lattice.edges()`` order: the
    endpoints ``node_a`` < ``node_b``, ``signed_mhz`` = f(a) - f(b) and its
    ``abs_mhz``, the ``modulated_qubit`` (the higher-frequency endpoint, a
    on a tie) and ``in_window`` (None without a window). The frequencies f
    are the lattice's measured ones, else its design ones.
    """
    if window is not None:
        window = check_window("window", window)
    f = np.array(lattice.measured_f01max or lattice.design_f01max, dtype=float)
    a, b = np.array(lattice.edges(), dtype=np.int64).reshape(-1, 2).T
    signed = f[a] - f[b]
    d = np.abs(signed)
    return {
        "node_a": a,
        "node_b": b,
        "signed_mhz": signed,
        "abs_mhz": d,
        "modulated_qubit": np.where(f[a] >= f[b], a, b),
        "in_window": None if window is None else (window[0] <= d) & (d <= window[1]),
    }


def subtract_global_offset(chips) -> list[np.ndarray]:
    """Center each chip's frequency deviations on its own mean."""
    chips = [np.asarray(list(c)) for c in chips]
    if not chips:
        raise ValidationError("need at least one chip")
    for i, c in enumerate(chips):
        if c.size == 0:
            raise ValidationError(f"chip {i} has no deviations")
    with np.errstate(all="ignore"):  # a chip that is not finite once centred is named below
        centred = [c - c.mean() for c in map(floats, chips)]
    for i, (c, d) in enumerate(zip(chips, centred)):
        if not np.isfinite(d).all():
            j = int(np.argmin(is_real(floats(c))))  # 0 if every deviation is real
            check(f"chip {i} deviation {j}", item(c, j))
            raise ValidationError(f"chip {i}: centring on its mean overflows")
    return centred


def spread_after_centering(chips) -> float:
    """Population standard deviation of the pooled per-chip-centered
    deviations."""
    pooled = np.concatenate(subtract_global_offset(chips))
    if pooled.size < 2:
        raise ValidationError(f"need at least 2 pooled samples, got {pooled.size}")
    with np.errstate(over="ignore"):  # a deviation past sqrt(float max) squares to inf
        spread = float(pooled.std())
    if not math.isfinite(spread):
        raise ValidationError(f"the pooled spread of {pooled.size} centred deviations overflows")
    return spread


def detuning_error_sigma(sigma_f_mhz: float) -> float:
    """Edge-detuning spread from independent Gaussian endpoint errors."""
    return math.sqrt(2.0) * check("sigma_f_mhz", sigma_f_mhz, ge=0)


def optimize_parking(
    lattice: QubitLattice,
    window: tuple[float, float],
    max_park_mhz: float,
    step_mhz: float,
    symmetric: bool = False,
) -> dict:
    """Exact search for per-qubit park offsets bringing every edge
    |detuning| inside the window; returns the ``parking.json`` dict.

    Offsets are multiples of ``step_mhz`` with |offset| <= max_park_mhz;
    by default only downward parking (offsets <= 0) is searched, since
    the maximum frequency is the flux sweet spot. The objective is
    lexicographic: fewest parked qubits (``parked_count``), then smallest
    max |offset| (``max_abs_offset_mhz``), then smallest total |offset|
    (``sum_abs_offset_mhz``, summed in node order). Equal-cost plans are
    ordered by their per-node candidate indices, candidates sorted by
    |offset| with downward first, and the smallest one's ``offsets_mhz``
    are returned.

    Every plan parks an endpoint of each edge that is out of window at
    zero offsets, so the search deepens on the parked count k: parked
    sets are grown by branching on the endpoints of an uncovered
    violating edge, then by the neighbours of a parked component that has
    no offsets, and the first k with a plan is optimal. Raises
    InfeasibleError when no assignment exists, or when the search spends
    ``MAX_PARK_NODES`` nodes first; then it names the k it was searching,
    as no smaller count has a plan.
    """
    window = check_window("window", window)
    check("step", step_mhz, gt=0)
    check("max_park", max_park_mhz, ge=0)
    check(f"park offsets per qubit ({max_park_mhz} / {step_mhz})", max_park_mhz / step_mhz,
          le=MAX_PARK_OFFSETS)
    freqs = lattice.measured_f01max or lattice.design_f01max

    # Built in ascending |offset|, downward first: the order the search ranks.
    candidates = [0.0]
    k = 1
    while k * step_mhz <= max_park_mhz:
        candidates.append(-k * step_mhz)
        if symmetric:
            candidates.append(k * step_mhz)
        k += 1

    search = _ParkingSearch(freqs, lattice.edges(), window, candidates)
    best = search.solve()
    if best is None:
        raise InfeasibleError(
            f"no parking plan within +/-{max_park_mhz} MHz satisfies the "
            f"window {window}; violating edges without parking: {search.violating}"
        )
    offsets = [float(candidates[c]) for c in best]
    parked = [abs(o) for o in offsets if o != 0.0]
    return {
        "offsets_mhz": offsets,
        "parked_count": len(parked),
        "max_abs_offset_mhz": max(parked, default=0.0),
        "sum_abs_offset_mhz": sum(parked, 0.0),
    }


def _matching_size(edges) -> int:
    """Size of a greedy maximal matching: a lower bound on any vertex cover."""
    used = set()
    for a, b in edges:
        if a not in used and b not in used:
            used.update((a, b))
    return len(used) // 2


class _ParkingSearch:
    """State of one ``optimize_parking`` call.

    A parked set is a frozenset of node ids; each parked node takes a
    nonzero candidate index, every other node offset 0. An edge is in
    window when ``lo <= abs((f_a + o_a) - (f_b + o_b)) <= hi``, evaluated
    in exactly that order, since rounding decides plans at the window's
    edges. Both searches keep explicit stacks, so the parked count is not
    limited by Python's recursion limit.
    """

    def __init__(self, freqs, edges, window, candidates):
        self.freqs = freqs
        self.lo, self.hi = window
        self.candidates = candidates
        self.nonzero = np.array(candidates[1:], dtype=float)
        self.nbrs = [set() for _ in freqs]
        for a, b in edges:
            self.nbrs[a].add(b)
            self.nbrs[b].add(a)
        self.violating = [
            (a, b) for a, b in edges if not self.lo <= abs(freqs[a] - freqs[b]) <= self.hi
        ]
        self.nodes = 0
        self.k = 0          # the parked count searched; no smaller one has a plan
        self.domains = {}   # (node, parked neighbours) -> candidate indices
        self.feasible = {}  # parked component -> whether any offsets fit it
        self.best = None    # (max |offset|, sum |offset|, candidate index per node)

    def _tick(self, count):
        self.nodes += count
        if self.nodes > MAX_PARK_NODES:
            raise InfeasibleError(
                f"parking search hit its node budget ({MAX_PARK_NODES} search nodes) "
                f"before finding an optimal plan or proving that none exists; "
                f"every plan parks {self.k} or more qubits"
            )

    def solve(self):
        """Candidate index per node of the optimal plan, or None if no plan
        exists."""
        if not self.violating:
            return (0,) * len(self.freqs)
        if not self.nonzero.size:  # no offset to park a node at
            return None
        for k in range(1, len(self.freqs) + 1):
            self.deepen(k)
            if self.best is not None:
                return self.best[2]
        return None

    def deepen(self, k):
        """Search every parked set of size k. The grid is connected, so a
        branch either reaches size k or is pruned: a parked component has
        no unparked neighbour only when it is the whole grid."""
        self.k = k
        # Each entry holds a parked set and its parent's uncovered edges.
        seen, todo = set(), [(frozenset(), self.violating)]
        while todo:
            parked, edges = todo.pop()
            if parked in seen:
                continue
            seen.add(parked)
            self._tick(1 + len(parked) + len(edges))
            uncovered = [e for e in edges if e[0] not in parked and e[1] not in parked]
            if len(parked) == k:
                if not uncovered and all(self._fits(c) for c in self._components(parked)):
                    order = sorted(parked)
                    self._search(order, [self._domain(q, parked) for q in order], True)
                continue
            if len(parked) + _matching_size(uncovered) > k:
                continue
            if uncovered:
                branch = uncovered[0]
            else:
                # A cover smaller than k has no plan, or an earlier level
                # would have returned it: some parked component has no
                # offsets, and only parking one of its neighbours can
                # change that.
                comp = next(c for c in self._components(parked) if not self._fits(c))
                branch = sorted(set().union(*(self.nbrs[q] for q in comp)) - parked)
            todo.extend((parked | {q}, uncovered) for q in reversed(branch))

    def _components(self, parked):
        """Connected components of the parked nodes, by smallest node."""
        left, out = set(parked), []
        for start in sorted(parked):
            if start not in left:
                continue
            comp, todo = {start}, [start]
            left.discard(start)
            while todo:
                for w in self.nbrs[todo.pop()] & left:
                    left.discard(w)
                    comp.add(w)
                    todo.append(w)
            out.append(frozenset(comp))
        return out

    def _domain(self, q, parked):
        """Candidate indices of parked node q that keep every edge to an
        unparked neighbour in window, in index order."""
        key = (q, frozenset(self.nbrs[q] & parked))
        dom = self.domains.get(key)
        if dom is None:
            x = self.freqs[q] + self.nonzero
            ok = np.ones(len(x), dtype=bool)
            for w in self.nbrs[q] - parked:
                d = np.abs(x - self.freqs[w])
                ok &= (self.lo <= d) & (d <= self.hi)
            self._tick(len(x))
            dom = (np.flatnonzero(ok) + 1).tolist()
            self.domains[key] = dom
        return dom

    def _fits(self, comp):
        """Whether the parked component has any offsets (cached).

        Before its offsets are searched, each edge inside it is checked on
        bounds: the detuning lies between (lowest of one end minus highest
        of the other) and (highest minus lowest), over the frequencies the
        ends' domains allow. Rounded subtraction is monotone, so an edge
        whose range misses the window can never be brought into it."""
        if comp not in self.feasible:
            order = sorted(comp)
            domains = [self._domain(q, comp) for q in order]
            self.feasible[comp] = (all(domains)
                                   and (len(order) == 1 or self._reachable(order, domains))
                                   and self._search(order, domains, False))
        return self.feasible[comp]

    def _reachable(self, order, domains):
        """Whether every edge between parked nodes of ``order`` can reach
        the window from its ends' lowest and highest domain frequencies."""
        span = {}
        for q, dom in zip(order, domains):
            x = self.freqs[q] + self.nonzero[np.array(dom) - 1]
            span[q] = (x.min(), x.max())
        lo, hi = self.lo, self.hi
        return all(
            lo <= span[a][1] - span[b][0] and span[a][0] - span[b][1] <= hi
            or lo <= span[b][1] - span[a][0] and span[b][0] - span[a][1] <= hi
            for a in order
            for b in self.nbrs[a] & span.keys()
            if a < b
        )

    def _search(self, order, domains, optimize):
        """Depth-first over the offsets of the parked nodes ``order``, in
        node order, forward-checking each choice against later parked
        neighbours. Without ``optimize``, says whether any assignment fits;
        with it, branch and bound on (max, sum) keeps the cheapest plan in
        ``best``, ties going to the smallest candidate indices."""
        lo, hi, cands, freqs = self.lo, self.hi, self.candidates, self.freqs
        vec = [0] * len(freqs)
        stack = [(0.0, 0.0, domains, iter(domains[0]))]
        while stack:
            top, total, domains, untried = stack[-1]
            j = len(stack) - 1
            q = order[j]
            c = next(untried, None)
            if c is None:
                vec[q] = 0
                stack.pop()
                continue
            self._tick(1)
            a = abs(cands[c])
            vec[q] = c
            top, total = max(top, a), total + a
            if optimize and self.best is not None:
                # Every later node at its smallest |offset|, summed in node
                # order; later candidates here only raise the bound and the
                # index prefix.
                bound = (top, total)
                for dom in domains[j + 1:]:
                    m = abs(cands[dom[0]])
                    bound = (max(bound[0], m), bound[1] + m)
                best = self.best
                if bound > best[:2] or (
                    bound == best[:2] and tuple(vec[: q + 1]) > best[2][: q + 1]
                ):
                    vec[q] = 0
                    stack.pop()
                    continue
            # Forward check: each later parked neighbour keeps the
            # candidates whose edge to q stays in window.
            x, after = freqs[q] + cands[c], domains
            for i in range(j + 1, len(order)):
                v = order[i]
                if v not in self.nbrs[q]:
                    continue
                fv = freqs[v]
                kept = [d for d in domains[i] if lo <= abs(x - (fv + cands[d])) <= hi]
                self._tick(len(domains[i]))
                if not kept:
                    break
                if after is domains:
                    after = list(domains)
                after[i] = kept
            else:
                if j + 1 < len(order):
                    stack.append((top, total, after, iter(after[j + 1])))
                elif not optimize:
                    return True
                elif self.best is None or (top, total, tuple(vec)) < self.best:
                    self.best = (top, total, tuple(vec))
        return False
