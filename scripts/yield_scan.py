#!/usr/bin/env python3
"""Sweep chip yield versus frequency plan, lattice size and frequency spread.

Scans three plans (``cell`` column): the 3x3 unit cell
``generate_unit_cell(seed)`` returns (``seed<seed>``), the max-margin 3x3
cell with offsets 50 * ((r + c) mod 3) MHz (``max_margin``), whose every
edge keeps 30 MHz inside the yield window, and the two-frequency
checkerboard with offsets 75 * ((r + c) mod 2) MHz (``checkerboard``), whose
every edge is detuned by 75 MHz. Each plan is laid on the (3m)x(3n) lattices
up to 972 qubits, and the detuning-window Monte Carlo runs at the untuned,
fabrication-limited and trimmed spread levels and at 5 and 4 MHz, the
spreads the 1000-qubit scale needs. Emits one CSV ready for plotting.
"""

import argparse
from functools import partial
from pathlib import Path

from jjtrim.fileio import write_csv
from jjtrim.lattice import QubitLattice
from jjtrim.yieldmc import UnitCellDesign, YieldConfig, generate_unit_cell, mc_chip_yield, tile

SIGMAS_MHZ = [93.5, 18.4, 7.7, 5.0, 4.0]
SIZES = [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (2, 6), (4, 12), (6, 18)]
MAX_MARGIN_CELL = UnitCellDesign([[50.0 * ((r + c) % 3) for c in range(3)] for r in range(3)])


def checkerboard(m: int, n: int) -> QubitLattice:
    """The (3m)x(3n) lattice at base + 75 * ((r + c) mod 2) MHz, the base of
    the 3x3 cells."""
    rows, cols = 3 * m, 3 * n
    base = UnitCellDesign.base_frequency_mhz
    return QubitLattice(rows, cols, [base + 75.0 * ((r + c) % 2)
                                     for r in range(rows) for c in range(cols)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trials", type=int, default=10**5)
    parser.add_argument("--out", type=Path, default=Path("yield_scan.csv"))
    args = parser.parse_args()

    plans = {  # name: the (3m)x(3n) lattice of each size (m, n)
        f"seed{args.seed}": partial(tile, generate_unit_cell(seed=args.seed)),
        "max_margin": partial(tile, MAX_MARGIN_CELL),
        "checkerboard": checkerboard,
    }
    rows = []
    for name, lattice in plans.items():
        for m, n in SIZES:
            chip = lattice(m, n)
            for sigma in SIGMAS_MHZ:
                config = YieldConfig(sigma_f_mhz=sigma, master_seed=args.seed, trials=args.trials)
                rows.append({"cell": name, **mc_chip_yield(chip, config)})
    header = ["cell", "qubits", "sigma_mhz", "yield", "ci_lo", "ci_hi"]
    write_csv(
        args.out,
        header,
        [[r[k] for k in header] for r in rows],
        formats={"yield": ".5f", "ci_lo": ".5f", "ci_hi": ".5f"},
    )
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
