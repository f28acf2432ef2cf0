#!/usr/bin/env python3
"""Sweep chip yield versus unit cell, lattice size and frequency spread.

Scans two 3x3 unit cells: the one ``generate_unit_cell(seed)`` returns
(``cell`` column ``seed<seed>``) and the max-margin cell with offsets
50 * ((r + c) mod 3) MHz (``max_margin``), whose every edge keeps 30 MHz
inside the yield window. Each is tiled up to 972 qubits, and the
detuning-window Monte Carlo runs at the untuned, fabrication-limited and
trimmed spread levels and at 5 and 4 MHz, the spreads the 1000-qubit
scale needs. Emits one CSV ready for plotting.
"""

import argparse
from pathlib import Path

from jjtrim.fileio import write_csv
from jjtrim.yieldmc import UnitCellDesign, generate_unit_cell, yield_curve

SIGMAS_MHZ = [93.5, 18.4, 7.7, 5.0, 4.0]
SIZES = [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (2, 6), (4, 12), (6, 18)]
MAX_MARGIN_CELL = UnitCellDesign([[50.0 * ((r + c) % 3) for c in range(3)] for r in range(3)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trials", type=int, default=10**5)
    parser.add_argument("--out", type=Path, default=Path("yield_scan.csv"))
    args = parser.parse_args()

    cells = {f"seed{args.seed}": generate_unit_cell(seed=args.seed), "max_margin": MAX_MARGIN_CELL}
    rows = [
        {"cell": name, **row}
        for name, cell in cells.items()
        for row in yield_curve(cell, SIGMAS_MHZ, SIZES, master_seed=args.seed, trials=args.trials)
    ]
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
