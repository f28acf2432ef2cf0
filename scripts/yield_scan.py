#!/usr/bin/env python3
"""Sweep chip yield versus lattice size and frequency spread.

Generates a valid 3x3 unit cell, tiles it up to 972 qubits, and runs the
detuning-window Monte Carlo at the untuned, fabrication-limited and
trimmed spread levels and at 5 and 4 MHz, the spreads the 1000-qubit
scale needs. Emits one CSV ready for plotting.
"""

import argparse
from pathlib import Path

from jjtrim.fileio import write_csv
from jjtrim.yieldmc import generate_unit_cell, yield_curve

SIGMAS_MHZ = [93.5, 18.4, 7.7, 5.0, 4.0]
SIZES = [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (2, 6), (4, 12), (6, 18)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trials", type=int, default=10**5)
    parser.add_argument("--out", type=Path, default=Path("yield_scan.csv"))
    args = parser.parse_args()

    cell = generate_unit_cell(seed=args.seed)
    rows = yield_curve(
        cell,
        sigmas_mhz=SIGMAS_MHZ,
        sizes=SIZES,
        master_seed=args.seed,
        trials=args.trials,
    )
    header = ["qubits", "sigma_mhz", "yield", "ci_lo", "ci_hi"]
    write_csv(
        args.out,
        header,
        [[r[k] for k in header] for r in rows],
        formats={"yield": ".5f", "ci_lo": ".5f", "ci_hi": ".5f"},
    )
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
