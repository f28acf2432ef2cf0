#!/usr/bin/env python3
"""Generate the bundled synthetic relaxation trace (data/relaxation_demo.csv).

A single junction tuned to 7711 Ohm is monitored for 15 hours; the trace
follows jjtrim's three-regime relaxation trajectory with 2% multiplicative
read noise.
"""

import csv
import io
from pathlib import Path

import numpy as np

from jjtrim.junction import relaxation_delta

SEED = 0
N_POINTS = 500
R_STOP = 7711.0
RHO = 0.0289
OUT = Path(__file__).resolve().parent.parent / "data" / "relaxation_demo.csv"


def render() -> str:
    """The trace as the CSV text written to ``OUT``."""
    rng = np.random.default_rng(SEED)
    t = np.geomspace(0.02, 15.0, N_POINTS)
    delta = np.array([relaxation_delta(RHO, R_STOP, x) for x in t])
    noisy = delta * np.exp(rng.normal(0.0, 0.02, delta.size))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t_hr", "delta_r_ohm"])
    for ti, di in zip(t, noisy):
        writer.writerow([f"{ti:.6f}", f"{di:.6f}"])
    return buf.getvalue()


def main():
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(render(), encoding="utf-8", newline="")
    print(f"wrote {OUT} ({N_POINTS} points)")


if __name__ == "__main__":
    main()
