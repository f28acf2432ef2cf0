"""Command-line interface tying the toolkit into reproducible runs.

Every subcommand writes a manifest (command, config snapshot, seed,
input digests, tool version) next to its outputs, so any run can be
reproduced bit-identically. Seeds are mandatory for stochastic
commands; there is no wall-clock fallback.

Exit codes: 0 success, 2 invalid input or unreadable file, 3 infeasibility
(no plan or cell exists, or a search's or tuning loop's budget is spent).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, controller, fileio, freqmodel, junction, lattice, yieldmc
from .errors import FitError, InfeasibleError, SchemaError, ValidationError, check

DEFAULT_QUBITS = 221
DEFAULT_DESIGN_RESISTANCE = 4587.8


def _parse_floats(text: str, sep: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(sep)]
    except ValueError as exc:
        raise ValidationError(f"{what} must be numeric: {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{what} must be finite, got {text!r}")
    return values


def _parse_pair(text: str, sep: str, what: str) -> tuple[float, float]:
    values = _parse_floats(text, sep, what)
    if len(values) != 2:
        raise ValidationError(f"{what} must look like 'a{sep}b', got {text!r}")
    return values[0], values[1]


def _seed(text: str) -> int:
    """argparse type for --seed: a non-negative integer, as SeedSequence needs."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_cells(text: str) -> tuple[int, int]:
    m, n = _parse_pair(text, "x", "--cells")
    if m != int(m) or n != int(n):
        raise ValidationError(f"--cells must be integers like '1x2', got {text!r}")
    return int(m), int(n)


def _out_dir(args) -> Path:
    """The output directory, created just before a command's first write."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate_tuning(args) -> int:
    check("--qubits", args.qubits, ge=1)
    if args.qubits > controller.MAX_CAMPAIGN_QUBITS:
        raise ValidationError(
            f"--qubits must be <= {controller.MAX_CAMPAIGN_QUBITS}, got {args.qubits}"
        )
    check("aging_budget", args.aging_budget, ge=0, lt=1)
    # checked here, not first in sample_fabricated and run_campaign, so that
    # every flag is checked before the first qubit is sampled
    check("design_resistance", args.design_resistance, gt=0)
    check("relaxation_reserve", args.reserve, ge=0, lt=1)
    config = controller.CampaignConfig(master_seed=args.seed, noise_sigma=args.noise)
    target_r = args.design_resistance * (1.0 - args.aging_budget)
    ids = [f"Q{i:03d}" for i in range(args.qubits)]
    targets = {"qubit_id": ids, "target_resistance": np.full(args.qubits, target_r),
               "relaxation_reserve": np.full(args.qubits, args.reserve)}
    fab = controller.qubit_rngs(args.seed, [f"fab:{qid}" for qid in ids])
    r_untuned, relax_fraction = junction.sample_fabricated(args.design_resistance, fab)
    records = controller.run_campaign(r_untuned, relax_fraction, targets, config)
    metrics = controller.campaign_stats(records, targets)
    out = _out_dir(args)
    fileio.save_campaign(out / "campaign.json", records, targets, config)
    fileio.write_csv(
        out / "precision_report.csv",
        ["metric", "value"],
        metrics.items(),
        formats={"value": ".6f"},
    )
    fileio.write_manifest(
        out, args.command,
        {"qubits": args.qubits, "design_resistance": args.design_resistance,
         "aging_budget": args.aging_budget, "reserve": args.reserve, "noise": args.noise},
        args.seed,
    )
    print(f"tuned {args.qubits} qubits to target {target_r:.1f} Ohm")
    print(
        f"precision: mean {100 * metrics['precision_mean_frac']:+.3f}%  "
        f"sigma {100 * metrics['precision_sigma_frac']:.3f}%"
    )
    print(
        f"overshoot: mean {metrics['overshoot_mean_ohm']:.2f} Ohm  "
        f"sigma {metrics['overshoot_sigma_ohm']:.2f} Ohm"
    )
    print(
        f"reserve:   mean {100 * metrics['reserve_mean']:.3f}%  "
        f"sigma {100 * metrics['reserve_sigma']:.3f}%"
    )
    return 0


def cmd_calibrate_freq(args) -> int:
    points = fileio.read_points_csv(args.data, "resistance_ohm", "f01max_mhz")
    model = freqmodel.fit_power_law(points)
    out = _out_dir(args)
    fileio.save_calibration(out / "calibration.json", model)
    fileio.write_manifest(out, args.command, {"data": str(args.data)}, None, [args.data])
    print(
        f"alpha {model.alpha:.4f}  beta {model.beta:.4f}  "
        f"residual sigma {model.residual_sigma:.2f} MHz  "
        f"domain [{model.r_min:.1f}, {model.r_max:.1f}] Ohm"
    )
    return 0


def cmd_assign_targets(args) -> int:
    model = fileio.load_calibration(args.calibration)
    lat, _window = fileio.load_design(args.design)
    rows = []
    for i, f_design in enumerate(lat.design_f01max):
        rt = freqmodel.assign_target_R(model, f_design, args.aging_budget)
        rows.append((f"Q{i:03d}", f_design, rt))
    out = _out_dir(args)
    fileio.write_csv(
        out / "targets.csv",
        ["qubit_id", "design_f_mhz", "target_resistance_ohm"],
        rows,
        formats={"design_f_mhz": ".4f", "target_resistance_ohm": ".4f"},
    )
    fileio.write_manifest(
        out,
        args.command,
        {"aging_budget": args.aging_budget},
        None,
        [args.calibration, args.design],
    )
    print(f"assigned {len(rows)} targets (aging budget {100 * args.aging_budget:.1f}%)")
    return 0


def cmd_fit_relaxation(args) -> int:
    points = fileio.read_points_csv(args.data, "t_hr", "delta_r_ohm")
    t = [p[0] for p in points]
    dr = [p[1] for p in points]
    bps = _parse_floats(args.breakpoints, ",", "--breakpoints") if args.breakpoints else None
    fit = freqmodel.fit_segmented_power_law(t, dr, breakpoints=bps)
    out = _out_dir(args)
    fileio.dump_json(
        out / "relaxation_fit.json",
        {
            "breakpoints_hr": list(fit.breakpoints),
            "exponents": list(fit.exponents),
            "amplitudes": list(fit.amplitudes),
            "continuity_residual": fit.continuity_residual,
        },
    )
    fileio.write_manifest(
        out, args.command, {"breakpoints": args.breakpoints}, None, [args.data]
    )
    exps = "  ".join(f"{e:.3f}" for e in fit.exponents)
    bps = "  ".join(f"{b:.3f}" for b in fit.breakpoints)
    print(f"exponents: {exps}")
    print(f"breakpoints (hr): {bps}")
    return 0


def cmd_analyze_lattice(args) -> int:
    lat, _ = fileio.load_design(args.design)
    window = _parse_pair(args.window, ",", "--window") if args.window else None
    cols = lattice.edge_detunings(lat, window=window)
    d = cols["abs_mhz"]
    if not len(d):
        raise ValidationError(f"{args.design}: a {lat.rows}x{lat.cols} design has no edges")
    flags = cols["in_window"]
    cols["in_window"] = np.full(len(d), "") if flags is None else np.where(flags, "true", "false")
    max_count = int(np.bincount(cols["modulated_qubit"]).max())
    out = _out_dir(args)
    fileio.write_csv(
        out / "detunings.csv",
        list(cols),
        zip(*(c.tolist() for c in cols.values())),
        formats={"signed_mhz": ".4f", "abs_mhz": ".4f"},
    )
    summary = {
        "edges": len(d),
        "min_mhz": float(d.min()),
        "max_mhz": float(d.max()),
        "median_mhz": float(np.median(d)),
        "modulation_max_count": max_count,
        "modulation_valid": max_count <= 2,
    }
    fileio.dump_json(out / "lattice_summary.json", summary)
    fileio.write_manifest(
        out, args.command, {"window": args.window}, None, [args.design]
    )
    print(
        f"{summary['edges']} edges: min {summary['min_mhz']:.1f}  "
        f"median {summary['median_mhz']:.1f}  max {summary['max_mhz']:.1f} MHz"
    )
    print(
        f"modulation assignment: max {max_count} edges per qubit "
        f"({'valid' if summary['modulation_valid'] else 'INVALID'})"
    )
    return 0


def cmd_park(args) -> int:
    lat, _ = fileio.load_design(args.design)
    window = _parse_pair(args.window, ",", "--window")
    plan = lattice.optimize_parking(
        lat, window, max_park_mhz=args.max_park, step_mhz=args.step,
        symmetric=args.symmetric,
    )
    out = _out_dir(args)
    fileio.dump_json(
        out / "parking.json",
        {
            "offsets_mhz": list(plan.offsets_mhz),
            "parked_count": plan.parked_count,
            "max_abs_offset_mhz": plan.max_abs_offset,
            "sum_abs_offset_mhz": plan.sum_abs_offset,
        },
    )
    fileio.write_manifest(
        out,
        args.command,
        {"window": args.window, "max_park": args.max_park, "step": args.step,
         "symmetric": args.symmetric},
        None,
        [args.design],
    )
    print(
        f"parked {plan.parked_count} qubit(s), max offset {plan.max_abs_offset:.1f} MHz"
    )
    return 0


def cmd_yield(args) -> int:
    window = _parse_pair(args.window, ",", "--window")
    inputs = []
    if args.design:
        lat3, design_window = fileio.load_design(args.design)
        if (lat3.rows, lat3.cols) != (3, 3):
            raise ValidationError("--design must describe a 3x3 unit cell")
        base = min(lat3.design_f01max)
        offsets = [[lat3.design_f01max[r * 3 + c] - base for c in range(3)] for r in range(3)]
        cell = yieldmc.UnitCellDesign(
            offsets_mhz=offsets, base_frequency_mhz=base, design_window_mhz=design_window
        )
        inputs.append(args.design)
    else:
        cell = yieldmc.generate_unit_cell(seed=args.seed)
    m, n = _parse_cells(args.cells)
    check("dice", args.dice, ge=0, lt=yieldmc.MAX_DICE)
    lat = yieldmc.tile(cell, m, n)
    config = yieldmc.YieldConfig(
        sigma_f_mhz=args.sigma,
        master_seed=args.seed,
        window_mhz=window,
        trials=args.trials,
        n_threads=args.threads,
    )
    result = yieldmc.mc_chip_yield(lat, config)
    chips = yieldmc.wafer_projection(result, dice=args.dice)
    out = _out_dir(args)
    fileio.save_design(out / "unit_cell.json", cell)
    fileio.write_csv(
        out / "yield.csv",
        ["qubits", "sigma_mhz", "yield", "ci_lo", "ci_hi"],
        [(result.qubit_count, args.sigma, result.yield_estimate, result.ci_low,
          result.ci_high)],
        formats={"sigma_mhz": ".6g", "yield": ".6f", "ci_lo": ".6f", "ci_hi": ".6f"},
    )
    fileio.write_manifest(
        out,
        args.command,
        {"sigma": args.sigma, "cells": args.cells, "trials": args.trials,
         "window": args.window, "dice": args.dice, "design": args.design},
        args.seed,
        inputs,
    )
    print(
        f"yield {result.yield_estimate:.4f} "
        f"[{result.ci_low:.4f}, {result.ci_high:.4f}] on {result.qubit_count} qubits"
    )
    print(f"wafer: {chips} chips, {chips * result.qubit_count} qubits per {args.dice} dice")
    return 0


def cmd_report(args) -> int:
    records, targets, _config = fileio.load_campaign(args.campaign)
    metrics = controller.campaign_stats(records, targets)
    out = _out_dir(args)
    rows = [(k, v) for k, v in metrics.items() if k not in ("precision_min_frac", "precision_max_frac")]
    qubits = len(records["qubit_id"])
    fileio.write_csv(out / "report.csv", ["metric", "value"], [("qubits", qubits), *rows])
    fileio.write_manifest(out, args.command, {}, None, [args.campaign])
    print(
        f"{qubits} qubits  precision sigma {100 * metrics['precision_sigma_frac']:.3f}%  "
        f"mean {100 * metrics['precision_mean_frac']:+.3f}%"
    )
    return 0


@functools.cache  # built once per process; parse_args never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jjtrim",
        description="Junction resistance trimming: simulation, calibration, "
        "lattice targeting, and yield projection.",
    )
    parser.add_argument("--version", action="version", version=f"jjtrim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-tuning", help="run a simulated tuning campaign")
    p.add_argument("--qubits", type=int, default=DEFAULT_QUBITS)
    p.add_argument("--design-resistance", type=float, default=DEFAULT_DESIGN_RESISTANCE)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--reserve", type=float, default=junction.RELAX_FRACTION_MEAN)
    p.add_argument("--aging-budget", type=float, default=freqmodel.AGING_BUDGET)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate_tuning)

    p = sub.add_parser("calibrate-freq", help="fit the resistance-frequency power law")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate_freq)

    p = sub.add_parser("assign-targets", help="map design frequencies to target resistances")
    p.add_argument("--calibration", required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--aging-budget", type=float, default=freqmodel.AGING_BUDGET)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_assign_targets)

    p = sub.add_parser("fit-relaxation", help="fit a segmented power law to a relaxation trace")
    p.add_argument("--data", required=True)
    p.add_argument("--breakpoints", default=None, help="comma-separated hours; omit for auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_relaxation)

    p = sub.add_parser("analyze-lattice", help="edge detunings and modulation assignment")
    p.add_argument("--design", required=True)
    p.add_argument("--window", default=None, help="lo,hi in MHz")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_lattice)

    p = sub.add_parser("park", help="find minimal parking offsets for a detuning window")
    p.add_argument("--design", required=True)
    p.add_argument("--window", required=True, help="lo,hi in MHz")
    p.add_argument("--max-park", type=float, default=50.0)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_park)

    p = sub.add_parser("yield", help="Monte Carlo detuning-edge yield")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--cells", default="1x1", help="unit-cell tiling, e.g. 2x6")
    p.add_argument("--trials", type=int, default=10**5)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--window", default=",".join(f"{f:g}" for f in yieldmc.YIELD_WINDOW_MHZ),
                   help="lo,hi in MHz")
    p.add_argument("--design", default=None, help="optional 3x3 unit-cell design JSON")
    p.add_argument("--dice", type=int, default=yieldmc.DEFAULT_DICE_PER_WAFER)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_yield)

    p = sub.add_parser("report", help="aggregate statistics from a saved campaign")
    p.add_argument("--campaign", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValidationError, FitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in getattr(exc, "details", ()):
            print(f"  {line}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
