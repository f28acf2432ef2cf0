"""Command-line interface tying the toolkit into reproducible runs.

``main`` reads each input file once, before the subcommand runs, and hands
the subcommand the texts keyed by flag; a subcommand pops each text as it
parses it, so no text outlives its loader. After a subcommand succeeds,
``main`` writes its manifest (command, config snapshot, seed, the digests of
the bytes it read, tool version) next to its outputs, so any run can be
reproduced bit-identically. Each subparser declares the flags its manifest
records, beside the flags themselves, in a ``recorded`` default that no flag
sets. Seeds are mandatory for stochastic commands; there is no wall-clock
fallback.

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
from .errors import InfeasibleError, ValidationError, check

DEFAULT_QUBITS = 221
DEFAULT_DESIGN_RESISTANCE = 4587.8
# File flags whose digests a manifest records, in the order it lists them.
INPUT_FLAGS = ("data", "calibration", "design", "campaign")


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


def cmd_simulate_tuning(args, _texts):
    check("--qubits", args.qubits, ge=1, le=controller.MAX_CAMPAIGN_QUBITS)
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
    r_untuned, relax_fraction = junction.sample_fabricated(args.design_resistance, args.seed, ids)
    records = controller.run_campaign(r_untuned, relax_fraction, targets, config)
    metrics = controller.campaign_stats(records, targets)
    out = _out_dir(args)
    fileio.save_campaign(out / "campaign.json", records, targets, config)
    fileio.write_csv(out / "precision_report.csv", ["metric", "value"], metrics.items(),
                     formats={"value": ".6f"})
    print(f"tuned {args.qubits} qubits to target {target_r:.1f} Ohm")
    print(f"precision: mean {100 * metrics['precision_mean_frac']:+.3f}%  "
          f"sigma {100 * metrics['precision_sigma_frac']:.3f}%")
    print(f"overshoot: mean {metrics['overshoot_mean_ohm']:.2f} Ohm  "
          f"sigma {metrics['overshoot_sigma_ohm']:.2f} Ohm")
    print(f"reserve:   mean {100 * metrics['reserve_mean']:.3f}%  "
          f"sigma {100 * metrics['reserve_sigma']:.3f}%")


def cmd_calibrate_freq(args, texts):
    r, f = fileio.read_points_csv(args.data, texts.pop("data"), "resistance_ohm", "f01max_mhz")
    model = freqmodel.fit_power_law(r, f)
    out = _out_dir(args)
    fileio.save_calibration(out / "calibration.json", model)
    print(f"alpha {model.alpha:.4f}  beta {model.beta:.4f}  "
          f"residual sigma {model.residual_sigma_mhz:.2f} MHz  "
          f"domain [{model.r_min:.1f}, {model.r_max:.1f}] Ohm")


def cmd_assign_targets(args, texts):
    model = fileio.load_calibration(args.calibration, texts.pop("calibration"))
    f = np.array(fileio.load_design(args.design, texts.pop("design")).design_f01max)
    targets = freqmodel.assign_target_R(model, f, args.aging_budget)
    out = _out_dir(args)
    fileio.write_csv(out / "targets.csv", ["qubit_id", "design_f_mhz", "target_resistance_ohm"],
                     zip([f"Q{i:03d}" for i in range(len(f))], f.tolist(), targets.tolist()),
                     formats={"design_f_mhz": ".4f", "target_resistance_ohm": ".4f"})
    print(f"assigned {len(f)} targets (aging budget {100 * args.aging_budget:.1f}%)")


def cmd_fit_relaxation(args, texts):
    t, dr = fileio.read_points_csv(args.data, texts.pop("data"), "t_hr", "delta_r_ohm")
    text = args.breakpoints
    bps = None if text is None else _parse_floats(text, ",", "--breakpoints")
    fit = freqmodel.fit_segmented_power_law(t, dr, breakpoints=bps)
    out = _out_dir(args)
    fileio.dump_json(out / "relaxation_fit.json", fit)
    exps = "  ".join(f"{e:.3f}" for e in fit["exponents"])
    bps = "  ".join(f"{b:.3f}" for b in fit["breakpoints_hr"])
    print(f"exponents: {exps}")
    print(f"breakpoints (hr): {bps}")


def cmd_analyze_lattice(args, texts):
    lat = fileio.load_design(args.design, texts.pop("design"))
    window = None if args.window is None else _parse_pair(args.window, ",", "--window")
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
    print(
        f"{summary['edges']} edges: min {summary['min_mhz']:.1f}  "
        f"median {summary['median_mhz']:.1f}  max {summary['max_mhz']:.1f} MHz"
    )
    print(
        f"modulation assignment: max {max_count} edges per qubit "
        f"({'valid' if summary['modulation_valid'] else 'INVALID'})"
    )


def cmd_park(args, texts):
    lat = fileio.load_design(args.design, texts.pop("design"))
    window = _parse_pair(args.window, ",", "--window")
    plan = lattice.optimize_parking(lat, window, max_park_mhz=args.max_park, step_mhz=args.step,
                                    symmetric=args.symmetric)
    out = _out_dir(args)
    fileio.dump_json(out / "parking.json", plan)
    print(f"parked {plan['parked_count']} qubit(s), "
          f"max offset {plan['max_abs_offset_mhz']:.1f} MHz")


def cmd_yield(args, texts):
    window = _parse_pair(args.window, ",", "--window")
    if args.design is not None:
        cell = fileio.load_unit_cell(args.design, texts.pop("design"))
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
    chips = yieldmc.wafer_projection(result["yield"], dice=args.dice)
    out = _out_dir(args)
    fileio.save_design(out / "unit_cell.json", cell)
    header = ["qubits", "sigma_mhz", "yield", "ci_lo", "ci_hi"]
    fileio.write_csv(
        out / "yield.csv",
        header,
        [[result[k] for k in header]],
        formats={"sigma_mhz": ".6g", "yield": ".6f", "ci_lo": ".6f", "ci_hi": ".6f"},
    )
    print(
        f"yield {result['yield']:.4f} "
        f"[{result['ci_lo']:.4f}, {result['ci_hi']:.4f}] on {result['qubits']} qubits"
    )
    print(f"wafer: {chips} chips, {chips * result['qubits']} qubits per {args.dice} dice")


def cmd_report(args, texts):
    records, targets, _config = fileio.load_campaign(args.campaign, texts.pop("campaign"))
    metrics = controller.campaign_stats(records, targets)
    out = _out_dir(args)
    rows = [(k, v) for k, v in metrics.items() if k not in ("precision_min_frac", "precision_max_frac")]
    qubits = len(records["qubit_id"])
    fileio.write_csv(out / "report.csv", ["metric", "value"], [("qubits", qubits), *rows])
    print(f"{qubits} qubits  precision sigma {100 * metrics['precision_sigma_frac']:.3f}%  "
          f"mean {100 * metrics['precision_mean_frac']:+.3f}%")


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
    p.set_defaults(func=cmd_simulate_tuning,
                   recorded=("qubits", "design_resistance", "aging_budget", "reserve", "noise"))

    p = sub.add_parser("calibrate-freq", help="fit the resistance-frequency power law")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate_freq, recorded=("data",))

    p = sub.add_parser("assign-targets", help="map design frequencies to target resistances")
    p.add_argument("--calibration", required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--aging-budget", type=float, default=freqmodel.AGING_BUDGET)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_assign_targets, recorded=("aging_budget",))

    p = sub.add_parser("fit-relaxation", help="fit a segmented power law to a relaxation trace")
    p.add_argument("--data", required=True)
    p.add_argument("--breakpoints", default=None, help="comma-separated hours; omit for auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_relaxation, recorded=("breakpoints",))

    p = sub.add_parser("analyze-lattice", help="edge detunings and modulation assignment")
    p.add_argument("--design", required=True)
    p.add_argument("--window", default=None, help="lo,hi in MHz")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_lattice, recorded=("window",))

    p = sub.add_parser("park", help="find minimal parking offsets for a detuning window")
    p.add_argument("--design", required=True)
    p.add_argument("--window", required=True, help="lo,hi in MHz")
    p.add_argument("--max-park", type=float, default=50.0)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_park, recorded=("window", "max_park", "step", "symmetric"))

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
    p.set_defaults(func=cmd_yield,
                   recorded=("sigma", "cells", "trials", "window", "dice", "design"))

    p = sub.add_parser("report", help="aggregate statistics from a saved campaign")
    p.add_argument("--campaign", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report, recorded=())

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        digests, texts = {}, {}
        for flag in INPUT_FLAGS:
            path = getattr(args, flag, None)
            if path is not None:
                digests[path], texts[flag] = fileio.read_input(path)
        args.func(args, texts)
        fileio.write_manifest(args.out, args.command, {k: getattr(args, k) for k in args.recorded},
                              getattr(args, "seed", None), digests)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in getattr(exc, "details", ()):
            print(f"  {line}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
