#!/usr/bin/env python3
"""jjtrim benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tune_round --seed 1 --seconds 15 --trace 0

Runs one workload (or ``all``) in this process with one thread, as a closed
loop with one client: each op calls ``jjtrim.cli.main(argv)`` in-process after
the previous op has returned. The program is imported from ``src/`` next to
this directory. Op times are scaled to a reference host speed read by a probe
between ops. Every op's outputs are checked after the timed pass. With
``--trace 1`` the same ops run a second time with spans around every public
function of jjtrim's modules, and the per-layer metrics are printed instead
of the end-to-end ones. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

import os

# One thread everywhere, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # ops beyond the reported tail percentile
# Host-speed probes. The shared host this benchmark was defined on changes
# speed by 15-25% over seconds to minutes, and by up to 1.9x between periods,
# so op times are scaled to the speed at which the workload's probe takes its
# reference time, a typical time on that host (see README.md, BASELINE.md).
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 2.0
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import jjtrim.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Time to import jjtrim.cli in a fresh interpreter, as a CLI user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def probe_mixed() -> float:
    """Time a fixed piece of work that does not touch jjtrim. Its four parts
    of about 2 ms each follow the kinds of work in the CLI-bound workloads: a
    Python loop, small numpy fits, scalar random draws, and a normal draw
    with a strided difference."""
    import numpy

    rng = numpy.random.default_rng(0)
    x = numpy.linspace(1.0, 2.0, 100)
    y = 2.0 * x + rng.normal(size=100)
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(30):
        numpy.polyfit(x, y, 1)
    for _ in range(1000):
        rng.normal(0.0, 0.5)
        rng.exponential(1.9)
    draw = rng.normal(size=(256, 324))
    numpy.abs(draw[:, :-18] - draw[:, 18:])
    return time.perf_counter() - t0


def probe_mc() -> float:
    """Time a Monte Carlo kernel written here, not taken from jjtrim: normal
    draws for 1024 trials of an 18x18 grid, the nearest-neighbour gather and
    the window test. Like the yield chunks it spills out of L2, so it slows
    and speeds up with the host the way they do; probe_mixed, which is mostly
    compute, moves about twice as much."""
    import numpy

    side = 18
    idx = numpy.arange(side * side).reshape(side, side)
    ia = numpy.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    ib = numpy.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    rng = numpy.random.default_rng(0)
    t0 = time.perf_counter()
    f = 4500.0 + rng.normal(0.0, 18.4, size=(1024, side * side))
    d = numpy.abs(f[:, ia] - f[:, ib])
    numpy.all((d >= 20.0) & (d <= 130.0), axis=1).sum()
    return time.perf_counter() - t0


# Probe kind -> (probe, reference seconds).
PROBES = {"mixed": (probe_mixed, 0.0075), "mc": (probe_mc, 0.0120)}


def speed_factors(probes, spans, ref: float) -> list[float]:
    """For each (start, end) span, ``ref`` over the median probe time within
    PROBE_WINDOW_S of its midpoint (at least the 3 nearest probes)."""
    factors = []
    for start, end in spans:
        mid = (start + end) / 2
        near = sorted(probes, key=lambda p: abs(p[0] - mid))
        window = [d for t, d in near if abs(t - mid) <= PROBE_WINDOW_S]
        if len(window) < 3:
            window = [d for _, d in near[:3]]
        factors.append(ref / statistics.median(window))
    return factors


class Pass(NamedTuple):
    latencies: list  # seconds per op, as measured
    results: list  # per op: each step's exit code or the exception it raised
    factors: list  # per op: host speed factor from the probes around it

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scaled(self) -> list:
        """Op latencies at the reference host speed."""
        return [lat * f for lat, f in zip(self.latencies, self.factors)]


def execute(ops, cli, probe_kind, tracer=None) -> Pass:
    """Run every op once, in order, with a probe of ``probe_kind`` between
    ops about every PROBE_EVERY_S seconds and at both ends."""
    probe, ref = PROBES[probe_kind]
    spans, results, probes = [], [], []

    def take_probe():
        t = time.perf_counter()
        probes.append((t, probe()))

    gc.collect()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        take_probe()
        last_probe = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = op.index
            t0 = time.perf_counter()
            codes = []
            for step in op.steps:
                try:
                    codes.append(cli.main(step.argv))
                except SystemExit as exc:
                    codes.append(exc.code)
                except Exception as exc:  # an op that crashes is a failed op
                    codes.append(exc)
            t1 = time.perf_counter()
            spans.append((t0, t1))
            results.append(codes)
            if t1 - last_probe >= PROBE_EVERY_S:
                take_probe()
                last_probe = time.perf_counter()
        take_probe()
    return Pass([b - a for a, b in spans], results, speed_factors(probes, spans, ref))


def output_digests(op) -> dict:
    out = {}
    for step in op.steps:
        if step.out.is_dir():
            for f in sorted(step.out.iterdir()):
                out[os.path.relpath(f, op.dir)] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def check_all(ops, results, version, workload, checks):
    """One Verdict per op. An op that repeats another op's inputs must leave
    byte-identical outputs and exit codes; all others get the full checker."""
    verdicts = []
    for op, codes in zip(ops, results):
        first = op.params.get("repeat_of")
        if first is None:
            full = workload.full_checks is None or op.index < workload.full_checks
            verdicts.append(checks.check_op(op, codes, version, full))
            continue
        v = checks.Verdict(counts=dict(verdicts[first].counts))
        v.require(codes == results[first], f"op {op.index}: exit codes {codes} != {results[first]}")
        v.require(output_digests(op) == output_digests(ops[first]),
                  f"op {op.index}: outputs differ from op {first} on the same inputs")
        verdicts.append(v)
    return verdicts


def tail(latencies):
    """Highest order statistic with TAIL_BEYOND ops beyond it, and its percentile."""
    s = sorted(latencies)
    n = len(s)
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    import numpy

    def getconf(name):  # None where getconf does not report it
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        return int(out) if out.isdigit() and int(out) > 0 else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def set_up(workload, seed, seconds, work, workloads):
    """Generate the inputs SETUP_REPEATS times. Returns the ops, the median
    raw setup time (fresh-interpreter import of jjtrim + input generation)
    and the speed factor read by probes around the repeats."""
    probe, ref = PROBES[workload.probe]
    setups, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(probe())
        t_import = import_seconds()
        t0 = time.perf_counter()
        ops = workload.generate(seed, workloads.op_count(workload, seconds), work)
        setups.append(t_import + time.perf_counter() - t0)
    probes.append(probe())
    return ops, statistics.median(setups), ref / statistics.median(probes)


def clear_outputs(ops) -> None:
    """Empty the output files an earlier pass or run left, so that an output
    the program fails to write cannot pass the checks. Files are truncated,
    not deleted: creating and deleting thousands of files per run slows this
    host's file system from run to run."""
    for op in ops:
        for step in op.steps:
            if step.out.is_dir():
                for f in step.out.iterdir():
                    os.truncate(f, 0)


def measure(ops, workload, traced, modules) -> dict:
    """Timed pass (and traced pass), then the output checks."""
    jjtrim, cli, _, checks, tracing = modules
    if not all(step.out.is_dir() for op in ops for step in op.steps):
        # First run in this checkout: an untimed pass creates the output
        # files, so every timed pass overwrites files instead of creating them.
        execute(ops, cli, workload.probe)
    clear_outputs(ops)
    passes = [execute(ops, cli, workload.probe)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = passes[0].results
    tracer = None
    if traced:
        digests = [output_digests(op) for op in ops]
        clear_outputs(ops)
        tracer = tracing.Tracer()
        tracer.install(jjtrim)
        try:
            passes.append(execute(ops, cli, workload.probe, tracer))
        finally:
            tracer.uninstall()
    verdicts = check_all(ops, results, jjtrim.__version__, workload, checks)
    if traced:
        for i, op in enumerate(ops):
            if passes[1].results[i] != results[i] or output_digests(op) != digests[i]:
                verdicts[i].problems.append(f"op {i}: traced pass changed the outputs")
    return {"passes": passes, "peak_rss_mb": peak_rss_mb, "verdicts": verdicts,
            "tracer": tracer}


def run_workload(name, seed, seconds, traced, modules):
    workloads, tracing = modules[2], modules[4]
    w = workloads.WORKLOADS[name]
    # One work directory per workload, reused by every run: inputs and
    # outputs are overwritten in place instead of created and deleted.
    work = ROOT / ".bench_work" / name
    ops, setup_raw, setup_speed = set_up(w, seed, seconds, work, workloads)
    run = measure(ops, w, traced, modules)
    verdicts, passes = run["verdicts"], run["passes"]
    timed = passes[0]
    latencies = timed.scaled
    k = statistics.median(timed.factors)
    n_failed = sum(1 for v in verdicts if v.problems)
    for v in verdicts:
        for problem in v.problems[:3]:
            print(f"{name}: {problem}", file=sys.stderr)
    p_tail, pct = tail(latencies)
    p50 = statistics.median(latencies)
    compared = sum(v.compared for v in verdicts)
    identical = sum(v.identical for v in verdicts)
    notes = [
        f"ops {len(ops)}, op_tail_ms is p{pct:.2f} ({TAIL_BEYOND} ops beyond it)",
        f"op_fail_ratio {n_failed / len(ops):.6g} ({n_failed} of {len(ops)})",
        f"outputs.bit_identical_ratio {identical / compared if compared else 0:.6g} "
        f"({identical} of {compared} compared outputs)",
        f"host speed factor {k:.4f} (median over ops; {w.probe} probe, reference "
        f"{1e3 * PROBES[w.probe][1]:.3f} ms); setup factor {setup_speed:.4f}",
        f"raw wall_s {timed.wall:.6g}, op_p50_ms {1e3 * statistics.median(timed.latencies):.6g}, "
        f"op_tail_ms {1e3 * tail(timed.latencies)[0]:.6g}, setup_s {setup_raw:.6g}",
    ]
    if traced:
        metrics = per_layer(tracing, run["tracer"], ops, verdicts, passes)
        path = ROOT / ".bench_trace" / f"{name}-seed{seed}.jsonl.gz"
        run["tracer"].write(path)
        notes.append(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "setup_s": (setup_raw * setup_speed, "s"),
            "wall_s": (sum(latencies), "s"),
            "op_p50_ms": (1e3 * p50, "ms"),
            "op_tail_ms": (1e3 * p_tail, "ms"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "op_ok_ratio": (1.0 - n_failed / len(ops), "ratio"),
        }
    return {
        "correct": n_failed == 0,
        "attempted": len(ops) * len(passes),
        "failed": n_failed * len(passes),
        "metrics": {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()},
        "notes": notes,
    }


def per_layer(tracing, tracer, ops, verdicts, passes):
    """Per-layer metrics of the traced pass, plus exact counts read from the
    outputs and the tracing overhead against the untraced pass."""
    layers = tracing.layer_metrics(tracer, passes[1].factors)
    counts = {}
    for v in verdicts:
        for k, x in v.counts.items():
            counts[k] = counts.get(k, 0) + x
    pulses = counts.get("controller.pulses", 0)
    attempts = counts.get("lattice.park_attempts", 0)
    feasible = counts.get("lattice.park_feasible", 0)
    written = sum(f.stat().st_size for op in ops for s in op.steps if s.out.is_dir()
                  for f in s.out.iterdir())
    read = sum(p.stat().st_size for op in ops for s in op.steps for p in s.inputs)
    compared = sum(v.compared for v in verdicts)
    identical = sum(v.identical for v in verdicts)
    out = {k: (val, _unit(k)) for k, val in layers.items()}
    out.update({
        "controller.pulses": (pulses, "count"),
        "controller.us_per_pulse": (
            1e3 * layers["controller.run_campaign.ms"] / pulses if pulses else 0.0, "us"),
        "lattice.park_feasible": (feasible, "count"),
        "lattice.park_feasible_ratio": (feasible / attempts if attempts else 0.0, "ratio"),
        "lattice.parked_qubits": (counts.get("lattice.parked_qubits", 0), "count"),
        "fileio.bytes_written": (written, "B"),
        "fileio.bytes_read": (read, "B"),
        "bench.tracing_overhead_frac": (
            sum(passes[1].scaled) / sum(passes[0].scaled) - 1.0, "ratio"),
        "outputs.bit_identical_ratio": (identical / compared if compared else 0.0, "ratio"),
    })
    return dict(sorted(out.items()))


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if ".ns_per" in name:
        return "ns"
    if ".chunk_mb" in name:
        return "MB"
    return "count"


def load_modules():
    """Import jjtrim from this checkout's src/ and the benchmark's modules.
    Returns None, after saying why, when the checkout has no jjtrim sources."""
    if not (SRC / "jjtrim" / "cli.py").is_file():
        print(f"error: no jjtrim sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return None
    sys.path[:0] = [str(SRC), str(HERE)]
    import jjtrim
    import jjtrim.cli as cli

    if Path(jjtrim.__file__).resolve().parent != SRC / "jjtrim":
        print(f"error: imported jjtrim from {jjtrim.__file__}, not {SRC}", file=sys.stderr)
        return None
    import checks
    import tracing
    import workloads

    return jjtrim, cli, workloads, checks, tracing


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = load_modules()
    if modules is None:
        return 2
    workloads = modules[2]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        print(f"error: unknown workload {unknown} or non-positive --seconds", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), modules)
        results[name] = res
        for note in res.pop("notes"):
            print(f"{name}: {note}")
        for metric, m in res["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
