"""Spans around calls into jjtrim's modules, recorded from outside the program.

``Tracer.install`` wraps every public function of the traced modules and
rebinds it wherever a module holds it, so a call is seen at the attribute the
caller looks up: ``jjtrim.controller.measure_resistance`` as well as
``jjtrim.junction.measure_resistance``. Each call leaves a span (name, start,
end, parent, op id) in memory; per-pulse functions only count calls, because
a span per pulse would cost more than the pulse. ``uninstall`` puts the
original functions back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("junction", "controller", "freqmodel", "lattice", "yieldmc", "fileio")
COUNT_ONLY = {"junction.as_rng", "junction.apply_pulse", "junction.measure_resistance"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.notes: dict[int, tuple] = {}  # span index -> what the call was asked to do
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def install(self, package) -> None:
        import importlib

        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in (*LAYERS, "cli")]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") or (layer == "cli" and attr != "main"):
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self._counter(name, fn) if name in COUNT_ONLY else self._span(name, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        spans, stack, notes = self.spans, self._stack, self.notes
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if note is not None:
                notes[idx] = note(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, op]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _yield_note(lattice, config, *args, **kwargs):
    return ("mc", lattice.n_qubits, config.trials, config.chunk_trials)


def _fit_note(t_hr, delta_r, breakpoints=None, n_candidates=50, *args, **kwargs):
    return ("fit", 0 if breakpoints is not None else math.comb(n_candidates, 2))


NOTES = {
    "yieldmc.mc_chip_yield": _yield_note,
    "freqmodel.fit_segmented_power_law": _fit_note,
}


def layer_metrics(tracer: Tracer, factors) -> dict[str, float]:
    """Per-layer totals over the traced pass, times in ms. Each span is
    scaled by ``factors[op]``, the host speed factor of the op it ran in."""
    total = defaultdict(float)
    longest = defaultdict(float)
    for name, start, end, _, op in tracer.spans:
        total[name] += (end - start) * factors[op]
        longest[name] = max(longest[name], (end - start) * factors[op])
    own = tracer.self_times()
    cli_self = sum(t * factors[s[4]] for s, t in zip(tracer.spans, own) if s[0] == "cli.main")

    def ms(*names):
        return 1e3 * sum(total[n] for n in names)

    mc = defaultdict(lambda: [0.0, 0])  # qubits -> [seconds, qubit-trials]
    chunks, chunk_mb, pairs = 0, {}, 0
    for idx, note in tracer.notes.items():
        name, start, end, _, op = tracer.spans[idx]
        if note[0] == "mc":
            _, q, trials, per_chunk = note
            mc[q][0] += (end - start) * factors[op]
            mc[q][1] += q * trials
            chunks += -(-trials // per_chunk)
            chunk_mb[q] = per_chunk * q * 8 / 1e6
        else:
            pairs += note[1]
    out = {
        "cli.self_ms": 1e3 * cli_self,
        "junction.sample_fabricated.ms": ms("junction.sample_fabricated"),
        "junction.advance_time.ms": ms("junction.advance_time"),
        "junction.apply_pulse.calls": tracer.counts["junction.apply_pulse"],
        "junction.measure_resistance.calls": tracer.counts["junction.measure_resistance"],
        "controller.run_campaign.ms": ms("controller.run_campaign"),
        "controller.qubit_rng.ms": ms("controller.qubit_rng"),
        "controller.stats.ms": ms("controller.precision_stats", "controller.overshoot_stats",
                                  "controller.calibrate_reserve"),
        "freqmodel.fit_segmented_power_law.ms": ms("freqmodel.fit_segmented_power_law"),
        "freqmodel.candidate_pairs": pairs,
        "freqmodel.fit_power_law.ms": ms("freqmodel.fit_power_law"),
        "lattice.optimize_parking.ms": ms("lattice.optimize_parking"),
        "lattice.optimize_parking.max_ms": 1e3 * longest["lattice.optimize_parking"],
        "lattice.edge_detunings.ms": ms("lattice.edge_detunings"),
        "yieldmc.mc_chip_yield.ms": ms("yieldmc.mc_chip_yield"),
        "yieldmc.chunks": chunks,
        "yieldmc.generate_unit_cell.ms": ms("yieldmc.generate_unit_cell"),
        "yieldmc.tile.ms": ms("yieldmc.tile"),
        "fileio.save_campaign.ms": ms("fileio.save_campaign"),
        "fileio.load_campaign.ms": ms("fileio.load_campaign"),
        "fileio.load_design.ms": ms("fileio.load_design"),
        "fileio.write_manifest.ms": ms("fileio.write_manifest"),
    }
    for q in (9, 108, 324):
        seconds, work = mc.get(q, (0.0, 0))
        out[f"yieldmc.ns_per_qubit_trial.q{q}"] = 1e9 * seconds / work if work else 0.0
    for q in (108, 324):
        out[f"yieldmc.chunk_mb_computed.q{q}"] = chunk_mb.get(q, 0.0)
    return out
