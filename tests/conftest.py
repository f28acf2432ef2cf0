import hashlib
import json
import math
import reprlib
from typing import get_type_hints

import numpy as np

from jjtrim import controller, fileio, junction
from jjtrim.controller import (
    RECORD_BOUNDS, RECORD_FIELDS, TARGET_BOUNDS, TARGET_FIELDS, CampaignConfig,
)
from jjtrim.errors import ValidationError, check_rows

ACCEPTANCE_LINES = []


def precision_closed_form(target, reserve):
    """(mean, sigma) of a noiseless campaign's precision r_tuned / target - 1.

    By renewal theory (see ``test_renewal``) precision + 1 = A * B, with
    independent A = 1 + rho and B = 1 / (1 + reserve) + E / target, where rho
    is the relaxation fraction and E ~ Exp(``MEAN_STEP_OHM``) the overshoot.
    """
    mu = controller.MEAN_STEP_OHM
    a_mean = 1.0 + junction.RELAX_FRACTION_MEAN
    a_sq = a_mean**2 + junction.RELAX_FRACTION_SIGMA**2
    b_mean = 1.0 / (1.0 + reserve) + mu / target
    b_sq = b_mean**2 + (mu / target) ** 2
    return a_mean * b_mean - 1.0, math.sqrt(a_sq * b_sq - (a_mean * b_mean) ** 2)


def generator(master_seed, key):
    """A NumPy ``Generator`` keyed as a campaign stream is: independent draws
    for the law oracle (``per_pulse_record``)."""
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return np.random.default_rng([int(master_seed), int.from_bytes(digest[:8], "big")])


class OracleStream:
    """A key's stream as NumPy builds it, ``PCG64(SeedSequence([master_seed,
    sha256(key)[:8]]))``, read one raw word at a time and made into draws by
    scalar ``math`` formulas: the oracle for ``controller.QubitStreams`` and
    its transforms."""

    def __init__(self, master_seed, key):
        digest = hashlib.sha256(str(key).encode("utf-8")).digest()
        seq = np.random.SeedSequence([int(master_seed), int.from_bytes(digest[:8], "big")])
        self.bits = np.random.PCG64(seq)

    def uniform(self):
        return (int(self.bits.random_raw()) >> 11) * 2.0**-53

    def exponential(self):
        return -math.log1p(-self.uniform())

    def normal_pair(self):
        radius = math.sqrt(2 * self.exponential())
        angle = 2 * math.pi * self.uniform()
        return radius * math.cos(angle), radius * math.sin(angle)

    def normal(self):
        return self.normal_pair()[0]

    def poisson(self, lam):
        """Inversion of one uniform below lam = 10; PTRS (Hoermann 1993) from 10."""
        if lam < 10:
            u, x = self.uniform(), 0
            p = cdf = math.exp(-lam)
            while cdf <= u and p > 0:
                x += 1
                p *= lam / x
                cdf += p
            return x
        b = 0.931 + 2.53 * math.sqrt(lam)
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.uniform() - 0.5
            v = self.uniform()
            us = 0.5 - abs(u)
            if us == 0:  # k is -inf
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            if v == 0 or (math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                          <= -lam + k * math.log(lam) - math.lgamma(k + 1)):
                return k


def oracle_fabricated(design_resistance, stream):
    """One qubit's (resistance, relax_fraction), drawn by a scalar loop over
    normal pairs until both fit: the oracle for ``junction.sample_fabricated``."""
    while True:
        z_r, z_rho = stream.normal_pair()
        r = (design_resistance * (1.0 + junction.FAB_MEAN_OFFSET_FRAC)
             + design_resistance * junction.FAB_SIGMA_FRAC * z_r)
        rho = junction.RELAX_FRACTION_MEAN + junction.RELAX_FRACTION_SIGMA * z_rho
        if r > 0 and rho >= 0:
            return r, rho


def oracle_record(r_untuned, relax_fraction, target, noise, stream):
    """One qubit tuned alone, a jump then a walk one pulse at a time, reading
    ``stream`` (an ``OracleStream``) in the order ``controller.run_campaign``
    documents, every word of a walk block included: the oracle for
    ``controller.run_campaign``. ``target`` is a row of the target columns;
    the record is a dict of Python values in ``RECORD_FIELDS`` order."""
    mu = controller.MEAN_STEP_OHM

    def probe(r):
        return r + noise * stream.normal() if noise > 0 else r

    def infeasible():
        return controller.InfeasibleError(
            f"qubit {target['qubit_id']}: max_pulses={controller.MAX_PULSES} exceeded")

    threshold = target["target_resistance"] / (1.0 + target["relaxation_reserve"])
    if (threshold - r_untuned) / mu > controller.MAX_PULSES:
        raise infeasible()
    r, read, pulses = r_untuned, probe(r_untuned), 0
    low = threshold - controller._WALK_SIGMAS * noise
    if read < threshold and r < low:
        r, pulses = low, stream.poisson((low - r) / mu)
    block = 0
    while read < threshold and pulses <= controller.MAX_PULSES:
        block += 1
        crossed = False
        for _ in range(min(block, controller._MAX_BLOCK)):
            step = mu * stream.exponential()
            z = stream.normal() if noise > 0 else 0.0
            if not crossed:
                r += step
                read = r + noise * z if noise > 0 else r
                pulses += 1
                crossed = not read < threshold
    if pulses > controller.MAX_PULSES:
        raise infeasible()
    return {"qubit_id": target["qubit_id"], "r_untuned": r_untuned, "threshold": threshold,
            "r_last_pulse": read, "r_tuned": probe(r + relax_fraction * r), "pulses": pulses,
            "already_above_target": pulses == 0}


def per_pulse_record(r_untuned, relax_fraction, target, noise, rng):
    """One qubit tuned by drawing every pulse, as campaigns were tuned before
    the jump: windows of 512 steps (and 512 read errors with a noisy probe),
    stopping at the first read at or above the threshold. The law oracle for
    ``controller.run_campaign``: its records follow the same distribution,
    from other draws."""

    def probe(r):
        return r + float(rng.normal(0.0, noise)) if noise > 0 else r

    threshold = target["target_resistance"] / (1.0 + target["relaxation_reserve"])
    r = r_untuned
    read = probe(r)
    pulses = 0
    while read < threshold:
        cum = r + np.cumsum(rng.exponential(controller.MEAN_STEP_OHM, 512))
        reads = cum + rng.normal(0.0, noise, 512) if noise > 0 else cum
        crossed = reads >= threshold
        hit = int(crossed.argmax())
        if crossed[hit]:
            r, pulses, read = float(cum[hit]), pulses + hit + 1, float(reads[hit])
            break
        pulses += 512
        r = float(cum[-1])
    return {"qubit_id": target["qubit_id"], "r_untuned": r_untuned, "threshold": threshold,
            "r_last_pulse": read, "r_tuned": probe(r + relax_fraction * r), "pulses": pulses,
            "already_above_target": pulses == 0}


def ks_2samp(x, y):
    """The two-sample Kolmogorov-Smirnov p-value of samples x and y, from the
    asymptotic Kolmogorov series with Stephens' small-sample correction; it is
    conservative for discrete samples (pulse counts)."""
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    d = np.abs(np.searchsorted(x, both, "right") / len(x)
               - np.searchsorted(y, both, "right") / len(y)).max()
    ne = len(x) * len(y) / (len(x) + len(y))
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    if lam < 0.3:  # the series converges slowly here, where p > 0.99999
        return 1.0
    k = np.arange(1, 101)
    return float(np.clip(2 * np.sum((-1.0) ** (k - 1) * np.exp(-2 * (k * lam) ** 2)), 0, 1))


def chi2_pvalue(stat, df):
    """The upper tail of the chi-square law with ``df`` degrees of freedom at
    ``stat``, by the Wilson-Hilferty cube-root normal approximation."""
    z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    return 0.5 * math.erfc(z / math.sqrt(2))


def rows(columns, fields=controller.RECORD_FIELDS):
    """A column set as one dict of Python values per row, keys in ``fields`` order."""
    values = [np.asarray(columns[k]).tolist() for k in fields]
    return [dict(zip(fields, row)) for row in zip(*values)]


def oracle_campaign_text(records, targets, config):
    """The campaign file as ``json.dumps`` writes it from one dict per row:
    the oracle for ``fileio.save_campaign``."""

    def table(columns, fields):
        values = [columns[k] if kind is str else np.asarray(columns[k], kind).tolist()
                  for k, kind in fields.items()]
        return [dict(zip(fields, row)) for row in zip(*values)]

    return json.dumps({"config": vars(config), "targets": table(targets, TARGET_FIELDS),
                       "records": table(records, RECORD_FIELDS)}) + "\n"


_ORACLE_CAMPAIGN = {"config": get_type_hints(CampaignConfig), "targets": [TARGET_FIELDS],
                    "records": [RECORD_FIELDS]}


def load(loader, path, *args):
    """``loader`` on the text of the file at ``path``, read as the CLI reads it."""
    return loader(path, fileio.read_input(path)[1], *args)


def oracle_load_campaign(path, text):
    """A campaign text walked object by object, its ids scanned one at a time
    and its columns built from the rows: the oracle for ``fileio.load_campaign``.
    An integer beyond 64 bits is named by table only."""
    data = fileio._load(path, text, _ORACLE_CAMPAIGN)
    try:
        config = CampaignConfig(**data["config"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: config.{exc}") from None
    columns = []
    for key, fields, bounds in (("targets", TARGET_FIELDS, TARGET_BOUNDS),
                                ("records", RECORD_FIELDS, RECORD_BOUNDS)):
        items, first = data[key], {}
        for i, qid in enumerate(item["qubit_id"] for item in items):
            if first.setdefault(qid, i) != i:
                raise ValidationError(f"{path}: {key}[{i}].qubit_id: duplicate {reprlib.repr(qid)}")
        try:
            columns.append({k: [item[k] for item in items] if kind is str
                            else np.array([item[k] for item in items], kind)
                            for k, kind in fields.items()})
        except OverflowError:
            raise ValidationError(f"{path}: {key}: an integer does not fit in 64 bits") from None
        check_rows(f"{path}: {key}", columns[-1], bounds)
    targets, records = columns
    above, pulses = records["already_above_target"], records["pulses"]
    if np.any(above != (pulses == 0)):
        i = int(np.argmax(above != (pulses == 0)))
        raise ValidationError(f"{path}: records[{i}].already_above_target must be true exactly "
                          f"when pulses is 0, got {str(above[i]).lower()} with pulses {pulses[i]}")
    return records, targets, config


def oracle_edge_detunings(lattice, freqs, window):
    """The detuning columns built one edge at a time from Python floats: the
    oracle for ``lattice.edge_detunings``."""
    cols = {name: [] for name in ("node_a", "node_b", "signed_mhz", "abs_mhz",
                                  "modulated_qubit", "in_window")}
    for a, b in lattice.edges():
        fa, fb = float(freqs[a]), float(freqs[b])
        signed = fa - fb
        row = (a, b, signed, abs(signed), a if fa >= fb else b,
               None if window is None else window[0] <= abs(signed) <= window[1])
        for column, value in zip(cols.values(), row):
            column.append(value)
    return cols


def brute_force_parking(lattice, window, max_park, step):
    """Exhaustive enumeration over all downward offset assignments: the
    oracle for ``lattice.optimize_parking``.

    Returns the first plan of least (count, max |offset|, sum |offset|) in
    ``itertools.product`` order, or None when no assignment fits.
    """
    lo, hi = window
    candidates = [0.0]
    k = 1
    while k * step <= max_park:
        candidates.append(-k * step)
        k += 1
    freqs = lattice.measured_f01max or lattice.design_f01max
    n = lattice.n_qubits
    # Row r is the r-th assignment of itertools.product(candidates, repeat=n).
    index = np.indices((len(candidates),) * n).reshape(n, -1).T
    offsets = np.array(candidates)[index]
    ok = np.ones(len(offsets), dtype=bool)
    for a, b in lattice.edges():
        d = np.abs(freqs[a] + offsets[:, a] - freqs[b] - offsets[:, b])
        ok &= (lo <= d) & (d <= hi)
    if not ok.any():
        return None
    offsets = offsets[ok]
    mags = np.abs(offsets)
    total = np.zeros(len(offsets))
    for col in mags.T:  # summed in node order, as the plan's cost is
        total = total + col
    first = np.lexsort((total, mags.max(axis=1), (offsets != 0.0).sum(axis=1)))[0]
    return tuple(float(o) for o in offsets[first])


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
