import hashlib
import json
import reprlib
from typing import get_type_hints

import numpy as np

from jjtrim import controller, fileio, junction
from jjtrim.controller import (
    RECORD_BOUNDS, RECORD_FIELDS, TARGET_BOUNDS, TARGET_FIELDS, CampaignConfig,
)
from jjtrim.errors import SchemaError, ValidationError, check_rows

ACCEPTANCE_LINES = []


def oracle_rng(master_seed, qubit_id):
    """A qubit's stream as NumPy's SeedSequence builds it, one key at a time:
    the oracle for ``controller.qubit_rngs``."""
    digest = hashlib.sha256(str(qubit_id).encode("utf-8")).digest()
    qhash = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), qhash]))


def oracle_fabricated(design_resistance, rng):
    """One qubit's (resistance, relax_fraction), each drawn by a scalar
    truncation loop: the oracle for ``junction.sample_fabricated``."""
    while True:
        r = rng.normal(design_resistance * (1.0 + junction.FAB_MEAN_OFFSET_FRAC),
                       design_resistance * junction.FAB_SIGMA_FRAC)
        if r > 0:
            break
    while True:
        rho = rng.normal(junction.RELAX_FRACTION_MEAN, junction.RELAX_FRACTION_SIGMA)
        if rho >= 0:
            break
    return float(r), float(rho)


def oracle_record(r_untuned, relax_fraction, target, noise, rng):
    """One qubit tuned alone, batch by batch: the oracle for
    ``controller.run_campaign``. ``target`` is a row of the target columns;
    the record is a dict of Python values in ``RECORD_FIELDS`` order."""

    def probe(r):
        return r + float(rng.normal(0.0, noise)) if noise > 0 else r

    threshold = target["target_resistance"] / (1.0 + target["relaxation_reserve"])
    r = r_untuned
    read = probe(r)
    pulses = 0
    while read < threshold:
        n = min(controller._STEP_BATCH, controller.MAX_PULSES - pulses)
        if n <= 0:
            raise controller.InfeasibleError(
                f"qubit {target['qubit_id']}: max_pulses={controller.MAX_PULSES} exceeded")
        cum = r + np.cumsum(rng.exponential(controller.MEAN_STEP_OHM, n))
        reads = cum + rng.normal(0.0, noise, n) if noise > 0 else cum
        crossed = reads >= threshold
        hit = int(crossed.argmax())
        if crossed[hit]:
            r, pulses, read = float(cum[hit]), pulses + hit + 1, float(reads[hit])
            break
        pulses += n
        r = float(cum[-1])
    return {"qubit_id": target["qubit_id"], "r_untuned": r_untuned, "threshold": threshold,
            "r_last_pulse": read, "r_tuned": probe(r + relax_fraction * r), "pulses": pulses,
            "already_above_target": pulses == 0}


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


def oracle_load_campaign(path):
    """A campaign file walked object by object, its ids scanned one at a time
    and its columns built from the rows: the oracle for ``fileio.load_campaign``.
    An integer beyond 64 bits is named by table only."""
    data = fileio._load(path, _ORACLE_CAMPAIGN)
    try:
        config = CampaignConfig(**data["config"])
    except ValidationError as exc:
        raise SchemaError(f"{path}: config.{exc}") from None
    columns = []
    for key, fields, bounds in (("targets", TARGET_FIELDS, TARGET_BOUNDS),
                                ("records", RECORD_FIELDS, RECORD_BOUNDS)):
        items, first = data[key], {}
        for i, qid in enumerate(item["qubit_id"] for item in items):
            if first.setdefault(qid, i) != i:
                raise SchemaError(f"{path}: {key}[{i}].qubit_id: duplicate {reprlib.repr(qid)}")
        try:
            columns.append({k: [item[k] for item in items] if kind is str
                            else np.array([item[k] for item in items], kind)
                            for k, kind in fields.items()})
        except OverflowError:
            raise SchemaError(f"{path}: {key}: an integer does not fit in 64 bits") from None
        check_rows(f"{path}: {key}", columns[-1], bounds)
    targets, records = columns
    above, pulses = records["already_above_target"], records["pulses"]
    if np.any(above != (pulses == 0)):
        i = int(np.argmax(above != (pulses == 0)))
        raise SchemaError(f"{path}: records[{i}].already_above_target must be true exactly "
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


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
