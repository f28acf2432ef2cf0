import hashlib

import numpy as np

from jjtrim import controller, junction

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


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
