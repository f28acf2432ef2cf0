import hashlib

import numpy as np

ACCEPTANCE_LINES = []


def oracle_rng(master_seed, qubit_id):
    """A qubit's stream as NumPy's SeedSequence builds it, one key at a time:
    the oracle for ``controller.qubit_rngs``."""
    digest = hashlib.sha256(str(qubit_id).encode("utf-8")).digest()
    qhash = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), qhash]))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
