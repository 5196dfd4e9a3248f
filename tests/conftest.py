import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def chunk_pids(tmp_path, monkeypatch):
    """Log the PID that runs each chunk of trials, forked workers included.
    Calling the fixture returns the PIDs logged since the last call."""
    from dmimo import harness

    log = tmp_path / "chunk_pids.txt"
    work = harness._chunk_worker

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return work(*args)

    monkeypatch.setattr(harness, "_chunk_worker", logged)

    def read():
        pids = [int(pid) for pid in log.read_text().split()] if log.exists() else []
        log.unlink(missing_ok=True)
        return pids

    return read


@pytest.fixture
def factorizations(monkeypatch):
    """Count the matrices passed to np.linalg.slogdet and np.linalg.solve; a
    stack of shape (..., n, n) counts as its number of matrices. Calling the
    fixture returns {"slogdet": count, "solve": count} since the last call."""
    counts = dict.fromkeys(("slogdet", "solve"), 0)

    def counted(name):
        real = getattr(np.linalg, name)

        def factor(a, *args, **kwargs):
            counts[name] += math.prod(np.shape(a)[:-2])
            return real(a, *args, **kwargs)

        return factor

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counted(name))

    def read():
        seen = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        return seen

    return read
