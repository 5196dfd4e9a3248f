import os
import sys
from pathlib import Path

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
