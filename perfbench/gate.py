"""Correctness gate applied to every benchmark repetition.

`check` returns a list of problems (empty when the repetition passes):

- the row count equals trials x |K| x |M| x |N| x |rho| x |metrics| and each
  (trial, M, N, K, rho, metric) key appears exactly once;
- on each (trial, cell) where neither row is degenerate, DPC >= ZF - 1e-9;
- svs is >= 0 or +inf, and 0 <= fairness <= K on non-degenerate rows;
- each aggregates.json cell's num_trials, num_valid and mean agree with the
  rows.

`compare_reference` holds the rows against values recorded from a known-good
commit: exact for keys, degenerate flags and fairness, 1e-9 relative for svs
and zf, 1e-6 relative for dpc (an iterative solver).
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
from pathlib import Path

HEADER = "trial,M,N,K,rho_db,metric,value,degenerate_flag"
DPC_SLACK = 1e-9
REFERENCE_RTOL = {"svs": 1e-9, "zf": 1e-9, "dpc": 1e-6, "fairness": 0.0}
MAX_PROBLEMS = 20


def parse_rows(text: str) -> dict:
    """results.csv text -> {(trial, M, N, K, rho_db, metric): (value, degenerate)}.

    Raises ValueError on a malformed line or a repeated key.
    """
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("results.csv does not start with the result header")
    rows = {}
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8 or parts[7] not in ("0", "1"):
            raise ValueError(f"results.csv:{ln}: malformed row {line!r}")
        key = (int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]), parts[5])
        if key in rows:
            raise ValueError(f"results.csv:{ln}: key {key} appears twice")
        rows[key] = (float(parts[6]), parts[7] == "1")
    return rows


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b) or rtol == 0.0:
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check(config: dict, results_path, aggregates_path) -> list:
    """Problems found in one repetition's outputs, given the config it ran."""
    try:
        rows = parse_rows(Path(results_path).read_text())
        cells = json.loads(Path(aggregates_path).read_text())["cells"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {exc}"]
    problems = []
    sweeps = config["sweeps"]
    expected = set(
        itertools.product(
            range(config["trials"]),
            sweeps["m_values"],
            sweeps["n_values"],
            sweeps["k_values"],
            [float(r) for r in sweeps["rho_db_values"]],
            config["metrics"],
        )
    )
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    if set(rows) != expected:
        problems.append(
            f"row keys differ from the sweep grid: {len(set(rows) - expected)} unexpected, "
            f"{len(expected - set(rows))} missing"
        )

    for (trial, m, n, k, rho, metric), (value, degenerate) in rows.items():
        where = f"trial={trial} M={m} N={n} K={k} rho={rho}"
        if metric == "svs" and not (value >= 0.0 or (degenerate and math.isnan(value))):
            problems.append(f"svs={value} < 0 at {where}")
        if metric == "fairness" and not degenerate and not 0.0 <= value <= k:
            problems.append(f"fairness={value} outside [0, {k}] at {where}")
        if metric == "zf" and not degenerate:
            dpc = rows.get((trial, m, n, k, rho, "dpc"))
            if dpc is not None and not dpc[1] and not dpc[0] >= value - DPC_SLACK:
                problems.append(f"dpc={dpc[0]!r} < zf={value!r} at {where}")

    groups = {}
    for (trial, m, n, k, rho, metric), row in rows.items():
        groups.setdefault((m, n, k, rho, metric), []).append(row)
    seen = set()
    for cell in cells:
        key = (cell["m"], cell["n"], cell["k"], float(cell["rho_db"]), cell["metric"])
        seen.add(key)
        entries = groups.get(key, [])
        valid = [v for v, degenerate in entries if not degenerate]
        mean = math.fsum(valid) / len(valid) if valid else None
        if cell["num_trials"] != len(entries) or cell["num_valid"] != len(valid):
            problems.append(f"aggregate cell {key} counts disagree with the rows")
        elif (mean is None) != (cell["mean"] is None) or (
            mean is not None and not _close(cell["mean"], mean, 1e-9)
        ):
            problems.append(f"aggregate cell {key} mean {cell['mean']} != row mean {mean}")
    if seen != set(groups):
        problems.append("aggregates.json cells do not match the row cells")
    return problems[:MAX_PROBLEMS]


def read_reference(path) -> str:
    with gzip.open(path, "rt") as fh:
        return fh.read()


def compare_reference(results_text: str, reference_text: str) -> list:
    """Problems found holding a results.csv against a recorded reference."""
    try:
        rows = parse_rows(results_text)
        ref = parse_rows(reference_text)
    except ValueError as exc:
        return [f"cannot compare with the reference: {exc}"]
    if set(rows) != set(ref):
        return ["row keys differ from the reference"]
    problems = []
    for key, (value, degenerate) in rows.items():
        ref_value, ref_degenerate = ref[key]
        if degenerate != ref_degenerate:
            problems.append(f"degenerate flag differs from the reference at {key}")
        elif not _close(value, ref_value, REFERENCE_RTOL[key[5]]):
            problems.append(f"{key[5]}={value!r} differs from the reference {ref_value!r} at {key}")
    return problems[:MAX_PROBLEMS]
