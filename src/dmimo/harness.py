"""Monte-Carlo experiment execution, aggregation, and result serialization.

Execution layout: one full-size tensor is drawn (or loaded) per (K, trial)
and shared by every (M, N, rho) sweep cell, so topologies are compared on
the same channel realization. Every random purpose gets its own stream id
derived from (purpose, K index, trial, M index, N index), which makes runs
byte-identical for a fixed seed no matter how many worker threads execute.

Result rows are sorted by (M index, N index, rho index, K index, trial,
metric) before serialization; aggregates (mean, median, 512-point CDF) skip
degenerate trials and report them separately.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chanfile import read_channel_file
from .config import (
    METRIC_NAMES,
    ExperimentConfig,
    FileSource,
    SceneSource,
    config_to_dict,
)
from .errors import (
    ConfigError,
    DegenerateUserError,
    EmptySampleError,
    InvalidInputError,
    RankDeficiencyError,
)
from .metrics import SnrSpec, count_allocated_users, dpc_capacity, svs, zf_sum_rate
from .prep import normalize, select_subarray
from .stats import CdfTable, compute_cdf
from .synth import gen_geometric, gen_trajectory_users
from .tensor import ChannelTensor, RngHandle

RESULT_COLUMNS = ("trial", "M", "N", "K", "rho_db", "metric", "value", "degenerate_flag")

CDF_GRID_POINTS = 512

_STREAM_USERS = 1
_STREAM_CHANNEL = 2
_STREAM_SELECT = 3


def _stream_id(tag: int, k_idx: int, trial: int, m_idx: int = 0, n_idx: int = 0) -> int:
    return (tag << 56) | (k_idx << 48) | (m_idx << 40) | (n_idx << 32) | trial


@dataclass(frozen=True)
class ResultRow:
    """One metric measurement: CSV column order matches field order."""

    trial: int
    m: int
    n: int
    k: int
    rho_db: float
    metric: str
    value: float
    degenerate: bool


@dataclass(frozen=True)
class DegenerateRecord:
    """Why one row was excluded from aggregates."""

    trial: int
    m: int
    n: int
    k: int
    rho_db: float
    metric: str
    reason: str


@dataclass(frozen=True)
class CellAggregate:
    """Statistics of one (M, N, K, rho, metric) cell over all trials."""

    m: int
    n: int
    k: int
    rho_db: float
    metric: str
    num_trials: int
    num_valid: int
    num_degenerate: int
    mean: object
    median: object
    cdf: object


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple
    cells: tuple
    degenerate: tuple

    def to_csv_text(self) -> str:
        lines = [",".join(RESULT_COLUMNS)]
        for r in self.rows:
            lines.append(
                f"{r.trial},{r.m},{r.n},{r.k},{r.rho_db!r},{r.metric},"
                f"{r.value!r},{1 if r.degenerate else 0}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_text())

    def aggregates_dict(self) -> dict:
        return {
            "version": 1,
            "config": config_to_dict(self.config),
            "cells": [_cell_to_dict(c) for c in self.cells],
            "degenerate": [
                {
                    "trial": d.trial,
                    "m": d.m,
                    "n": d.n,
                    "k": d.k,
                    "rho_db": d.rho_db,
                    "metric": d.metric,
                    "reason": d.reason,
                }
                for d in self.degenerate
            ],
        }

    def write_aggregates(self, path) -> None:
        text = json.dumps(self.aggregates_dict(), indent=2, sort_keys=True) + "\n"
        Path(path).write_text(text)


def _cell_to_dict(cell: CellAggregate) -> dict:
    cdf = None
    if cell.cdf is not None:
        cdf = {
            "grid": [float(x) for x in cell.cdf.grid],
            "probs": [float(x) for x in cell.cdf.probs],
            "num_samples": cell.cdf.num_samples,
            "num_saturated": cell.cdf.num_saturated,
        }
    return {
        "m": cell.m,
        "n": cell.n,
        "k": cell.k,
        "rho_db": cell.rho_db,
        "metric": cell.metric,
        "num_trials": cell.num_trials,
        "num_valid": cell.num_valid,
        "num_degenerate": cell.num_degenerate,
        "mean": cell.mean,
        "median": cell.median,
        "cdf": cdf,
    }


def _source_inventory(cfg: ExperimentConfig):
    """(num_aps, smallest AP antenna count, file user count or None, tensor)."""
    if isinstance(cfg.source, SceneSource):
        scene = cfg.source.scene
        return scene.num_aps, scene.antennas_per_ap, None, None
    tensor = read_channel_file(cfg.source.path)
    sizes = [
        int(np.count_nonzero(tensor.antenna_ap_map == ap)) for ap in tensor.ap_ids
    ]
    return tensor.num_aps, min(sizes), tensor.num_users, tensor


def _validate_feasibility(cfg: ExperimentConfig, num_aps: int, ap_antennas: int, k_file):
    for n in cfg.n_values:
        if n > num_aps:
            raise ConfigError(
                f"sweeps.n_values: N={n} exceeds the source's {num_aps} APs"
            )
    for m in cfg.m_values:
        for n in cfg.n_values:
            if m % n != 0:
                raise ConfigError(f"(M={m}, N={n}) is infeasible: N must divide M")
            if m // n > ap_antennas:
                raise ConfigError(
                    f"(M={m}, N={n}) needs W={m // n} antennas per AP "
                    f"but the source provides {ap_antennas}"
                )
    if k_file is not None and max(cfg.k_values) > k_file:
        raise ConfigError(
            f"sweeps.k_values: K={max(cfg.k_values)} exceeds the channel file's "
            f"{k_file} users"
        )
    needs_tall = [name for name in ("svs", "zf", "fairness") if name in cfg.metrics]
    if needs_tall and max(cfg.k_values) > min(cfg.m_values):
        raise ConfigError(
            f"metrics {needs_tall} need K <= M; sweep has "
            f"K={max(cfg.k_values)} > M={min(cfg.m_values)}"
        )


def _draw_full_tensor(cfg: ExperimentConfig, file_tensor, k_idx: int, trial: int):
    k = cfg.k_values[k_idx]
    if isinstance(cfg.source, SceneSource):
        src = cfg.source
        users = gen_trajectory_users(
            src.scene,
            k,
            (src.min_spacing_m, src.max_spacing_m),
            RngHandle(cfg.seed, _stream_id(_STREAM_USERS, k_idx, trial)),
        )
        return gen_geometric(
            src.scene,
            users,
            RngHandle(cfg.seed, _stream_id(_STREAM_CHANNEL, k_idx, trial)),
        )
    if k == file_tensor.num_users:
        return file_tensor
    gen = RngHandle(cfg.seed, _stream_id(_STREAM_USERS, k_idx, trial)).generator()
    chosen = np.sort(gen.choice(file_tensor.num_users, size=k, replace=False))
    return ChannelTensor(
        file_tensor.data[:, :, chosen, :], file_tensor.antenna_ap_map
    )


def _metric_index(name: str) -> int:
    return METRIC_NAMES.index(name)


def _trial_worker(cfg: ExperimentConfig, file_tensor, k_idx: int, trial: int):
    """All rows of one (K, trial): returns (keyed rows, degenerate records)."""
    k = cfg.k_values[k_idx]
    rows = []
    notes = []

    def emit(m_idx, n_idx, rho_idx, metric, value, degenerate, reason=None):
        m = cfg.m_values[m_idx]
        n = cfg.n_values[n_idx]
        rho = cfg.rho_db_values[rho_idx]
        key = (m_idx, n_idx, rho_idx, k_idx, trial, _metric_index(metric))
        rows.append(
            (key, ResultRow(trial, m, n, k, rho, metric, float(value), degenerate))
        )
        if degenerate:
            notes.append(
                (key, DegenerateRecord(trial, m, n, k, rho, metric, reason or ""))
            )

    try:
        norm = normalize(_draw_full_tensor(cfg, file_tensor, k_idx, trial))
    except DegenerateUserError as exc:
        reason = str(exc)
        for m_idx in range(len(cfg.m_values)):
            for n_idx in range(len(cfg.n_values)):
                for rho_idx in range(len(cfg.rho_db_values)):
                    for metric in cfg.metrics:
                        emit(m_idx, n_idx, rho_idx, metric, math.nan, True, reason)
        return rows, notes

    for m_idx in range(len(cfg.m_values)):
        for n_idx in range(len(cfg.n_values)):
            sub, _ = select_subarray(
                norm,
                cfg.m_values[m_idx],
                cfg.n_values[n_idx],
                RngHandle(
                    cfg.seed, _stream_id(_STREAM_SELECT, k_idx, trial, m_idx, n_idx)
                ),
            )
            svs_value = svs(sub) if "svs" in cfg.metrics else None
            for rho_idx, rho_db in enumerate(cfg.rho_db_values):
                snr = SnrSpec(rho_db)
                if "svs" in cfg.metrics:
                    emit(
                        m_idx,
                        n_idx,
                        rho_idx,
                        "svs",
                        svs_value,
                        math.isinf(svs_value),
                        "saturated singular-value spread (rank-deficient draw)",
                    )
                if "dpc" in cfg.metrics:
                    res = dpc_capacity(sub, snr, cfg.allocation_mode)
                    emit(
                        m_idx,
                        n_idx,
                        rho_idx,
                        "dpc",
                        res.sum_rate_bits_per_s_per_hz,
                        not res.converged,
                        None
                        if res.converged
                        else "iterative water-filling hit the iteration cap",
                    )
                if "zf" in cfg.metrics or "fairness" in cfg.metrics:
                    try:
                        res = zf_sum_rate(sub, snr, cfg.allocation_mode)
                        zf_value = res.sum_rate_bits_per_s_per_hz
                        fairness = float(
                            np.mean([count_allocated_users(a) for a in res.allocations])
                        )
                        failure = None
                    except RankDeficiencyError as exc:
                        zf_value = math.nan
                        fairness = math.nan
                        failure = (
                            f"rank-deficient slice at (t={exc.snapshot}, "
                            f"l={exc.subcarrier})"
                        )
                    if "zf" in cfg.metrics:
                        emit(m_idx, n_idx, rho_idx, "zf", zf_value, failure is not None, failure)
                    if "fairness" in cfg.metrics:
                        emit(
                            m_idx, n_idx, rho_idx, "fairness", fairness, failure is not None, failure
                        )
    return rows, notes


def aggregate_result_rows(rows, grid_points: int = CDF_GRID_POINTS) -> tuple:
    """Group rows into per-cell statistics.

    Means and medians cover valid (non-degenerate) trials only. The CDF also
    carries saturated (+inf) degenerate values as tail mass; degenerate rows
    without a usable value (NaN) are only counted.
    """
    groups: dict = {}
    order = []
    for r in rows:
        key = (r.m, r.n, r.k, r.rho_db, r.metric)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    cells = []
    for key in order:
        entries = groups[key]
        valid = [r.value for r in entries if not r.degenerate]
        saturated = [
            r.value for r in entries if r.degenerate and math.isinf(r.value)
        ]
        mean = float(np.mean(valid)) if valid else None
        median = float(np.median(valid)) if valid else None
        try:
            cdf = compute_cdf(valid + saturated, grid_points)
        except (EmptySampleError, InvalidInputError):
            cdf = None
        m, n, k, rho_db, metric = key
        cells.append(
            CellAggregate(
                m=m,
                n=n,
                k=k,
                rho_db=rho_db,
                metric=metric,
                num_trials=len(entries),
                num_valid=len(valid),
                num_degenerate=len(entries) - len(valid),
                mean=mean,
                median=median,
                cdf=cdf,
            )
        )
    return tuple(cells)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Execute the full sweep grid for cfg.trials Monte-Carlo trials.

    Feasibility of every sweep cell is checked before any trial runs.
    `threads` only sets the worker-pool width; results are identical for any
    value because each trial owns pre-assigned random streams and rows are
    merged in sweep order, not completion order.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise ConfigError("run_experiment expects an ExperimentConfig")
    threads = int(threads)
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    num_aps, ap_antennas, k_file, file_tensor = _source_inventory(cfg)
    _validate_feasibility(cfg, num_aps, ap_antennas, k_file)

    tasks = [
        (k_idx, trial)
        for k_idx in range(len(cfg.k_values))
        for trial in range(cfg.trials)
    ]
    if threads == 1:
        outcomes = [_trial_worker(cfg, file_tensor, *task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(
                pool.map(lambda task: _trial_worker(cfg, file_tensor, *task), tasks)
            )

    keyed_rows = []
    keyed_notes = []
    for rows, notes in outcomes:
        keyed_rows.extend(rows)
        keyed_notes.extend(notes)
    keyed_rows.sort(key=lambda kr: kr[0])
    keyed_notes.sort(key=lambda kn: kn[0])
    rows = tuple(r for _, r in keyed_rows)
    degenerate = tuple(d for _, d in keyed_notes)
    cells = aggregate_result_rows(rows)
    return ExperimentResult(config=cfg, rows=rows, cells=cells, degenerate=degenerate)


def read_result_rows(path) -> tuple:
    """Parse a results CSV written by ExperimentResult.write_csv."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != RESULT_COLUMNS:
        raise InvalidInputError(
            f"{path} does not start with the result header {','.join(RESULT_COLUMNS)}"
        )
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(RESULT_COLUMNS):
            raise InvalidInputError(f"{path}:{ln}: expected {len(RESULT_COLUMNS)} columns")
        trial, m, n, k, rho_db, metric, value, flag = parts
        if metric not in METRIC_NAMES:
            raise InvalidInputError(f"{path}:{ln}: unknown metric {metric!r}")
        if flag not in ("0", "1"):
            raise InvalidInputError(f"{path}:{ln}: degenerate_flag must be 0 or 1, got {flag!r}")
        rows.append(
            ResultRow(
                trial=int(trial),
                m=int(m),
                n=int(n),
                k=int(k),
                rho_db=float(rho_db),
                metric=metric,
                value=float(value),
                degenerate=flag == "1",
            )
        )
    return tuple(rows)
