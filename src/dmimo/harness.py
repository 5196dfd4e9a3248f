"""Monte-Carlo experiment execution, aggregation, and result serialization.

Execution layout: one full-size tensor is drawn (or loaded) and normalized
per (K, trial) and shared by every (M, N, rho) sweep cell, so topologies are
compared on the same channel realization. Trials run in chunks: consecutive
trials of one K whose full-size tensors hold at most CHUNK_ELEMENTS complex
entries together (a larger trial runs alone), so the cap bounds the memory
a chunk holds. Per (M, N), each trial of a chunk draws its own subarray and
the subarrays are stacked: a SliceBatch gives every trial's spread and ZF
rate from one batched SVD, with the ZF gains computed once for every rho,
and per rho one dpc_capacity call on the trials folded into its snapshot
axis gives every trial's DPC slice rates (joint allocation is per trial). A
degenerate trial is flagged on its own; it never fails the rest of its
chunk. A trial whose users cannot be placed within the spacing bounds, or
whose tensor has an all-zero user, gets degenerate rows with the reason.
Every random purpose gets its own stream id derived from (purpose, K index,
trial, M index, N index), and every kernel treats each slice on its own, so
for a fixed seed the output bytes do not depend on the chunk cap or on how
many worker threads execute the chunks.

Results live in one dense grid with axes (M, N, rho, K, trial, metric), in
config order (metrics in canonical order): a value per slot, and a reason in
each degenerate slot. A chunk worker writes only its own (K index, trial)
slots, so workers never share one, and the rows are the grid read in C order,
which is also their serialization order. Aggregates (mean, median, 512-point
CDF) skip degenerate trials and report them separately.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import product
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
    InfeasibleLayoutError,
    InvalidInputError,
    RankDeficiencyError,
    check_number,
)
from .metrics import SliceBatch, SnrSpec, count_allocated_users, dpc_capacity
from .prep import draw_subarray_columns, normalize
from .stats import compute_cdf
from .synth import gen_geometric, gen_trajectory_users
from .tensor import ChannelTensor, RngHandle, ap_columns

RESULT_COLUMNS = ("trial", "M", "N", "K", "rho_db", "metric", "value", "degenerate_flag")

CDF_GRID_POINTS = 512

_STREAM_USERS = 1
_STREAM_CHANNEL = 2
_STREAM_SELECT = 3

# complex entries that the full-size tensors of one chunk of trials hold at
# most (1.5 MiB): 64 trials of the paper's sweep (T = L = 1, K = 12 users,
# 128 antennas). Bounds a chunk's memory, never changes output bytes.
CHUNK_ELEMENTS = 64 * 12 * 128


def _stream_id(tag: int, k_idx: int, trial: int, m_idx: int = 0, n_idx: int = 0) -> int:
    """Pack a random purpose and its sweep position into one 64-bit stream id.

    High to low: tag, K index, M index and N index in 8 bits each, then the
    trial in 32 bits. A value that does not fit raises ValueError instead of
    colliding with another stream.
    """
    for name, value, bits in (
        ("tag", tag, 8),
        ("k_idx", k_idx, 8),
        ("m_idx", m_idx, 8),
        ("n_idx", n_idx, 8),
        ("trial", trial, 32),
    ):
        if not 0 <= value < 1 << bits:
            raise ValueError(f"stream id field {name}={value} does not fit in {bits} bits")
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
            "degenerate": [asdict(d) for d in self.degenerate],
        }

    def write_aggregates(self, path) -> None:
        text = json.dumps(self.aggregates_dict(), indent=2, sort_keys=True) + "\n"
        Path(path).write_text(text)


def _cell_to_dict(cell: CellAggregate) -> dict:
    out = asdict(cell)
    if cell.cdf is not None:
        out["cdf"].update(grid=cell.cdf.grid.tolist(), probs=cell.cdf.probs.tolist())
    return out


def _source_inventory(cfg: ExperimentConfig):
    """(antenna -> AP map, (T, L) of every drawn tensor, file tensor or None)."""
    if isinstance(cfg.source, SceneSource):
        scene = cfg.source.scene
        return scene.antenna_ap_map(), (scene.num_snapshots, scene.num_subcarriers), None
    tensor = read_channel_file(cfg.source.path)
    return tensor.antenna_ap_map, tensor.dims[:2], tensor


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
    # take, unlike data[:, :, chosen], returns an owned C-order array the
    # tensor can adopt without a second copy
    data = np.take(file_tensor.data, chosen, axis=2)
    data.setflags(write=False)
    return ChannelTensor(data, file_tensor.antenna_ap_map)


def _chunks(cfg: ExperimentConfig, entries_per_user: int) -> list:
    """(K index, trials) work units: consecutive trials of one K whose full-size
    tensors, of `entries_per_user` = T*L*M_total entries per user, hold
    CHUNK_ELEMENTS entries at most; a larger trial is a chunk of its own."""
    out = []
    for k_idx, k in enumerate(cfg.k_values):
        size = max(1, CHUNK_ELEMENTS // (k * entries_per_user))
        out.extend(
            (k_idx, range(start, min(start + size, cfg.trials)))
            for start in range(0, cfg.trials, size)
        )
    return out


def _chunk_dpc(stack: np.ndarray, snr: SnrSpec, mode: str) -> tuple:
    """(DPC rates, converged) arrays over the trials of an (items, T, L, K, M) stack.

    Per-slice allocation treats every slice on its own, so one dpc_capacity
    call on the trials folded into the snapshot axis gives each trial's
    slice rates unchanged; joint allocation is one call per trial.
    """
    if mode == "joint":
        results = [dpc_capacity(item, snr, mode) for item in stack]
        return (
            np.array([r.sum_rate_bits_per_s_per_hz for r in results]),
            np.array([r.converged for r in results]),
        )
    items, t, l, k, m = stack.shape
    res = dpc_capacity(stack.reshape(items * t, l, k, m), snr, mode)
    return (
        res.slice_rates.reshape(items, -1).mean(axis=1),
        res.slice_converged.reshape(items, -1).all(axis=1),
    )


def _chunk_worker(
    cfg: ExperimentConfig, file_tensor, blocks: dict, values, reasons, k_idx: int, trials
) -> None:
    """Fill the [:, :, :, k_idx, trial, :] slots of the result grids for one
    chunk of trials: a value per slot, and a reason in each degenerate one."""
    drawn = []  # trials with a normalized tensor
    tensors = []  # their normalized (T, L, K, M) data
    for trial in trials:
        try:
            norm = normalize(_draw_full_tensor(cfg, file_tensor, k_idx, trial))
        except (DegenerateUserError, InfeasibleLayoutError) as exc:
            reasons[:, :, :, k_idx, trial, :] = str(exc)
            continue
        drawn.append(trial)
        tensors.append(norm.data)
    if not drawn:
        return

    for m_idx, n_idx in product(range(len(cfg.m_values)), range(len(cfg.n_values))):
        m, n = cfg.m_values[m_idx], cfg.n_values[n_idx]
        stack = np.empty((len(drawn),) + tensors[0].shape[:3] + (m,), dtype=np.complex128)
        for out, trial, data in zip(stack, drawn, tensors):
            rng = RngHandle(cfg.seed, _stream_id(_STREAM_SELECT, k_idx, trial, m_idx, n_idx))
            cols = draw_subarray_columns(blocks, m, n, rng)[0]
            # the columns are valid, so "clip" only lets take write in place
            np.take(data, cols, axis=3, out=out, mode="clip")
        batch = SliceBatch(stack)
        measured = {}  # metric -> (values, reasons or None) over the drawn trials
        if "svs" in cfg.metrics:
            spreads = batch.spreads()
            measured["svs"] = spreads, np.where(
                np.isinf(spreads), "saturated singular-value spread (rank-deficient draw)", None
            )
        for rho_idx, rho_db in enumerate(cfg.rho_db_values):
            snr = SnrSpec(rho_db)
            if "dpc" in cfg.metrics:
                rates, converged = _chunk_dpc(stack, snr, cfg.allocation_mode)
                measured["dpc"] = rates, np.where(
                    converged, None, "iterative water-filling hit the iteration cap"
                )
            if "zf" in cfg.metrics or "fairness" in cfg.metrics:
                zf, fairness, failures = [], [], []
                for res in batch.zf(snr, cfg.allocation_mode):
                    if isinstance(res, RankDeficiencyError):
                        zf.append(math.nan)
                        fairness.append(math.nan)
                        failures.append(
                            f"rank-deficient slice at (t={res.snapshot}, l={res.subcarrier})"
                        )
                    else:
                        zf.append(res.sum_rate_bits_per_s_per_hz)
                        fairness.append(float(np.mean(count_allocated_users(res.powers))))
                        failures.append(None)
                measured["zf"] = zf, failures
                measured["fairness"] = fairness, failures
            for metric_idx, metric in enumerate(cfg.metrics):
                slots = (m_idx, n_idx, rho_idx, k_idx, drawn, metric_idx)
                values[slots], reasons[slots] = measured[metric]


def aggregate_result_rows(rows, grid_points: int = CDF_GRID_POINTS) -> tuple:
    """Group rows into per-cell statistics, in order of each cell's first row.

    Means and medians cover valid (non-degenerate) trials only. The CDF also
    carries saturated (+inf) degenerate values as tail mass; degenerate rows
    without a usable value (NaN) are only counted. A grid_points that is not
    an integer >= 1 raises ConfigError.
    """
    grid_points = check_number(grid_points, "grid_points", int, ConfigError)
    if grid_points < 1:
        raise ConfigError(f"grid_points must be >= 1, got {grid_points}")
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.m, r.n, r.k, r.rho_db, r.metric), []).append(r)
    cells = []
    for (m, n, k, rho_db, metric), entries in groups.items():
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

    Feasibility of every sweep cell is checked before any trial runs. Chunk
    workers fill one dense (M, N, rho, K, trial, metric) grid of values and
    degenerate reasons, each writing only its own (K, trial) slots, and the
    rows are read off that grid in C order. `threads` only sets how many
    trial chunks run at once; results are identical for any value because
    each trial owns pre-assigned random streams and grid slots.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise ConfigError("run_experiment expects an ExperimentConfig")
    threads = check_number(threads, "threads", int, ConfigError)
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    ap_map, grid, file_tensor = _source_inventory(cfg)
    blocks = ap_columns(ap_map)
    _validate_feasibility(
        cfg,
        len(blocks),
        min(len(block) for block in blocks.values()),
        None if file_tensor is None else file_tensor.num_users,
    )

    axes = (
        cfg.m_values,
        cfg.n_values,
        cfg.rho_db_values,
        cfg.k_values,
        range(cfg.trials),
        cfg.metrics,
    )
    shape = tuple(len(axis) for axis in axes)
    values = np.full(shape, math.nan)
    reasons = np.full(shape, None, dtype=object)  # a reason marks a degenerate row

    def work(chunk):
        _chunk_worker(cfg, file_tensor, blocks, values, reasons, *chunk)

    chunks = _chunks(cfg, grid[0] * grid[1] * len(ap_map))
    if threads == 1:
        for chunk in chunks:
            work(chunk)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, chunks))

    rows = []
    degenerate = []
    for (m, n, rho_db, k, trial, metric), value, reason in zip(
        product(*axes), values.ravel().tolist(), reasons.ravel().tolist()
    ):
        rows.append(ResultRow(trial, m, n, k, rho_db, metric, value, reason is not None))
        if reason is not None:
            degenerate.append(DegenerateRecord(trial, m, n, k, rho_db, metric, reason))
    rows, degenerate = tuple(rows), tuple(degenerate)
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
