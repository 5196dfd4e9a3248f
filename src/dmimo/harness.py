"""Monte-Carlo experiment execution, aggregation, and result serialization.

Execution layout: per (K, trial), one full-size tensor is drawn from the
scene, or read from the channel file as the trial's K users of every (t, l)
slab, then normalized and shared by every (M, N, rho) sweep cell, so
topologies are compared on the same channel realization. A channel file is
checked once, before any trial, in one streaming pass that keeps only its
header and AP map, so a process holds only the users its trials read.
Before any trial, too, each (M, N) of the sweep is checked once against
the source's AP blocks, so no draw checks its topology again.
Trials run in chunks: consecutive trials of one K whose full-size tensors
hold at most CHUNK_ELEMENTS complex entries together (a larger trial runs
alone), so the cap bounds the memory a chunk holds. Per (M, N), each trial of a chunk draws its own subarray and
the subarrays are stacked into one SliceBatch, which returns per-trial
arrays of all four metrics: the spread from one batched SVD, the ZF rate
and fairness count from ZF gains computed once for every rho, and per rho
the DPC rate from one dpc_capacity call on the trials folded into its
snapshot axis (joint allocation is one call per trial). A degenerate trial
is flagged on its own; it never fails the rest of its chunk. SliceBatch
returns each metric's reasons with its values and so decides every reason a
measured trial gets; the harness stores them as they come. It decides only
the two reasons a trial gets before any metric runs: its users cannot be
placed within the spacing bounds, or a user of its tensor is all zero or
has an energy that underflows. Then every row of the trial is degenerate,
with the error's text as the reason.
Every random purpose gets its own stream id derived from (purpose, K index,
trial, M index, N index), and every kernel treats each slice on its own, so
for a fixed seed the output bytes do not depend on the chunk cap or on how
many worker processes execute the chunks.

Chunks are handed out larger K first (trials ascending within a K), so the
costliest chunks run first. Worker w first runs chunk w; then every worker
takes the next chunk that nobody has run from a counter shared across the
fork, until none is left. Worker 0 is the calling process; the other W - 1
are forked, so they inherit the config, the trial source and the AP blocks
without pickling, and each sends back only its chunks' results, each under
its chunk's index. The counter is advanced under a POSIX record lock, which
the kernel drops when its holder dies, so a worker killed at any moment
hangs no other. Each trial read from a file opens its own descriptor, so
workers share none. By default W is the number of CPUs the process may run
on, capped at the number of chunks. W = 1 forks nothing: the calling
process alone pulls from the counter, so it runs the chunks in order.

Results live in one dense grid with axes (M, N, rho, K, trial, metric), in
config order (metrics in canonical order): a value per slot, and a reason in
each degenerate slot. Each chunk's (M, N, rho, trial, metric) results are
copied into its own (K index, trial) slots. ExperimentResult is that grid,
written to CSV in C order; its rows, degenerate records and cells are views.
One aggregator turns a grid into cells (mean, median, 512-point CDF; it skips
degenerate trials and counts them), for a run and for rows read back.
Result files never sit whole in memory: CSV is written line by line and JSON
piece by piece, and rows read back go line by line into compact buffers.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import traceback
from array import array
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .chanfile import scan_channel_file
from .config import (
    METRIC_NAMES,
    ExperimentConfig,
    SceneSource,
    config_to_dict,
)
from .errors import (
    ConfigError,
    DegenerateUserError,
    EmptySampleError,
    InfeasibleLayoutError,
    InvalidInputError,
    TopologyError,
    check_number,
)
from .metrics import MAX_ABS_RHO_DB, SliceBatch, SnrSpec
from .prep import check_topology, draw_subarray_columns, normalize
from .stats import CDF_GRID_POINTS, compute_cdf
from .synth import gen_geometric, gen_trajectory_users
from .tensor import ChannelTensor, RngHandle, ap_columns

RESULT_COLUMNS = ("trial", "M", "N", "K", "rho_db", "metric", "value", "degenerate_flag")
_COLUMN_TYPES = (int, int, int, int, float, str, float, str)
_CONTAINERS = (dict, list, tuple)  # what json writes as an object or array

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


def _axes(cfg: ExperimentConfig) -> tuple:
    """The (M, N, rho, K, trial, metric) axes of cfg's result grid."""
    return (
        cfg.m_values, cfg.n_values, cfg.rho_db_values, cfg.k_values, range(cfg.trials), cfg.metrics
    )


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """One run's read-only grid over _axes(config): a value per slot, and the
    reason of each degenerate slot (None elsewhere). rows, degenerate and cells
    are views of the grid in C order, built on first use."""

    config: ExperimentConfig
    values: np.ndarray
    reasons: np.ndarray

    def _slots(self):
        # slot by slot, so that no list of the whole grid is made
        return zip(product(*_axes(self.config)), map(float, self.values.flat), self.reasons.flat)

    @cached_property
    def rows(self) -> tuple:
        return tuple(
            ResultRow(trial, m, n, k, rho_db, metric, value, reason is not None)
            for (m, n, rho_db, k, trial, metric), value, reason in self._slots()
        )

    @cached_property
    def degenerate(self) -> tuple:
        return tuple(
            DegenerateRecord(trial, m, n, k, rho_db, metric, reason)
            for (m, n, rho_db, k, trial, metric), _, reason in self._slots() if reason is not None
        )

    @cached_property
    def cells(self) -> tuple:
        return _aggregate(_axes(self.config), self.values, np.not_equal(self.reasons, None))

    def _csv_lines(self):
        yield ",".join(RESULT_COLUMNS) + "\n"
        for (m, n, rho_db, k, trial, metric), value, reason in self._slots():
            flag = int(reason is not None)
            yield f"{trial},{m},{n},{k},{rho_db!r},{metric},{value!r},{flag}\n"

    def to_csv_text(self) -> str:
        return "".join(self._csv_lines())

    def write_csv(self, path) -> None:
        """Write to_csv_text() to path line by line, so the text is never held whole."""
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(self._csv_lines())

    def aggregates_dict(self) -> dict:
        return {
            "version": 1,
            "config": config_to_dict(self.config),
            "cells": [_cell_to_dict(c) for c in self.cells],
            "degenerate": [asdict(d) for d in self.degenerate],
        }

    def write_aggregates(self, path) -> None:
        _write_json(self.aggregates_dict(), path)


def write_cdf_tables(cells, path) -> None:
    """Write the cdf_tables.json of `dmimo cdf`: every cell of
    aggregate_result_rows as aggregates.json spells it."""
    _write_json({"version": 1, "cells": [_cell_to_dict(c) for c in cells]}, path)


def _write_json(payload: dict, path) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) + "\n" to path piece
    by piece, so the text is never held whole. Dict keys must be strings."""
    with open(path, "w", encoding="utf-8") as out:
        _write_json_value(out.write, payload, "\n")
        out.write("\n")


def _write_json_value(write, value, newline: str) -> None:
    """Write value as json.dumps(..., indent=2, sort_keys=True) spells it on a
    line that starts with newline[1:]. A container that holds containers is
    written item by item; any other value is one json.dumps call without
    indent, which runs json's C encoder, with only its brackets re-spaced."""
    if not isinstance(value, _CONTAINERS) or not value:
        write(json.dumps(value))
        return
    inner = newline + "  "
    items = value.values() if isinstance(value, dict) else value
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):
        text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        write(f"{text[0]}{inner}{text[1:-1]}{newline}{text[-1]}")
    elif isinstance(value, dict):
        opener = "{"
        for key, item in sorted(value.items()):
            write(f"{opener}{inner}{json.dumps(key)}: ")
            _write_json_value(write, item, inner)
            opener = ","
        write(newline + "}")
    else:
        opener = "["
        for item in value:
            write(opener + inner)
            _write_json_value(write, item, inner)
            opener = ","
        write(newline + "]")


def _cell_to_dict(cell: CellAggregate) -> dict:
    out = asdict(cell)
    if cell.cdf is not None:
        out["cdf"].update(grid=cell.cdf.grid.tolist(), probs=cell.cdf.probs.tolist())
    return out


def _trial_source(cfg: ExperimentConfig) -> tuple:
    """(AP blocks, T*L*M_total entries per user, draw) of cfg's source, checked
    once, after checking that every sweep cell is feasible on it.
    draw(k_idx, trial) is the trial's full-size ChannelTensor: a scene's users
    and channel, or K of the channel file's users in file order, drawn from
    the trial's own streams and read from the file by offset."""
    if isinstance(cfg.source, SceneSource):
        src = cfg.source
        ap_map, available = src.scene.antenna_ap_map(), math.inf  # a scene places any K
        slices = src.scene.num_snapshots * src.scene.num_subcarriers

        def draw(k_idx: int, trial: int) -> ChannelTensor:
            users = gen_trajectory_users(
                src.scene,
                cfg.k_values[k_idx],
                (src.min_spacing_m, src.max_spacing_m),
                RngHandle(cfg.seed, _stream_id(_STREAM_USERS, k_idx, trial)),
            )
            return gen_geometric(
                src.scene, users, RngHandle(cfg.seed, _stream_id(_STREAM_CHANNEL, k_idx, trial))
            )
    else:
        source = scan_channel_file(cfg.source.path)
        ap_map, (t, l, available, _) = source.antenna_ap_map, source.dims
        slices = t * l

        def draw(k_idx: int, trial: int) -> ChannelTensor:
            gen = RngHandle(cfg.seed, _stream_id(_STREAM_USERS, k_idx, trial)).generator()
            chosen = np.sort(gen.choice(available, size=cfg.k_values[k_idx], replace=False))
            return source.read_users(chosen)

    blocks = ap_columns(ap_map)
    for m, n in product(cfg.m_values, cfg.n_values):
        try:
            check_topology(blocks, m, n)
        except TopologyError as exc:
            raise ConfigError(f"(M={m}, N={n}) is infeasible: {exc}") from None
    if max(cfg.k_values) > available:
        raise ConfigError(
            f"sweeps.k_values: K={max(cfg.k_values)} exceeds the channel file's "
            f"{available} users"
        )
    needs_tall = [name for name in ("svs", "zf", "fairness") if name in cfg.metrics]
    if needs_tall and max(cfg.k_values) > min(cfg.m_values):
        raise ConfigError(
            f"metrics {needs_tall} need K <= M; sweep has "
            f"K={max(cfg.k_values)} > M={min(cfg.m_values)}"
        )
    return blocks, slices * len(ap_map), draw


def _chunks(cfg: ExperimentConfig, entries_per_user: int) -> list:
    """(K index, trials) work units: consecutive trials of one K whose full-size
    tensors, of `entries_per_user` = T*L*M_total entries per user, hold
    CHUNK_ELEMENTS entries at most; a larger trial is a chunk of its own.
    Each K's trials are cut into as few chunks as the cap allows, whose sizes
    differ by at most 1."""
    out = []
    for k_idx, k in enumerate(cfg.k_values):
        cap = max(1, CHUNK_ELEMENTS // (k * entries_per_user))
        count = -(-cfg.trials // cap)
        bounds = [cfg.trials * i // count for i in range(count + 1)]
        out.extend((k_idx, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
    return out


def _chunk_worker(cfg: ExperimentConfig, draw, blocks: dict, k_idx: int, trials) -> tuple:
    """(values, reasons) of one chunk of trials, each drawn by draw(k_idx,
    trial), both of shape (M, N, rho, trial, metric): a value per slot, and a
    reason in each degenerate one."""
    shape = tuple(len(axis) for axis in _axes(cfg)[:3]) + (len(trials), len(cfg.metrics))
    values = np.full(shape, math.nan)
    reasons = np.full(shape, None, dtype=object)  # a reason marks a degenerate row
    drawn = []  # chunk positions of the trials with a normalized tensor
    tensors = []  # their normalized (T, L, K, M) data
    for pos, trial in enumerate(trials):
        try:
            norm = normalize(draw(k_idx, trial))
        except (DegenerateUserError, InfeasibleLayoutError) as exc:
            reasons[:, :, :, pos, :] = str(exc)
            continue
        drawn.append(pos)
        tensors.append(norm.data)
    if not drawn:
        return values, reasons

    for m_idx, n_idx in product(range(len(cfg.m_values)), range(len(cfg.n_values))):
        m, n = cfg.m_values[m_idx], cfg.n_values[n_idx]
        stack = np.empty((len(drawn),) + tensors[0].shape[:3] + (m,), dtype=np.complex128)
        for out, pos, data in zip(stack, drawn, tensors):
            rng = RngHandle(
                cfg.seed, _stream_id(_STREAM_SELECT, k_idx, trials[pos], m_idx, n_idx)
            )
            cols = draw_subarray_columns(blocks, m, n, rng)
            # the columns are valid, so "clip" only lets take write in place
            np.take(data, cols, axis=3, out=out, mode="clip")
        batch = SliceBatch(stack)
        measured = {}  # metric -> (values, reasons) over the drawn trials
        if "svs" in cfg.metrics:
            measured["svs"] = batch.spreads()
        for rho_idx, rho_db in enumerate(cfg.rho_db_values):
            snr = SnrSpec(rho_db)
            if "dpc" in cfg.metrics:
                measured["dpc"] = batch.dpc(snr, cfg.allocation_mode)
            if "zf" in cfg.metrics or "fairness" in cfg.metrics:
                zf, fairness, zf_reasons = batch.zf(snr, cfg.allocation_mode)
                measured["zf"] = zf, zf_reasons
                measured["fairness"] = fairness, zf_reasons
            for metric_idx, metric in enumerate(cfg.metrics):
                slots = (m_idx, n_idx, rho_idx, drawn, metric_idx)
                values[slots], reasons[slots] = measured[metric]
    return values, reasons


def _outcome(run_share, index: int) -> tuple:
    """(results, None) for share `index` of the chunks, or (exception, its
    traceback text) if the share raised."""
    try:
        return run_share(index), None
    except Exception as exc:
        text = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return exc, text


def _fork(run_share, index: int) -> tuple:
    """Fork worker `index`: (its pid, a file that reads its pickled outcome)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                pickle.dump(_outcome(run_share, index), out)
            code = 0
        finally:
            # skip the caller's exit handlers and its buffered output
            os._exit(code)
    # the worker now holds the only write end, so its death ends the read
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _next_chunk(counter: int) -> int:
    """Take the next chunk index that no worker has run: the 8-byte count at
    the start of file descriptor `counter`, advanced by one under lockf, a
    POSIX record lock from the offset to the end of the file (pread and
    pwrite leave the offset at 0). Such a lock belongs to one process, so
    the workers of a fork exclude each other, and the kernel drops it when
    its holder dies."""
    os.lockf(counter, os.F_LOCK, 0)
    try:
        index = int.from_bytes(os.pread(counter, 8, 0), "little")
        os.pwrite(counter, (index + 1).to_bytes(8, "little"), 0)
    finally:
        os.lockf(counter, os.F_ULOCK, 0)
    return index


def _run_chunks(run_chunk, count: int, workers: int) -> list:
    """(index, *run_chunk(index)) for every chunk index below count, each
    once. Worker w first runs chunk w, then takes the next chunk that nobody
    has run from one shared counter, until none is left: worker 0 here, the
    others forked. With one worker nothing is forked, and the counter hands
    this process the chunks in order. An error in any worker is raised
    here, after every worker has ended."""
    counter = os.memfd_create("dmimo-chunks", os.MFD_CLOEXEC)

    def run_share(index):
        done = []
        while index < count:
            done.append((index, *run_chunk(index)))
            index = _next_chunk(counter)
        return done

    running = {}  # worker index -> pid, until the worker is reaped
    readers = {}  # worker index -> its outcome's read end
    try:
        os.pwrite(counter, workers.to_bytes(8, "little"), 0)  # chunks below W are taken
        for index in range(1, workers):
            running[index], readers[index] = _fork(run_share, index)
        done = run_share(0)
        for index, reader in readers.items():
            try:
                payload, text = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                status = os.waitpid(running.pop(index), 0)[1]
                raise RuntimeError(
                    f"worker {index} exited with code {os.waitstatus_to_exitcode(status)} "
                    "before sending results"
                ) from None
            if text is not None:
                raise payload from RuntimeError(f"in worker {index}:\n{text}")
            done.extend(payload)
        return done
    except BaseException:
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers.values():
            reader.close()
        for pid in running.values():
            os.waitpid(pid, 0)
        os.close(counter)


def _aggregate(axes, values, degenerate, grid_points: int = CDF_GRID_POINTS) -> tuple:
    """The cells of a (M, N, rho, K, trial, metric) value grid and its degenerate
    mask, in C order. Means and medians cover valid trials only. The CDF also
    carries saturated (+inf) degenerate values as tail mass; degenerate values
    without a usable value (NaN) are only counted."""
    per_cell = [np.moveaxis(grid, 4, 5).reshape(-1, grid.shape[4]) for grid in (values, degenerate)]
    cells = []
    for (m, n, rho_db, k, metric), entries, flags in zip(product(*axes[:4], axes[5]), *per_cell):
        valid = entries[~flags]
        saturated = entries[flags & np.isinf(entries)]
        mean = float(np.mean(valid)) if valid.size else None
        median = float(np.median(valid)) if valid.size else None
        try:
            cdf = compute_cdf(np.concatenate([valid, saturated]), grid_points)
        except EmptySampleError:
            cdf = None
        counts = entries.size, valid.size, entries.size - valid.size  # trials, valid, degenerate
        cells.append(CellAggregate(m, n, k, rho_db, metric, *counts, mean, median, cdf))
    return tuple(cells)


def aggregate_result_rows(rows, grid_points: int = CDF_GRID_POINTS) -> tuple:
    """The cells of rows in write_csv's order, aggregated as ExperimentResult.cells.

    The rows must fill one (M, N, rho, K, trial, metric) grid in C order, each
    axis's values in order of first appearance, or the first row out of place
    or missing (row 1 when there are none) raises InvalidInputError, as does
    a valid NaN or -inf value or a degenerate -inf one. A grid_points that
    is not an integer >= 1 raises ConfigError.

    rows may be any iterable, consumed once before grid_points is checked, so
    an error of a row read from a file comes first. Each row is kept only as
    its axis indices, value and flag in compact buffers, so an iterator such
    as iter_result_rows never holds the file.
    """
    axes = [{} for _ in range(6)]  # (M, N, rho, K, trial, metric): value -> index
    m_axis, n_axis, rho_axis, k_axis, trial_axis, metric_axis = axes
    indices, values, flags = array("q"), array("d"), bytearray()
    for r in rows:
        indices.extend((
            m_axis.setdefault(r.m, len(m_axis)),
            n_axis.setdefault(r.n, len(n_axis)),
            rho_axis.setdefault(r.rho_db, len(rho_axis)),
            k_axis.setdefault(r.k, len(k_axis)),
            trial_axis.setdefault(r.trial, len(trial_axis)),
            metric_axis.setdefault(r.metric, len(metric_axis)),
        ))
        values.append(r.value)
        flags.append(r.degenerate)
    grid_points = check_number(grid_points, "grid_points", int, ConfigError)
    if grid_points < 1:
        raise ConfigError(f"grid_points must be >= 1, got {grid_points}")
    axes = [tuple(axis) for axis in axes]
    shape = tuple(map(len, axes))
    slots = np.frombuffer(indices, dtype=np.int64).reshape(-1, len(axes))
    # row i is in place when its slot is the i-th of the grid in C order
    misplaced = np.flatnonzero(np.ravel_multi_index(slots.T, shape) != np.arange(len(values)))
    if misplaced.size or len(values) < max(math.prod(shape), 1):
        index = int(misplaced[0]) if misplaced.size else len(values)
        problem = "is missing"
        if index < len(values):
            m, n, rho_db, k, trial, metric = (a[i] for a, i in zip(axes, slots[index].tolist()))
            row = ResultRow(trial, m, n, k, rho_db, metric, values[index], flags[index] == 1)
            problem = f"({row}) is out of write_csv's order"
        raise InvalidInputError(f"result row {index + 1} {problem}")
    grid = np.frombuffer(values).reshape(shape)
    return _aggregate(axes, grid, np.frombuffer(flags, dtype=np.uint8).reshape(shape) == 1, grid_points)


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Execute the full sweep grid for cfg.trials Monte-Carlo trials.

    Feasibility of every sweep cell is checked before any trial runs. Chunks
    are ordered larger K first; worker w runs chunk w, then each worker takes
    the next chunk nobody has run from a shared counter until none is left.
    Worker 0 is this process and the others are forked. `workers` defaults
    to the CPUs this process may run on and is capped at the number of
    chunks; 1 runs every chunk here. Each chunk's values and degenerate
    reasons are copied into its own (K, trial) slots of one dense
    (M, N, rho, K, trial, metric) grid, which the result holds.
    Results are identical for any `workers` because each trial owns
    pre-assigned random streams and grid slots.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise ConfigError("run_experiment expects an ExperimentConfig")
    if workers is None:
        workers = len(os.sched_getaffinity(0))
    workers = check_number(workers, "workers", int, ConfigError)
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    blocks, entries_per_user, draw = _trial_source(cfg)

    shape = tuple(len(axis) for axis in _axes(cfg))
    values = np.full(shape, math.nan)
    reasons = np.full(shape, None, dtype=object)  # a reason marks a degenerate row

    # larger K first, so the costliest chunks are not left for last
    chunks = sorted(
        _chunks(cfg, entries_per_user), key=lambda chunk: cfg.k_values[chunk[0]], reverse=True
    )
    workers = min(workers, len(chunks))

    def run_chunk(index):
        return _chunk_worker(cfg, draw, blocks, *chunks[index])

    for index, chunk_values, chunk_reasons in _run_chunks(run_chunk, len(chunks), workers):
        k_idx, trials = chunks[index]
        slots = (slice(None),) * 3 + (k_idx, slice(trials.start, trials.stop))
        values[slots], reasons[slots] = chunk_values, chunk_reasons

    for grid in (values, reasons):
        grid.setflags(write=False)
    return ExperimentResult(config=cfg, values=values, reasons=reasons)


def read_result_rows(path) -> tuple:
    """Every row of iter_result_rows(path)."""
    return tuple(iter_result_rows(path))


def iter_result_rows(path):
    """Yield the rows of a results CSV written by ExperimentResult.write_csv,
    reading it line by line. An unreadable file, or a row that no run writes,
    raises InvalidInputError naming its line. Each (M, N, K, rho_db, metric)
    cell's trials must ascend, as write_csv writes them, so only the last
    trial of each cell is kept.

    Each spelling of a row's trial, of its (M, N, K, rho_db, metric) fields and
    of its flag is parsed and checked once, at its first line; later lines
    parse only their value."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            # the lines of str.splitlines, one physical line at a time
            lines = (line for physical in fh for line in physical.splitlines())
            if tuple(next(lines, "").split(",")) != RESULT_COLUMNS:
                raise InvalidInputError(
                    f"{path} does not start with the result header {','.join(RESULT_COLUMNS)}"
                )
            trials, cells, flags = {}, {}, {}  # spelling -> its checked fields
            last_trial = {}  # (M, N, K, rho_db, metric) -> the last trial read for that cell
            for ln, line in enumerate(lines, start=2):
                if not line:
                    continue
                if line.count(",") != len(RESULT_COLUMNS) - 1:
                    raise InvalidInputError(f"{path}:{ln}: expected {len(RESULT_COLUMNS)} columns")
                trial_text, rest = line.split(",", 1)
                cell_text, value_text, flag = rest.rsplit(",", 2)
                trial, cell = trials.get(trial_text), cells.get(cell_text)
                try:
                    value = float(value_text)
                except ValueError:
                    value = None
                if None in (trial, cell, value, flags.get(flag)) or repr(value) != value_text:
                    # a first spelling, or a bad value: the line's own checks, in column order
                    trial, *cell, value, flag = _parse_result_line(path, ln, line)
                    cell = cells[cell_text] = tuple(cell)
                    trials[trial_text], flags[flag] = trial, flag == "1"
                if flag == "0" and not math.isfinite(value):
                    raise InvalidInputError(
                        f"{path}:{ln}: value must be finite when degenerate_flag is 0, "
                        f"got {value_text!r}"
                    )
                if value == -math.inf:
                    raise InvalidInputError(f"{path}:{ln}: value must not be -inf, got {value_text!r}")
                last = last_trial.get(cell, -1)
                if trial == last:
                    raise InvalidInputError(
                        f"{path}:{ln}: repeats an earlier (trial, M, N, K, rho_db, metric)"
                    )
                if trial < last:
                    raise InvalidInputError(
                        f"{path}:{ln}: trial {trial} follows trial {last} of the same "
                        "(M, N, K, rho_db, metric); each cell's trials must ascend"
                    )
                last_trial[cell] = trial
                m, n, k, rho_db, metric = cell
                yield ResultRow(trial, m, n, k, rho_db, metric, value, flags[flag])
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read results {path}: {exc}") from exc


def _parse_result_line(path, ln: int, line: str) -> list:
    """The eight fields of results line ln, each spelled as write_csv writes
    it, after every check of the line that needs neither its value nor
    another line."""
    where, parts = f"{path}:{ln}", line.split(",")
    fields = []
    for name, kind, field in zip(RESULT_COLUMNS, _COLUMN_TYPES, parts):
        try:
            fields.append(kind(field))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise InvalidInputError(f"{where}: {name} must be {noun}, got {field!r}") from None
        # only write_csv's own spelling of the value: no '08', '+0.0' or 'INF'
        written = repr(fields[-1]) if kind is float else str(fields[-1])
        if written != field:
            raise InvalidInputError(f"{where}: {name} must be written {written!r}, got {field!r}")
    trial, m, n, k, rho_db, metric, _, flag = fields
    if metric not in METRIC_NAMES:
        raise InvalidInputError(f"{where}: unknown metric {metric!r}")
    if flag not in ("0", "1"):
        raise InvalidInputError(f"{where}: degenerate_flag must be 0 or 1, got {flag!r}")
    for name, number, low in (("trial", trial, 0), ("M", m, 1), ("N", n, 1), ("K", k, 1)):
        if number < low:
            raise InvalidInputError(f"{where}: {name} must be >= {low}, got {number}")
    if m % n:
        raise InvalidInputError(f"{where}: N={n} does not divide M={m}, so no run draws it")
    if not math.isfinite(rho_db):
        raise InvalidInputError(f"{where}: rho_db must be finite, got {parts[4]!r}")
    if abs(rho_db) > MAX_ABS_RHO_DB:
        raise InvalidInputError(
            f"{where}: rho_db must lie within ±{MAX_ABS_RHO_DB:g} dB, got {parts[4]!r}"
        )
    return fields
