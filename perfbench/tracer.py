"""Span tracer for the traced benchmark run.

The tracer wraps each public function of a dmimo layer, on its defining
module and on every dmimo module that bound it by name (found by identity,
so `from .tensor import singular_values` inside `metrics` is caught too),
plus the `__post_init__` validators of `ChannelTensor` and `PowerAllocation`.
Each call records a span (name, start, end, parent) kept in memory; counts
are taken at the same boundaries. A wrapped name missing from the library
is skipped, and the metrics that depend on it read as absent.

Self time of a span is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_file(key, index, name):
    def observe(counts, args, kwargs, result, exc):
        path = _arg(args, kwargs, index, name)
        if path is not None and os.path.exists(path):
            counts[key] += os.path.getsize(path)

    return observe


def _count_links(counts, args, kwargs, result, exc):
    scene = _arg(args, kwargs, 0, "scene")
    users = _arg(args, kwargs, 1, "users")
    counts["synth.links"] += users.num_users * scene.num_aps


def _count_tensor_out(counts, args, kwargs, result, exc):
    if result is None:
        return
    tensor = result[0] if isinstance(result, tuple) else result
    counts["prep.bytes_out"] += tensor.data.nbytes


def _slices(ch) -> int:
    """(t, l) slices in a channel argument: a ChannelTensor or an array of K x M matrices."""
    shape = getattr(getattr(ch, "data", ch), "shape", ())
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _count_zf(counts, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "RankDeficiencyError":
        counts["metrics.zf.rank_deficient"] += 1


def _count_dpc(counts, args, kwargs, result, exc):
    counts["metrics.slices"] += _slices(_arg(args, kwargs, 0, "ch"))
    if result is not None:
        counts["metrics.dpc.iterations"] += result.iterations
        counts["metrics.dpc.converged"] += bool(result.converged)


def _count_run(counts, args, kwargs, result, exc):
    if result is not None:
        counts["harness.rows"] += len(result.rows)
        counts["harness.degenerate_rows"] += len(result.degenerate)


# (span name, defining module, qualified name, count observer or None)
TARGETS = (
    ("config.load", "dmimo.config", "load_config", None),
    ("chanfile.read", "dmimo.chanfile", "read_channel_file", _count_file("chanfile.bytes_read", 0, "path")),
    ("synth.users", "dmimo.synth", "gen_trajectory_users", None),
    ("synth.geometric", "dmimo.synth", "gen_geometric", _count_links),
    ("prep.normalize", "dmimo.prep", "normalize", _count_tensor_out),
    ("prep.select", "dmimo.prep", "select_subarray", _count_tensor_out),
    ("tensor.construct", "dmimo.tensor", "ChannelTensor.__post_init__", None),
    ("tensor.svd", "dmimo.tensor", "singular_values", None),
    ("tensor.svd", "dmimo.tensor", "zf_effective_gains", None),
    ("metrics.svs", "dmimo.metrics", "svs", None),
    ("metrics.zf", "dmimo.metrics", "zf_sum_rate", _count_zf),
    ("metrics.dpc", "dmimo.metrics", "dpc_capacity", _count_dpc),
    ("metrics.waterfill", "dmimo.metrics", "waterfill", None),
    ("metrics.allocation", "dmimo.metrics", "PowerAllocation.__post_init__", None),
    ("stats.cdf", "dmimo.stats", "compute_cdf", None),
    ("harness.aggregate", "dmimo.harness", "aggregate_result_rows", None),
    ("harness.serialize", "dmimo.harness", "ExperimentResult.write_csv", _count_file("harness.bytes_written", 1, "path")),
    ("harness.serialize", "dmimo.harness", "ExperimentResult.write_aggregates", _count_file("harness.bytes_written", 1, "path")),
    ("harness.read_rows", "dmimo.harness", "read_result_rows", None),
    ("harness.run", "dmimo.harness", "run_experiment", _count_run),
)

# Per-layer metrics: (name, unit, better, how it is derived, what it should move).
# Derivations: ("self", span) self time summed over the span's calls;
# ("total", span) inclusive time; ("calls", span) call count;
# ("count", span, key) a count taken at the span; ("ratio", span, key) that
# count per call. A metric is absent when its span has no wrapped target.
# metrics.slices counts the (t, l) slices passed to dpc_capacity, read from the
# argument's shape, so batching slices into fewer calls leaves it unchanged.
LAYER_METRICS = (
    ("config.load_s", "s", "lower", ("self", "config.load"), "setup_s on all workloads"),
    ("chanfile.read_s", "s", "lower", ("self", "chanfile.read"), "wall_s on file_joint; zero elsewhere"),
    ("chanfile.bytes_read", "bytes", "lower", ("count", "chanfile.read", "chanfile.bytes_read"), "peak_rss_mib on file_joint; zero elsewhere"),
    ("synth.users_s", "s", "lower", ("self", "synth.users"), "trials_per_s on paper_sweep; none on file_joint"),
    ("synth.users.calls", "count", "lower", ("calls", "synth.users"), "trials_per_s on paper_sweep"),
    ("synth.geometric_s", "s", "lower", ("self", "synth.geometric"), "trials_per_s on paper_sweep; none on file_joint"),
    ("synth.geometric.calls", "count", "lower", ("calls", "synth.geometric"), "trials_per_s on paper_sweep"),
    ("synth.links", "count", "lower", ("count", "synth.geometric", "synth.links"), "trials_per_s on paper_sweep"),
    ("prep.normalize_s", "s", "lower", ("self", "prep.normalize"), "trials_per_s on paper_sweep"),
    ("prep.select_s", "s", "lower", ("self", "prep.select"), "trials_per_s on paper_sweep"),
    ("prep.select.calls", "count", "lower", ("calls", "prep.select"), "trials_per_s on paper_sweep"),
    ("prep.bytes_out", "bytes", "lower", ("count", "prep.select", "prep.bytes_out"), "peak_rss_mib on file_joint"),
    ("tensor.construct_s", "s", "lower", ("self", "tensor.construct"), "trials_per_s on paper_sweep and wideband"),
    ("tensor.construct.calls", "count", "lower", ("calls", "tensor.construct"), "trials_per_s on paper_sweep and wideband"),
    ("tensor.svd_s", "s", "lower", ("self", "tensor.svd"), "trials_per_s on paper_sweep and wideband"),
    ("tensor.svd.calls", "count", "lower", ("calls", "tensor.svd"), "trials_per_s on paper_sweep and wideband"),
    ("metrics.svs_s", "s", "lower", ("self", "metrics.svs"), "trials_per_s on wideband"),
    ("metrics.svs.calls", "count", "lower", ("calls", "metrics.svs"), "trials_per_s on wideband"),
    ("metrics.zf_s", "s", "lower", ("self", "metrics.zf"), "trials_per_s on wideband and file_joint"),
    ("metrics.zf.calls", "count", "lower", ("calls", "metrics.zf"), "trials_per_s on wideband and file_joint"),
    ("metrics.dpc_s", "s", "lower", ("self", "metrics.dpc"), "trials_per_s on wideband and file_joint"),
    ("metrics.dpc.calls", "count", "lower", ("calls", "metrics.dpc"), "trials_per_s on wideband and file_joint"),
    ("metrics.slices", "count", "lower", ("count", "metrics.dpc", "metrics.slices"), "trials_per_s on wideband and file_joint"),
    ("metrics.waterfill_s", "s", "lower", ("self", "metrics.waterfill"), "trials_per_s on wideband"),
    ("metrics.waterfill.calls", "count", "lower", ("calls", "metrics.waterfill"), "trials_per_s on wideband"),
    ("metrics.allocation_s", "s", "lower", ("self", "metrics.allocation"), "trials_per_s on wideband"),
    ("metrics.allocations", "count", "lower", ("calls", "metrics.allocation"), "trials_per_s on wideband"),
    ("metrics.dpc.iterations", "count", "lower", ("count", "metrics.dpc", "metrics.dpc.iterations"), "solver effort behind trials_per_s"),
    ("metrics.dpc.converged_ratio", "ratio", "higher", ("ratio", "metrics.dpc", "metrics.dpc.converged"), "solver quality; guards trials_per_s gains"),
    ("metrics.zf.rank_deficient", "count", "lower", ("count", "metrics.zf", "metrics.zf.rank_deficient"), "degenerate rows; guards trials_per_s gains"),
    ("stats.cdf_s", "s", "lower", ("self", "stats.cdf"), "wall_s on paper_sweep"),
    ("stats.cdf.calls", "count", "lower", ("calls", "stats.cdf"), "wall_s on paper_sweep"),
    ("harness.aggregate_s", "s", "lower", ("self", "harness.aggregate"), "wall_s on paper_sweep"),
    ("harness.serialize_s", "s", "lower", ("self", "harness.serialize"), "wall_s on paper_sweep"),
    ("harness.bytes_written", "bytes", "lower", ("count", "harness.serialize", "harness.bytes_written"), "wall_s on paper_sweep"),
    ("harness.read_rows_s", "s", "lower", ("self", "harness.read_rows"), "wall_s on paper_sweep"),
    ("harness.run_s", "s", "lower", ("total", "harness.run"), "trials_per_s on every workload"),
    ("harness.self_s", "s", "lower", ("self", "harness.run"), "trials_per_s on paper_sweep"),
    ("harness.rows", "count", "higher", ("count", "harness.run", "harness.rows"), "trials_per_s on paper_sweep"),
    ("harness.degenerate_rows", "count", "lower", ("count", "harness.run", "harness.degenerate_rows"), "trials_per_s on paper_sweep"),
)

# reported by the driver: traced wall_s / untraced wall_s
OVERHEAD_METRIC = ("trace.overhead", "ratio", "lower")


def _dmimo_modules():
    return [m for name, m in list(sys.modules.items()) if name == "dmimo" or name.startswith("dmimo.")]


class Tracer:
    """Records spans around calls into dmimo's layers once `install` ran."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span or None]
        self.counts = defaultdict(int)
        self.installed = set()  # span names with at least one wrapped target
        self.missing = []  # "module.qualname" targets the library lacks
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func, observe):
        spans, counts, stack_of = self.spans, self.counts, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            result = exc = None
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(counts, args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for name, modname, qualname, observe in TARGETS:
            try:
                module = importlib.import_module(modname)
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{qualname}")
                continue
            traced = self._wrap(name, original, observe)
            if path:
                setattr(owner, attr, traced)
            else:
                for mod in _dmimo_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
            self.installed.add(name)

    def _self_times(self):
        """Per-span self time, in the order of self.spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        out = []
        for span in self.spans:
            start, end = span[1], span[2]
            covered = 0.0
            cursor = start
            for child in sorted(children.get(id(span), ()), key=lambda s: s[1]):
                lo, hi = max(child[1], cursor), min(child[2], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(end - start - covered)
        return out

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS value whose spans were installed."""
        self_time = defaultdict(float)
        total = defaultdict(float)
        calls = defaultdict(int)
        for span, own in zip(self.spans, self._self_times()):
            self_time[span[0]] += own
            total[span[0]] += span[2] - span[1]
            calls[span[0]] += 1
        out = {}
        for metric, _, _, how, _ in LAYER_METRICS:
            kind, span = how[0], how[1]
            if span not in self.installed:
                continue
            if kind == "self":
                out[metric] = self_time[span]
            elif kind == "total":
                out[metric] = total[span]
            elif kind == "calls":
                out[metric] = calls[span]
            elif kind == "count":
                out[metric] = self.counts[how[2]]
            elif kind == "ratio" and calls[span]:
                out[metric] = self.counts[how[2]] / calls[span]
        return out

    def run_breakdown(self) -> dict:
        """Self time per span name inside `harness.run` spans, with their total.

        The self times of a subtree add up to the root's duration, so
        `sum(layers.values())` equals `total_s` up to rounding.
        """
        roots = {id(s) for s in self.spans if s[0] == "harness.run"}
        layers = defaultdict(float)
        for span, own in zip(self.spans, self._self_times()):
            node = span
            while node is not None and id(node) not in roots:
                node = node[3]
            if node is not None:
                layers[span[0]] += own
        total_s = sum(s[2] - s[1] for s in self.spans if id(s) in roots)
        return {"total_s": total_s, "layers": dict(layers)}

    def write_spans(self, path) -> None:
        """Write spans as [name, start, end, parent index] rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s[0], s[1], s[2], index[id(s[3])] if s[3] is not None else None]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


def median_metrics(records) -> dict:
    """Median of each metric over repetitions; a metric absent in any one is dropped."""
    if not records:
        return {}
    names = set(records[0]).intersection(*records[1:])
    return {name: statistics.median(r[name] for r in records) for name in names}
