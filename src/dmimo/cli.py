"""Command-line interface.

Subcommands:
    synth   scene description -> binary channel file
    run     experiment config -> results.csv + aggregates.json
    cdf     results.csv -> per-cell CDF tables (JSON)
    oracle  brute-force validation suite (slow reference recomputations)
"""

from __future__ import annotations

import argparse
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .chanfile import write_channel_blocks
from .config import SynthConfig, _from_dict, load_config, read_json
from .errors import ToolkitError
from .harness import (
    aggregate_result_rows,
    iter_result_rows,
    run_experiment,
    write_cdf_tables,
)
from .selfcheck import DEFAULT_SEED, run_selfcheck
from .stats import CDF_GRID_POINTS
from .synth import gen_trajectory_users, geometric_link_blocks
from .tensor import RngHandle


@contextmanager
def _output_dir(path):
    """Make the --out directory `path` before the work that fills it, so an
    unusable one fails first; if the work then fails, remove what this made."""
    out_dir = Path(path)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield out_dir
    except BaseException:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise


def _cmd_synth(args) -> int:
    cfg = _from_dict(SynthConfig, read_json(args.config), "synth config")
    seed = cfg.seed if args.seed is None else args.seed
    spacing = (cfg.min_spacing_m, cfg.max_spacing_m)
    with _output_dir(args.out) as out_dir:
        users = gen_trajectory_users(cfg.scene, cfg.num_users, spacing, RngHandle(seed, 0))
        # the tensor goes to the file block by block, never whole in memory
        dims, blocks = geometric_link_blocks(cfg.scene, users, RngHandle(seed, 1))
        path = out_dir / "channel.dmct"
        write_channel_blocks(path, dims, cfg.scene.antenna_ap_map(), blocks)
    t, l, k, m = dims
    print(f"wrote {path} (T={t}, L={l}, K={k}, M={m}, {cfg.scene.num_aps} APs)")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.allocation_mode is not None:
        overrides["allocation_mode"] = args.allocation_mode.replace("-", "_")
    if overrides:
        cfg = cfg.replace(**overrides)
    with _output_dir(args.out) as out_dir:
        result = run_experiment(cfg, workers=args.workers)
        csv_path = out_dir / "results.csv"
        agg_path = out_dir / "aggregates.json"
        result.write_csv(csv_path)
        result.write_aggregates(agg_path)
    degenerate = np.count_nonzero(np.not_equal(result.reasons, None))
    print(f"wrote {csv_path} ({result.values.size} rows, {degenerate} degenerate) and {agg_path}")
    return 0


def _cmd_cdf(args) -> int:
    with _output_dir(args.out) as out_dir:
        # the rows go straight into the grid; the file is never held whole
        cells = aggregate_result_rows(iter_result_rows(args.results), grid_points=args.grid_points)
        path = out_dir / "cdf_tables.json"
        write_cdf_tables(cells, path)
    print(f"wrote {path} ({len(cells)} cells)")
    return 0


def _cmd_oracle(args) -> int:
    ok = run_selfcheck(report=print, seed=args.seed)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmimo",
        description=(
            "Spatial user-separability analysis for distributed massive MIMO "
            "channels: synthesize or load channel tensors, then evaluate "
            "singular value spread, DPC and ZF sum rates, and user fairness "
            "over Monte-Carlo sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a channel file from a scene")
    p_synth.add_argument("--config", required=True, help="scene/users JSON")
    p_synth.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="run a Monte-Carlo experiment config")
    p_run.add_argument("--config", required=True, help="experiment JSON")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--trials", type=int, default=None, help="override the trial count")
    p_run.add_argument(
        "--allocation-mode",
        choices=("per-tl", "joint"),
        default=None,
        help="override the power-allocation scope",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes that run trial chunks (default: every usable CPU; 1 runs in-process)",
    )
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_cdf = sub.add_parser("cdf", help="compute CDF tables from a results CSV")
    p_cdf.add_argument("results", help="results.csv from the run subcommand")
    p_cdf.add_argument("--grid-points", type=int, default=CDF_GRID_POINTS)
    p_cdf.add_argument("--out", required=True, help="output directory")
    p_cdf.set_defaults(func=_cmd_cdf)

    p_oracle = sub.add_parser(
        "oracle", help="validate fast paths against brute-force recomputation"
    )
    p_oracle.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
