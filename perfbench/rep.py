"""One benchmark repetition, run in a fresh process by run.py.

Times what a researcher waits for: import dmimo and load the config
(set-up), run the sweep, write results.csv and aggregates.json, and build the
CDF tables with `dmimo cdf`. Writes its measurements to <out>/rep.json.

    python3 perfbench/rep.py --src src --config cfg.json --out dir [--trace]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the dmimo package")
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    args = parser.parse_args(argv)
    out = Path(args.out)

    sys.path.insert(0, args.src)
    import dmimo

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = dmimo.load_config(args.config)
    t_setup = time.perf_counter()
    result = dmimo.run_experiment(cfg)
    t_run = time.perf_counter()
    result.write_csv(out / "results.csv")
    result.write_aggregates(out / "aggregates.json")
    import dmimo.cli

    with contextlib.redirect_stdout(io.StringIO()):
        cdf_code = dmimo.cli.main(["cdf", str(out / "results.csv"), "--out", str(out)])
    t_end = time.perf_counter()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {
        "setup_s": t_setup - T0,
        "run_s": t_run - t_setup,
        "wall_s": t_end - T0,
        "tasks": cfg.trials * len(cfg.k_values),
        "peak_rss_mib": rss_kib / 1024.0,
        "cdf_exit_code": cdf_code,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["run_breakdown"] = tracer.run_breakdown()
        record["missing_targets"] = tracer.missing
        tracer.write_spans(out / "spans.json")
    (out / "rep.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
