"""Record the reference results the gate holds default-seed runs against.

    python3 perfbench/record_reference.py [workload ...]

Runs one repetition of each named workload (all by default) at the default
seed and stores its results.csv, gzipped, as perfbench/reference/<name>.csv.gz.
For file_joint it also stores the sha256 of the channel file the run read.
Record only from a commit whose outputs are known to be right.
"""

import gzip
import json
import sys

import run
import workloads


def main(names) -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        seed = workloads.DEFAULT_SEED
        file_path = None
        if workloads.needs_file(name):
            run.FILE_SHA256.unlink(missing_ok=True)
            file_path = run.channel_file(seed)
            run.FILE_SHA256.write_text(f"{run.file_sha256(file_path)}  channel.dmct\n")
        config = workloads.make_config(name, seed, file_path=file_path)
        run_dir = run.WORK / f"{name}-reference"
        run_dir.mkdir(parents=True, exist_ok=True)
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        record, problem = run.spawn(config_path, run_dir / "rep", False, run.RUN_DEADLINE_S)
        problems = [problem] if record is None else run.score_rep(run_dir / "rep", config, record, None)
        if problems:
            print(f"{name}: not recorded: {problems}", file=sys.stderr)
            return 1
        text = (run_dir / "rep" / "results.csv").read_bytes()
        with gzip.GzipFile(run.REFERENCE / f"{name}.csv.gz", "wb", mtime=0) as fh:
            fh.write(text)
        rows = text.count(b"\n") - 1
        print(f"{name}: recorded {rows} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
