"""dmimo benchmark driver.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 44 --trace 0

Builds the workload's config (and, for file_joint, its channel file) from the
seed, then runs repetitions one after another, each in a fresh process
(perfbench/rep.py), until --seconds have passed. Every repetition goes
through the correctness gate (gate.py); one that raises or fails the gate
counts as failed. Metrics are medians over the repetitions that passed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones
(tracer.py) plus the tracing overhead, traced wall_s / untraced wall_s.

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CACHE = HERE / ".cache"
REFERENCE = HERE / "reference"

# every run must end within this many seconds of its start
RUN_DEADLINE_S = 170.0
# sha256 of the default-seed file_joint channel file, recorded with the references
FILE_SHA256 = REFERENCE / "file_joint.dmct.sha256"

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def machine_facts() -> dict:
    """Facts that let a disturbed or unusual run be spotted in its report."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(ROOT),
        "loadavg_start": list(os.getloadavg()),
    }


def git_commit(root: Path):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def file_cache_key() -> str:
    """Hash of what the file_joint channel file is made from.

    Covers the scene, the shape and every source file of the dmimo package,
    so a change to the scene or to the synthesis code makes a new cache entry
    instead of reusing a file an older commit built.
    """
    digest = hashlib.sha256(json.dumps([workloads.FILE_SCENE, workloads.FILE_DIMS]).encode())
    for path in sorted((SRC / "dmimo").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def channel_file(seed: int) -> Path:
    """The file_joint channel file for `seed`, made by `dmimo synth` and cached.

    The file's size is checked against `dmimo.chanfile.expected_file_size`.
    At the default seed its sha256 must also match the recorded one; any
    mismatch raises RuntimeError.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dmimo.cli
    from dmimo.chanfile import expected_file_size

    t, l, k, m = workloads.FILE_DIMS
    entry = CACHE / f"mixed-seed{seed}-T{t}L{l}K{k}M{m}-{file_cache_key()}"
    path = entry / "channel.dmct"
    if not path.exists():
        partial = entry.with_name(entry.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        synth_config = partial / "synth.json"
        synth_config.write_text(json.dumps({"scene": workloads.FILE_SCENE, "num_users": k}))
        with contextlib.redirect_stdout(io.StringIO()):
            code = dmimo.cli.main(["synth", "--config", str(synth_config), "--out", str(partial), "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"dmimo synth exited with {code}")
        partial.replace(entry)
    expected = expected_file_size(workloads.FILE_DIMS)
    if path.stat().st_size != expected:
        raise RuntimeError(f"{path} has {path.stat().st_size} bytes, expected {expected}")
    if seed == workloads.DEFAULT_SEED and FILE_SHA256.exists():
        recorded = FILE_SHA256.read_text().split()[0]
        if file_sha256(path) != recorded:
            raise RuntimeError(f"{path} differs from the file recorded in {FILE_SHA256.name}")
    return path


def spawn(config_path: Path, rep_dir: Path, traced: bool, timeout: float):
    """Run rep.py in a fresh process: returns (rep.json record or None, problem or None)."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--src", str(SRC), "--config", str(config_path), "--out", str(rep_dir),
    ]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"repetition exited with {proc.returncode}: {tail}"
    return json.loads((rep_dir / "rep.json").read_text()), None


def score_rep(rep_dir: Path, config: dict, record: dict, reference) -> list:
    """Problems with a finished repetition's outputs; an empty list passes."""
    problems = gate.check(config, rep_dir / "results.csv", rep_dir / "aggregates.json")
    if record["cdf_exit_code"] != 0:
        problems.append(f"dmimo cdf exited with {record['cdf_exit_code']}")
    if reference is not None:
        text = (rep_dir / "results.csv").read_text()
        problems += gate.compare_reference(text, reference)
        record["csv_identical"] = text == reference
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "dmimo" / "__init__.py").is_file():
        print(f"error: no dmimo package under {SRC}; run from a dmimo checkout", file=sys.stderr)
        return 2

    facts = machine_facts()
    try:
        file_path = channel_file(args.seed) if workloads.needs_file(args.workload) else None
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    config = workloads.make_config(args.workload, args.seed, file_path)
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    reference = None
    ref_path = REFERENCE / f"{args.workload}.csv.gz"
    if args.seed == workloads.DEFAULT_SEED and ref_path.exists():
        reference = gate.read_reference(ref_path)

    deadline = start + RUN_DEADLINE_S
    problems_seen = []
    measure_from = time.perf_counter()
    passed = {False: [], True: []}  # traced? -> records
    attempted = failed = 0
    durations = []
    while True:
        now = time.perf_counter()
        typical = statistics.median(durations) if durations else 0.0
        enough = attempted >= (2 if args.trace else 1)
        if enough and (now - measure_from + typical > args.seconds or now + typical > deadline):
            break
        traced = bool(args.trace) and attempted % 2 == 1
        rep_dir = run_dir / "rep"
        record, problem = spawn(config_path, rep_dir, traced, deadline - now)
        problems = [problem] if record is None else score_rep(rep_dir, config, record, reference)
        durations.append(time.perf_counter() - now)
        attempted += 1
        if problems:
            failed += 1
            problems_seen.extend(problems[:3])
        else:
            passed[traced].append(record)

    facts["loadavg_end"] = list(os.getloadavg())
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} trials={config['trials']} trace={args.trace}")
    for problem in problems_seen[:10]:
        print(f"FAILED: {problem}")
    if reference is not None:
        identical = [r["csv_identical"] for r in passed[False] + passed[True]]
        print(f"reference: rows match; results.csv byte-identical in {sum(identical)}/{len(identical)} passing repetitions")
    print(f"repetitions: {attempted} attempted, {failed} failed")
    print(f"  {'error_ratio':<14} {failed / attempted:.6g} ratio  (failed / attempted)")

    plain = passed[False]
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END:
            if name == "trials_per_s":
                values = [r["tasks"] / r["run_s"] for r in plain]
            else:
                values = [r[name] for r in plain]
            if values:
                median = statistics.median(values)
                metrics[name] = {"value": median, "unit": unit}
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
                print(f"  {name:<14} median {median:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    else:
        traced = passed[True]
        units = {name: unit for name, unit, _, _, _ in tracer.LAYER_METRICS}
        medians = tracer.median_metrics([r["layers"] for r in traced])
        for name, _, _, _, _ in tracer.LAYER_METRICS:
            if name in medians:
                metrics[name] = {"value": medians[name], "unit": units[name]}
                print(f"  {name:<28} {medians[name]:.6g} {units[name]}")
        if plain and traced:
            name, unit, _ = tracer.OVERHEAD_METRIC
            overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain)
            metrics[name] = {"value": overhead, "unit": unit}
            print(f"  {name:<28} {overhead:.6g} {unit}  ({len(traced)} traced, {len(plain)} untraced)")
        missing = sorted({t for r in traced for t in r["missing_targets"]})
        if missing:
            print("absent (not in the library): " + ", ".join(missing))
        gaps = [abs(sum(r["run_breakdown"]["layers"].values()) - r["run_breakdown"]["total_s"]) for r in traced]
        if gaps:
            print(f"self times under harness.run sum to harness.run_s within {max(gaps):.3g} s")

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
