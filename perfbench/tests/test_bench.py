"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import tracer
import workloads


def benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# T x L of each workload's channel tensors
SLICES_PER_TENSOR = {"paper_sweep": 1, "wideband": 4 * 16, "file_joint": 2 * 32}


def one_trial(monkeypatch, workload):
    """Shrink `workload` to one trial per repetition for this test."""
    monkeypatch.setitem(workloads.WORKLOADS, workload, (1, workloads.WORKLOADS[workload][1]))


def run_in_process(capsys, *args):
    """Call run.main; returns (exit code, stdout, last stdout line as JSON)."""
    code = run.main(list(args))
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    one_trial(monkeypatch, workload)
    code, out, result = run_in_process(
        capsys, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
    assert "machine: " in out and "error_ratio    0 ratio" in out
    if trace:
        assert "self times under harness.run sum to harness.run_s within 0 s" in out
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["metrics.slices"] == metrics["metrics.dpc.calls"] * SLICES_PER_TENSOR[workload]


def test_benchmark_json_matches_the_code():
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    expected = [spec[:3] for spec in tracer.LAYER_METRICS] + [tracer.OVERHEAD_METRIC]
    assert per_layer == expected


def corrupt_one_zf_row(csv_path):
    """Raise one non-degenerate ZF value above its DPC row."""
    lines = csv_path.read_text().splitlines()
    dpc = {}
    for line in lines[1:]:
        trial, m, n, k, rho, metric, value, flag = line.split(",")
        if metric == "dpc" and flag == "0":
            dpc[(trial, m, n, k, rho)] = float(value)
    for i, line in enumerate(lines[1:], start=1):
        trial, m, n, k, rho, metric, value, flag = line.split(",")
        key = (trial, m, n, k, rho)
        if metric == "zf" and flag == "0" and key in dpc:
            lines[i] = ",".join([*key, "zf", repr(dpc[key] + 0.5), "0"])
            break
    else:
        raise AssertionError("no ZF row to corrupt")
    csv_path.write_text("\n".join(lines) + "\n")


def test_gate_counts_a_repetition_with_zf_above_dpc_as_failed(monkeypatch, capsys):
    real_spawn = run.spawn

    def spawn_then_corrupt(config_path, rep_dir, traced, timeout):
        record, problem = real_spawn(config_path, rep_dir, traced, timeout)
        corrupt_one_zf_row(rep_dir / "results.csv")
        return record, problem

    one_trial(monkeypatch, "paper_sweep")
    monkeypatch.setattr(run, "spawn", spawn_then_corrupt)
    _, out, result = run_in_process(capsys, "--workload", "paper_sweep", "--seed", "5", "--seconds", "1")
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "FAILED: dpc=" in out


def test_gate_passes_untouched_outputs_and_rejects_a_missing_row(tmp_path, monkeypatch):
    one_trial(monkeypatch, "paper_sweep")
    config = workloads.make_config("paper_sweep", 5)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    record, problem = run.spawn(config_path, tmp_path / "rep", False, 120)
    assert problem is None
    results, aggregates = tmp_path / "rep" / "results.csv", tmp_path / "rep" / "aggregates.json"
    assert gate.check(config, results, aggregates) == []
    text = results.read_text()
    assert gate.compare_reference(text, text) == []
    results.write_text("".join(text.splitlines(keepends=True)[:-1]))
    assert any("rows, expected" in p for p in gate.check(config, results, aggregates))


def test_reference_tolerances_apply_per_metric():
    head = gate.HEADER + "\n"
    ref = head + "0,16,4,12,0.0,dpc,10.0,0\n0,16,4,12,0.0,fairness,12.0,0\n"
    near = head + "0,16,4,12,0.0,dpc,10.000001,0\n0,16,4,12,0.0,fairness,12.0,0\n"
    far = head + "0,16,4,12,0.0,dpc,10.0001,0\n0,16,4,12,0.0,fairness,11.0,0\n"
    assert gate.compare_reference(near, ref) == []
    assert len(gate.compare_reference(far, ref)) == 2


def test_default_seed_channel_file_must_match_its_recorded_hash(tmp_path, monkeypatch):
    path = run.channel_file(workloads.DEFAULT_SEED)
    assert run.file_sha256(path) == run.FILE_SHA256.read_text().split()[0]
    wrong = tmp_path / "file_joint.dmct.sha256"
    wrong.write_text("0" * 64 + "  channel.dmct\n")
    monkeypatch.setattr(run, "FILE_SHA256", wrong)
    with pytest.raises(RuntimeError, match="differs from the file recorded"):
        run.channel_file(workloads.DEFAULT_SEED)


def test_channel_file_cache_key_follows_the_scene(monkeypatch):
    key = run.file_cache_key()
    monkeypatch.setitem(workloads.FILE_SCENE, "rice_k_db", workloads.FILE_SCENE["rice_k_db"] + 1.0)
    assert run.file_cache_key() != key


def test_missing_library_name_reads_as_absent(tmp_path):
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import dmimo, tracer\n"
        "tracer.TARGETS += (('metrics.svs', 'dmimo.metrics', 'no_such_function', None),)\n"
        "tracer.TARGETS = tuple(t for t in tracer.TARGETS if t[0] != 'metrics.dpc')\n"
        "t = tracer.Tracer(); t.install()\n"
        "dmimo.svs(dmimo.gen_iid_rayleigh((1, 1, 2, 4), dmimo.RngHandle(1)).data[0, 0])\n"
        "m = t.layer_metrics()\n"
        "assert t.missing == ['dmimo.metrics.no_such_function'], t.missing\n"
        "assert m['metrics.svs.calls'] == 1 and m['tensor.svd.calls'] == 1\n"
        "assert 'metrics.dpc_s' not in m and 'metrics.dpc.iterations' not in m\n"
    ) % (str(run.SRC), str(run.HERE))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", ".cache", "__pycache__"))
    proc = bench("--workload", "paper_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
