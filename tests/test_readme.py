"""README examples stay valid: its config blocks parse and its quick start runs."""

import json
import re
from pathlib import Path

import dmimo
from dmimo import config_from_dict, default_scene
from dmimo.config import SynthConfig, _from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), flags=re.S)


def json_block(marker):
    (obj,) = [json.loads(b) for b in blocks("json") if marker in b]
    return obj


def test_experiment_config_block_parses():
    cfg = config_from_dict(json_block('"sweeps"'))
    assert cfg.m_values == (16, 64, 128)
    assert cfg.source.min_spacing_m == 0.1


def test_synth_config_block_parses():
    cfg = _from_dict(SynthConfig, json_block('"num_users"'), "synth config")
    assert (cfg.num_users, cfg.seed) == (12, 7)
    assert cfg.scene == default_scene("los")


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    first, sweep = blocks("python")[:2]
    exec(compile(first, "README quick start", "exec"), {})
    assert "DPC  [bit/s/Hz]:" in capsys.readouterr().out

    # the sweep block runs as written, with its trial count cut to keep it quick
    run = dmimo.run_experiment
    monkeypatch.setattr(
        dmimo, "run_experiment", lambda cfg, workers=None: run(cfg.replace(trials=2), workers)
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(sweep, "README sweep", "exec"), {})
    payload = json.loads((tmp_path / "aggregates.json").read_text())
    assert payload["config"]["trials"] == 2
    assert (tmp_path / "results.csv").exists()

