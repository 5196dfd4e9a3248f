"""Experiment config schema: parsing, validation, round trips."""

import json

import numpy as np
import pytest

from dmimo import (
    ConfigError,
    ExperimentConfig,
    FileSource,
    SceneSource,
    config_from_dict,
    config_to_dict,
    default_scene,
    load_config,
    scene_from_dict,
    scene_to_dict,
)
from dmimo.config import source_to_dict


def base_dict(**overrides):
    obj = {
        "version": 1,
        "source": {"type": "scene", "scene": "los"},
        "sweeps": {
            "m_values": [16, 32],
            "n_values": [1, 4],
            "rho_db_values": [0.0, 15.0],
            "k_values": [4],
        },
        "trials": 10,
        "seed": 7,
        "metrics": ["svs", "zf"],
        "allocation_mode": "per_tl",
    }
    obj.update(overrides)
    return obj


class TestParsing:
    def test_full_parse(self):
        cfg = config_from_dict(base_dict())
        assert isinstance(cfg.source, SceneSource)
        assert cfg.m_values == (16, 32)
        assert cfg.n_values == (1, 4)
        assert cfg.rho_db_values == (0.0, 15.0)
        assert cfg.k_values == (4,)
        assert cfg.trials == 10
        assert cfg.seed == 7
        assert cfg.metrics == ("svs", "zf")
        assert cfg.allocation_mode == "per_tl"

    def test_scene_tag_uses_builtin_scene(self):
        cfg = config_from_dict(base_dict())
        assert cfg.source.scene == default_scene("los")
        assert cfg.source.min_spacing_m == 0.1
        assert cfg.source.max_spacing_m == 5.0

    def test_explicit_scene_object(self):
        scene_obj = {
            "ap_positions": [[0.0, 0.0, 2.0], [3.0, 0.0, 2.0]],
            "antennas_per_ap": 16,
            "region": {"origin": [0.0, 0.0, 0.8], "width": 3.0, "depth": 3.0},
            "condition_per_ap": ["los", "nlos"],
            "rice_k_db": 6.0,
            "num_scatterers": 10,
            "angular_spread_deg": 45.0,
            "carrier_hz": 3.5e9,
            "bandwidth_hz": 100e6,
        }
        src = {"type": "scene", "scene": scene_obj, "min_spacing_m": 0.2, "max_spacing_m": 2.0}
        cfg = config_from_dict(base_dict(source=src))
        assert cfg.source.scene.num_aps == 2
        assert cfg.source.scene.condition_per_ap == ("los", "nlos")
        assert cfg.source.min_spacing_m == 0.2

    def test_file_source(self):
        cfg = config_from_dict(base_dict(source={"type": "file", "path": "ch.dmct"}))
        assert isinstance(cfg.source, FileSource)
        assert cfg.source.path == "ch.dmct"

    def test_defaults(self):
        obj = base_dict()
        del obj["metrics"], obj["allocation_mode"], obj["version"]
        cfg = config_from_dict(obj)
        assert cfg.metrics == ("svs", "dpc", "zf", "fairness")
        assert cfg.allocation_mode == "per_tl"

    def test_metrics_canonical_order(self):
        cfg = config_from_dict(base_dict(metrics=["zf", "svs"]))
        assert cfg.metrics == ("svs", "zf")

    def test_round_trip_stable(self):
        cfg = config_from_dict(base_dict())
        d1 = config_to_dict(cfg)
        d2 = config_to_dict(config_from_dict(d1))
        assert d1 == d2
        for tag in ("los", "nlos", "mixed"):
            scene = default_scene(tag)
            assert scene_from_dict(scene_to_dict(scene)) == scene


class TestValidation:
    def test_unknown_and_missing_keys(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(extra=1))
        with pytest.raises(ConfigError, match="^config must be an object$"):
            config_from_dict([base_dict()])
        with pytest.raises(ConfigError, match="^sweeps must be an object$"):
            config_from_dict(base_dict(sweeps=[16, 32]))
        obj = base_dict()
        del obj["sweeps"]
        with pytest.raises(ConfigError):
            config_from_dict(obj)
        obj = base_dict()
        del obj["sweeps"]["k_values"]
        with pytest.raises(ConfigError):
            config_from_dict(obj)
        obj = base_dict()
        obj["sweeps"]["extra_axis"] = [1]
        with pytest.raises(ConfigError):
            config_from_dict(obj)

    def test_bad_version(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(version=2))
        for version in (True, 1.0, "1"):
            with pytest.raises(ConfigError, match="version must be an integer"):
                config_from_dict(base_dict(version=version))

    def test_bad_source(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(source={"type": "url", "path": "x"}))
        with pytest.raises(ConfigError, match="^source must be an object$"):
            config_from_dict(base_dict(source="scene"))
        with pytest.raises(ConfigError, match="^scene must be a tag string or an object$"):
            config_from_dict(base_dict(source={"type": "scene", "scene": 5}))
        scene = scene_to_dict(default_scene("los"))
        scene["region"] = [0.0, 0.0, 0.8]
        with pytest.raises(ConfigError, match=r"^scene\.region must be an object$"):
            config_from_dict(base_dict(source={"type": "scene", "scene": scene}))
        with pytest.raises(ConfigError, match="^scene must be a Scene$"):
            SceneSource(scene="los")
        with pytest.raises(ConfigError, match="^source must be a SceneSource or FileSource$"):
            ExperimentConfig(
                source=3, m_values=(16,), n_values=(1,), rho_db_values=(0.0,), k_values=(4,),
                trials=1, seed=0,
            )
        with pytest.raises(ConfigError, match="^source must be a SceneSource or FileSource$"):
            source_to_dict(3)
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(source={"type": "scene", "scene": "fog"}))
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(source={"type": "file", "path": ""}))

    def test_file_source_path_must_be_a_path(self, tmp_path):
        # str() would turn these into the file names 'None' and "b'x'"
        with pytest.raises(ConfigError, match=r"^source\.path must be a string, got None$"):
            config_from_dict(base_dict(source={"type": "file", "path": None}))
        for path in (b"x", 3):
            with pytest.raises(ConfigError, match=rf"^path must be a string, got {path!r}$"):
                FileSource(path=path)
        assert FileSource(path=tmp_path / "ch.dmct").path == str(tmp_path / "ch.dmct")

    def test_bad_sweeps(self):
        for patch in (
            {"m_values": []},
            {"m_values": [16, 16]},
            {"m_values": [0]},
            {"n_values": [-1]},
            {"rho_db_values": [float("inf")]},
            {"rho_db_values": [0.0, 0.0]},
            {"k_values": list(range(1, 300))},
            {"m_values": 16},
            {"rho_db_values": None},
        ):
            obj = base_dict()
            obj["sweeps"].update(patch)
            with pytest.raises(ConfigError):
                config_from_dict(obj)

    def test_bad_scalars(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(trials=0))
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(seed=-2))
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(metrics=["svs", "latency"]))
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(metrics=[]))
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(metrics=["svs", "svs"]))
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(allocation_mode="greedy"))
        for metrics in (5, None, True):
            with pytest.raises(ConfigError, match="metrics must be a list"):
                config_from_dict(base_dict(metrics=metrics))

    def test_replace(self):
        cfg = config_from_dict(base_dict())
        other = cfg.replace(trials=99)
        assert other.trials == 99
        assert other.m_values == cfg.m_values
        assert cfg.trials == 10
        with pytest.raises(ConfigError):
            cfg.replace(seed=1.5)

    def test_numpy_numbers_accepted(self):
        obj = base_dict(trials=np.int64(3), seed=np.uint64(2**63))
        obj["sweeps"]["m_values"] = [np.int32(16)]
        obj["sweeps"]["rho_db_values"] = [np.float32(1.5), 0]
        cfg = config_from_dict(obj)
        assert (cfg.trials, cfg.seed, cfg.m_values) == (3, 2**63, (16,))
        assert cfg.rho_db_values == (1.5, 0.0)
        assert all(type(v) is float for v in cfg.rho_db_values)
        assert type(cfg.trials) is int and type(cfg.seed) is int


class TestLoadConfig:
    def test_loads_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(base_dict()))
        cfg = load_config(path)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.trials == 10

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"trials": "\xff"}')
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(path)
