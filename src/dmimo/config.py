"""Experiment configuration: JSON schema (version 1) and validation.

A config names a channel source (a synthetic scene or a channel file), the
sweep grids (antenna count M, AP count N, SNR rho_db, user count K), the
Monte-Carlo trial count, the seed, the metric set, and the allocation mode.

Schema:

    {
      "version": 1,
      "source": {"type": "scene", "scene": "los" | {...}, "min_spacing_m": 0.1,
                 "max_spacing_m": 5.0}
              | {"type": "file", "path": "channel.dmct"},
      "sweeps": {"m_values": [...], "n_values": [...],
                 "rho_db_values": [...], "k_values": [...]},
      "trials": 500,
      "seed": 1,
      "metrics": ["svs", "dpc", "zf", "fairness"],
      "allocation_mode": "per_tl" | "joint"
    }

"scene" is either a tag handled by default_scene ("los", "nlos", "mixed") or
a full scene object with the Scene fields spelled out (region as
{"origin": [x, y, z], "width": w, "depth": d}).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .metrics import ALLOCATION_MODES
from .synth import Region, Scene, default_scene

CONFIG_VERSION = 1

METRIC_NAMES = ("svs", "dpc", "zf", "fairness")

# stream-id packing in the harness caps the per-axis sweep sizes
_MAX_SWEEP = 256
_MAX_TRIALS = 2**32


def check_number(value, name: str, kind=float):
    """A Python or numpy number as `kind`: an integer for int, any real but NaN
    for float. Anything else, booleans included, raises a ConfigError naming `name`."""
    accepted = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, accepted) or value != value:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    return kind(value)


def _require_keys(obj: dict, allowed, required, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")


@dataclass(frozen=True)
class SceneSource:
    """Synthetic source: a scene plus user-placement spacing bounds."""

    scene: Scene
    min_spacing_m: float = 0.1
    max_spacing_m: float = 5.0

    def __post_init__(self):
        if not isinstance(self.scene, Scene):
            raise ConfigError("source.scene must be a Scene")
        min_s = check_number(self.min_spacing_m, "source.min_spacing_m")
        max_s = check_number(self.max_spacing_m, "source.max_spacing_m")
        if min_s < 0 or not max_s > 0 or min_s > max_s:
            raise ConfigError(
                "source spacing must satisfy 0 <= min_spacing_m <= max_spacing_m"
            )
        object.__setattr__(self, "min_spacing_m", min_s)
        object.__setattr__(self, "max_spacing_m", max_s)


@dataclass(frozen=True)
class FileSource:
    """Channel-file source: tensors load from `path` once per run."""

    path: str

    def __post_init__(self):
        if not str(self.path):
            raise ConfigError("source.path must be a non-empty path")
        object.__setattr__(self, "path", str(self.path))


@dataclass(frozen=True)
class ExperimentConfig:
    source: object
    m_values: tuple
    n_values: tuple
    rho_db_values: tuple
    k_values: tuple
    trials: int
    seed: int
    metrics: tuple = METRIC_NAMES
    allocation_mode: str = "per_tl"

    def __post_init__(self):
        if not isinstance(self.source, (SceneSource, FileSource)):
            raise ConfigError("source must be a SceneSource or FileSource")

        def int_axis(name, values, minimum=1):
            values = tuple(check_number(v, f"sweeps.{name} entry", int) for v in values)
            if len(values) < 1:
                raise ConfigError(f"sweeps.{name} must be non-empty")
            if len(values) > _MAX_SWEEP:
                raise ConfigError(f"sweeps.{name} holds more than {_MAX_SWEEP} values")
            if any(v < minimum for v in values):
                raise ConfigError(f"sweeps.{name} entries must be >= {minimum}")
            if len(set(values)) != len(values):
                raise ConfigError(f"sweeps.{name} entries must be distinct")
            return values

        m_values = int_axis("m_values", self.m_values)
        n_values = int_axis("n_values", self.n_values)
        k_values = int_axis("k_values", self.k_values)
        rho = tuple(check_number(v, "sweeps.rho_db_values entry") for v in self.rho_db_values)
        if len(rho) < 1:
            raise ConfigError("sweeps.rho_db_values must be non-empty")
        if len(rho) > _MAX_SWEEP:
            raise ConfigError(f"sweeps.rho_db_values holds more than {_MAX_SWEEP} values")
        if any(not math.isfinite(v) for v in rho):
            raise ConfigError("sweeps.rho_db_values entries must be finite")
        if len(set(rho)) != len(rho):
            raise ConfigError("sweeps.rho_db_values entries must be distinct")

        trials = check_number(self.trials, "trials", int)
        if not 1 <= trials < _MAX_TRIALS:
            raise ConfigError(f"trials must be in [1, {_MAX_TRIALS})")
        seed = check_number(self.seed, "seed", int)
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")

        metrics = tuple(str(v) for v in self.metrics)
        if len(metrics) < 1:
            raise ConfigError("metrics must be non-empty")
        bad = sorted(set(metrics) - set(METRIC_NAMES))
        if bad:
            raise ConfigError(f"unknown metric(s) {bad}; valid: {list(METRIC_NAMES)}")
        if len(set(metrics)) != len(metrics):
            raise ConfigError("metrics entries must be distinct")
        # canonical order keeps result rows deterministic
        metrics = tuple(name for name in METRIC_NAMES if name in metrics)

        if self.allocation_mode not in ALLOCATION_MODES:
            raise ConfigError(
                f"allocation_mode must be one of {list(ALLOCATION_MODES)}"
            )

        object.__setattr__(self, "m_values", m_values)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "rho_db_values", rho)
        object.__setattr__(self, "k_values", k_values)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "metrics", metrics)

    def replace(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)


def scene_from_dict(obj) -> Scene:
    """Build a Scene from its JSON form, or from a tag string."""
    if isinstance(obj, str):
        try:
            return default_scene(obj)
        except Exception as exc:
            raise ConfigError(f"unknown scene tag {obj!r}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("scene must be a tag string or an object")
    allowed = {
        "ap_positions",
        "antennas_per_ap",
        "region",
        "condition_per_ap",
        "rice_k_db",
        "num_scatterers",
        "angular_spread_deg",
        "carrier_hz",
        "bandwidth_hz",
        "num_subcarriers",
        "num_snapshots",
    }
    required = allowed - {"num_subcarriers", "num_snapshots"}
    _require_keys(obj, allowed, required, "scene")
    region = obj["region"]
    if not isinstance(region, dict):
        raise ConfigError("scene.region must be an object")
    _require_keys(region, ("origin", "width", "depth"), ("origin", "width", "depth"), "scene.region")
    try:
        return Scene(
            ap_positions=tuple(tuple(p) for p in obj["ap_positions"]),
            antennas_per_ap=obj["antennas_per_ap"],
            region=Region(
                origin=tuple(region["origin"]),
                width=region["width"],
                depth=region["depth"],
            ),
            condition_per_ap=tuple(obj["condition_per_ap"]),
            rice_k_db=obj["rice_k_db"],
            num_scatterers=obj["num_scatterers"],
            angular_spread_deg=obj["angular_spread_deg"],
            carrier_hz=obj["carrier_hz"],
            bandwidth_hz=obj["bandwidth_hz"],
            num_subcarriers=obj.get("num_subcarriers", 1),
            num_snapshots=obj.get("num_snapshots", 1),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid scene: {exc}") from exc


def scene_to_dict(scene: Scene) -> dict:
    return {
        "ap_positions": [list(p) for p in scene.ap_positions],
        "antennas_per_ap": scene.antennas_per_ap,
        "region": {
            "origin": list(scene.region.origin),
            "width": scene.region.width,
            "depth": scene.region.depth,
        },
        "condition_per_ap": list(scene.condition_per_ap),
        "rice_k_db": scene.rice_k_db,
        "num_scatterers": scene.num_scatterers,
        "angular_spread_deg": scene.angular_spread_deg,
        "carrier_hz": scene.carrier_hz,
        "bandwidth_hz": scene.bandwidth_hz,
        "num_subcarriers": scene.num_subcarriers,
        "num_snapshots": scene.num_snapshots,
    }


def source_from_dict(obj) -> object:
    if not isinstance(obj, dict):
        raise ConfigError("source must be an object")
    kind = obj.get("type")
    if kind == "scene":
        _require_keys(
            obj,
            ("type", "scene", "min_spacing_m", "max_spacing_m"),
            ("type", "scene"),
            "source",
        )
        return SceneSource(
            scene=scene_from_dict(obj["scene"]),
            min_spacing_m=obj.get("min_spacing_m", 0.1),
            max_spacing_m=obj.get("max_spacing_m", 5.0),
        )
    if kind == "file":
        _require_keys(obj, ("type", "path"), ("type", "path"), "source")
        return FileSource(path=obj["path"])
    raise ConfigError("source.type must be 'scene' or 'file'")


def source_to_dict(source) -> dict:
    if isinstance(source, SceneSource):
        return {
            "type": "scene",
            "scene": scene_to_dict(source.scene),
            "min_spacing_m": source.min_spacing_m,
            "max_spacing_m": source.max_spacing_m,
        }
    if isinstance(source, FileSource):
        return {"type": "file", "path": source.path}
    raise ConfigError("source must be a SceneSource or FileSource")


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be an object")
    allowed = (
        "version",
        "source",
        "sweeps",
        "trials",
        "seed",
        "metrics",
        "allocation_mode",
    )
    _require_keys(obj, allowed, ("source", "sweeps", "trials", "seed"), "config")
    version = obj.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {version}, expected {CONFIG_VERSION}"
        )
    sweeps = obj["sweeps"]
    if not isinstance(sweeps, dict):
        raise ConfigError("sweeps must be an object")
    axes = ("m_values", "n_values", "rho_db_values", "k_values")
    _require_keys(sweeps, axes, axes, "sweeps")
    return ExperimentConfig(
        source=source_from_dict(obj["source"]),
        m_values=tuple(sweeps["m_values"]),
        n_values=tuple(sweeps["n_values"]),
        rho_db_values=tuple(sweeps["rho_db_values"]),
        k_values=tuple(sweeps["k_values"]),
        trials=obj["trials"],
        seed=obj["seed"],
        metrics=tuple(obj.get("metrics", METRIC_NAMES)),
        allocation_mode=obj.get("allocation_mode", "per_tl"),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "version": CONFIG_VERSION,
        "source": source_to_dict(cfg.source),
        "sweeps": {
            "m_values": list(cfg.m_values),
            "n_values": list(cfg.n_values),
            "rho_db_values": list(cfg.rho_db_values),
            "k_values": list(cfg.k_values),
        },
        "trials": cfg.trials,
        "seed": cfg.seed,
        "metrics": list(cfg.metrics),
        "allocation_mode": cfg.allocation_mode,
    }


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(obj)
