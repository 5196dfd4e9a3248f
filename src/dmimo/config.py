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

The dataclasses define the schema. The keys of a scene, region or source
object are the fields of Scene, Region, SceneSource or FileSource, a field
without a default is required, and a field annotated int or float (or a
tuple of them, such as a coordinate triple) goes through check_number. Every
default lives once, on its dataclass, and the JSON form written back is
dataclasses.asdict of the same object.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .metrics import ALLOCATION_MODES
from .synth import Region, Scene, default_scene

CONFIG_VERSION = 1

METRIC_NAMES = ("svs", "dpc", "zf", "fairness")

SWEEP_AXES = ("m_values", "n_values", "rho_db_values", "k_values")

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


def _as_tuple(values, name: str) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise ConfigError(f"{name} must be a list") from None


def _sweep_axis(name: str, values) -> tuple:
    """One sweep axis as a tuple: 1 to _MAX_SWEEP distinct entries, integers
    >= 1, or finite numbers for rho_db_values."""
    kind = float if name == "rho_db_values" else int
    values = tuple(
        check_number(v, f"sweeps.{name} entry", kind) for v in _as_tuple(values, f"sweeps.{name}")
    )
    if len(values) < 1:
        raise ConfigError(f"sweeps.{name} must be non-empty")
    if len(values) > _MAX_SWEEP:
        raise ConfigError(f"sweeps.{name} holds more than {_MAX_SWEEP} values")
    if kind is int and any(v < 1 for v in values):
        raise ConfigError(f"sweeps.{name} entries must be >= 1")
    if kind is float and any(not math.isfinite(v) for v in values):
        raise ConfigError(f"sweeps.{name} entries must be finite")
    if len(set(values)) != len(values):
        raise ConfigError(f"sweeps.{name} entries must be distinct")
    return values


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

        for axis in SWEEP_AXES:
            object.__setattr__(self, axis, _sweep_axis(axis, getattr(self, axis)))

        trials = check_number(self.trials, "trials", int)
        if not 1 <= trials < _MAX_TRIALS:
            raise ConfigError(f"trials must be in [1, {_MAX_TRIALS})")
        seed = check_number(self.seed, "seed", int)
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")

        metrics = tuple(str(v) for v in _as_tuple(self.metrics, "metrics"))
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

        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "metrics", metrics)

    def replace(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)


def _checked(value, hint, name: str):
    """`value` with every number its type hint `hint` names passed through
    check_number; a nested dataclass is built from its own JSON object, and
    a Scene may also be a tag."""
    if hint is Scene:
        return scene_from_dict(value)
    if dataclasses.is_dataclass(hint):
        return _from_dict(hint, value, name)
    if hint in (int, float):
        return check_number(value, name, hint)
    if typing.get_origin(hint) is tuple and isinstance(value, (list, tuple)):
        # schema tuples hold one kind of item: coordinates, or triples of them
        item = typing.get_args(hint)[0]
        return tuple(_checked(v, item, f"{name}[{i}]") for i, v in enumerate(value))
    return value


def _from_dict(cls, obj, where: str):
    """Build dataclass `cls` from its JSON object: the keys are its fields,
    the ones without a default are required, and each value is checked
    against its field's type."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    fields = dataclasses.fields(cls)
    _require_keys(
        obj,
        [f.name for f in fields],
        [f.name for f in fields if f.default is dataclasses.MISSING],
        where,
    )
    hints = typing.get_type_hints(cls)
    return cls(**{key: _checked(value, hints[key], f"{where}.{key}") for key, value in obj.items()})


def scene_from_dict(obj) -> Scene:
    """Build a Scene from its JSON form, or from a tag string."""
    if isinstance(obj, str):
        try:
            return default_scene(obj)
        except Exception as exc:
            raise ConfigError(f"unknown scene tag {obj!r}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("scene must be a tag string or an object")
    try:
        return _from_dict(Scene, obj, "scene")
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid scene: {exc}") from exc


def scene_to_dict(scene: Scene) -> dict:
    return dataclasses.asdict(scene)


_SOURCE_TYPES = {"scene": SceneSource, "file": FileSource}


def source_from_dict(obj) -> object:
    if not isinstance(obj, dict):
        raise ConfigError("source must be an object")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _SOURCE_TYPES:
        raise ConfigError("source.type must be 'scene' or 'file'")
    fields = {key: value for key, value in obj.items() if key != "type"}
    return _from_dict(_SOURCE_TYPES[kind], fields, "source")


def source_to_dict(source) -> dict:
    for kind, cls in _SOURCE_TYPES.items():
        if isinstance(source, cls):
            return {"type": kind, **dataclasses.asdict(source)}
    raise ConfigError("source must be a SceneSource or FileSource")


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be an object")
    _require_keys(
        obj,
        ("version", "source", "sweeps", "trials", "seed", "metrics", "allocation_mode"),
        ("source", "sweeps", "trials", "seed"),
        "config",
    )
    version = check_number(obj.get("version", CONFIG_VERSION), "version", int)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {version}, expected {CONFIG_VERSION}"
        )
    sweeps = obj["sweeps"]
    if not isinstance(sweeps, dict):
        raise ConfigError("sweeps must be an object")
    _require_keys(sweeps, SWEEP_AXES, SWEEP_AXES, "sweeps")
    fields = {key: value for key, value in obj.items() if key not in ("version", "sweeps")}
    fields["source"] = source_from_dict(obj["source"])
    return ExperimentConfig(**fields, **sweeps)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "version": CONFIG_VERSION,
        "source": source_to_dict(cfg.source),
        "sweeps": {axis: list(getattr(cfg, axis)) for axis in SWEEP_AXES},
        "trials": cfg.trials,
        "seed": cfg.seed,
        "metrics": list(cfg.metrics),
        "allocation_mode": cfg.allocation_mode,
    }


def read_json(path):
    """Parse the JSON file at `path`; a file that cannot be read or parsed
    raises ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    return config_from_dict(read_json(path))
