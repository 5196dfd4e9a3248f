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

The dataclasses define the schema, and the records own their checks. The
keys of a scene, region or source object are the fields of Scene, Region,
SceneSource or FileSource, and a field without a default is required. This
module only maps JSON to records: it checks the keys, builds nested records
(a scene may also be a tag), and prefixes the JSON path to the error a
record's constructor raises, as in `scene.region.origin[2] must be a number,
got True`. Every default lives once, on its dataclass, and the JSON form
written back is dataclasses.asdict of the same object.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, InvalidInputError, check_fields, check_number
from .metrics import ALLOCATION_MODES, SnrSpec
from .synth import Scene, check_spacing, default_scene

CONFIG_VERSION = 1

METRIC_NAMES = ("svs", "dpc", "zf", "fairness")

SWEEP_AXES = ("m_values", "n_values", "rho_db_values", "k_values")

# stream ids in the harness pack the K, M and N indices, which caps those axes
_MAX_SWEEP = 256
_MAX_TRIALS = 2**32


def _require_keys(obj: dict, allowed, required, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")


def _as_tuple(values, name: str) -> tuple:
    # a string or an object iterates as its characters or keys, not a list's items
    if isinstance(values, (str, bytes, dict)):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    try:
        return tuple(values)
    except TypeError:
        raise ConfigError(f"{name} must be a list") from None


def _rho_db(value, index: int) -> float:
    """A rho_db_values entry as the dB value SnrSpec accepts."""
    try:
        return SnrSpec(value).rho_db
    except InvalidInputError as exc:
        raise ConfigError(f"sweeps.rho_db_values[{index}]: {exc}") from exc


def _sweep_axis(name: str, values) -> tuple:
    """One sweep axis as a tuple of distinct entries: SNRs in dB that SnrSpec
    accepts for rho_db_values, else 1 to _MAX_SWEEP integers >= 1."""
    values = _as_tuple(values, f"sweeps.{name}")
    if name == "rho_db_values":
        values = tuple(_rho_db(v, i) for i, v in enumerate(values))
    else:
        values = tuple(check_number(v, f"sweeps.{name} entry", int, ConfigError) for v in values)
        if len(values) > _MAX_SWEEP:
            raise ConfigError(f"sweeps.{name} holds more than {_MAX_SWEEP} values")
        if any(v < 1 for v in values):
            raise ConfigError(f"sweeps.{name} entries must be >= 1")
    if len(values) < 1:
        raise ConfigError(f"sweeps.{name} must be non-empty")
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
        check_fields(self, ConfigError)
        if not isinstance(self.scene, Scene):
            raise ConfigError("scene must be a Scene")
        check_spacing(self.min_spacing_m, self.max_spacing_m, ConfigError)


@dataclass(frozen=True, kw_only=True)
class SynthConfig(SceneSource):
    """What `dmimo synth` reads: a SceneSource, the number of users to place
    in its region, and the seed of their placement and channels."""

    num_users: int
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.num_users < 1:
            raise ConfigError(f"num_users must be >= 1, got {self.num_users}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class FileSource:
    """Channel-file source: tensors load from `path` (a str or os.PathLike,
    kept as its str) once per run."""

    path: str

    def __post_init__(self):
        if not isinstance(self.path, (str, os.PathLike)):
            raise ConfigError(f"path must be a string, got {self.path!r}")
        if not str(self.path):
            raise ConfigError("path must be a non-empty path")
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
        check_fields(self, ConfigError)
        # exact types: a SynthConfig is a SceneSource whose extra fields a run ignores
        if type(self.source) not in (SceneSource, FileSource):
            raise ConfigError("source must be a SceneSource or FileSource")

        for axis in SWEEP_AXES:
            object.__setattr__(self, axis, _sweep_axis(axis, getattr(self, axis)))

        if not 1 <= self.trials < _MAX_TRIALS:
            raise ConfigError(f"trials must be in [1, {_MAX_TRIALS})")
        if not 0 <= self.seed < 2**64:
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

        object.__setattr__(self, "metrics", metrics)

    def replace(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)


def _from_dict(cls, obj, where: str):
    """Build dataclass `cls` from its JSON object at path `where`: the keys are
    its fields, the ones without a default are required, a record-typed field
    is built from its own object, and a failed check is prefixed with `where`."""
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
    values = dict(obj)
    for key, value in obj.items():
        if hints[key] is Scene:
            values[key] = scene_from_dict(value)
        elif dataclasses.is_dataclass(hints[key]):
            values[key] = _from_dict(hints[key], value, f"{where}.{key}")
    try:
        return cls(**values)
    except InvalidInputError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def scene_from_dict(obj) -> Scene:
    """Build a Scene from its JSON form, or from a tag string."""
    if isinstance(obj, str):
        try:
            return default_scene(obj)
        except InvalidInputError as exc:
            raise ConfigError(f"unknown scene tag {obj!r}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("scene must be a tag string or an object")
    return _from_dict(Scene, obj, "scene")


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
    version = check_number(obj.get("version", CONFIG_VERSION), "version", int, ConfigError)
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
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _unique_keys(pairs) -> dict:
    """A JSON object's dict, unless it repeats a key, which json.loads would
    otherwise resolve silently to the last value."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"key {key!r} appears more than once in one object")
        seen.add(key)
    return dict(pairs)


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    return config_from_dict(read_json(path))
