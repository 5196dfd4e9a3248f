"""Workload definitions: the experiment config each workload runs.

Every workload is a function of the workload seed only, so the same seed
gives the same config and, for `file_joint`, the same channel file. Scenes
are spelled out in full here rather than taken from `dmimo.default_scene`,
so a later change to the library's defaults cannot silently change what the
benchmark measures.
"""

from __future__ import annotations

DEFAULT_SEED = 1

_AP_POSITIONS = [[-0.5, -0.5, 2.0], [3.0, -0.5, 2.0], [-0.5, 5.5, 2.0], [3.0, 5.5, 2.0]]
_REGION = {"origin": [0.0, 0.0, 0.8], "width": 2.5, "depth": 5.0}


def indoor_scene(conditions, spread_deg, snapshots, subcarriers) -> dict:
    """The 4-AP, 32-antennas-per-AP indoor scene at 5.6 GHz / 400 MHz."""
    return {
        "ap_positions": _AP_POSITIONS,
        "antennas_per_ap": 32,
        "region": _REGION,
        "condition_per_ap": list(conditions),
        "rice_k_db": 9.0,
        "num_scatterers": 24,
        "angular_spread_deg": spread_deg,
        "carrier_hz": 5.6e9,
        "bandwidth_hz": 400e6,
        "num_subcarriers": subcarriers,
        "num_snapshots": snapshots,
    }


# the channel file `file_joint` subsamples users from: (T, L, K, M) and its scene
FILE_DIMS = (2, 32, 256, 128)
FILE_SCENE = indoor_scene(("los", "los", "nlos", "nlos"), 64.0, snapshots=2, subcarriers=32)


def _sweeps(m_values, k_values):
    return {
        "m_values": m_values,
        "n_values": [4],
        "rho_db_values": [0.0, 15.0],
        "k_values": k_values,
    }


# name -> (trials per repetition, config without trials/seed)
WORKLOADS = {
    "paper_sweep": (
        200,
        {
            "source": {"type": "scene", "scene": "los"},
            "sweeps": _sweeps([16, 32, 64, 128], [12]),
            "metrics": ["svs", "dpc", "zf", "fairness"],
            "allocation_mode": "per_tl",
        },
    ),
    "wideband": (
        10,
        {
            "source": {
                "type": "scene",
                "scene": indoor_scene(("los",) * 4, 37.0, snapshots=4, subcarriers=16),
            },
            "sweeps": _sweeps([32, 128], [12]),
            "metrics": ["svs", "dpc", "zf", "fairness"],
            "allocation_mode": "per_tl",
        },
    ),
    "file_joint": (
        16,
        {
            "source": {"type": "file", "path": None},
            "sweeps": _sweeps([32, 64], [8, 16]),
            "metrics": ["svs", "dpc", "zf", "fairness"],
            "allocation_mode": "joint",
        },
    ),
}


def needs_file(name: str) -> bool:
    return WORKLOADS[name][1]["source"]["type"] == "file"


def make_config(name: str, seed: int, file_path=None) -> dict:
    """The JSON config of workload `name` at `seed`."""
    trials, base = WORKLOADS[name]
    cfg = {
        "version": 1,
        "source": dict(base["source"]),
        "sweeps": base["sweeps"],
        "trials": trials,
        "seed": seed,
        "metrics": base["metrics"],
        "allocation_mode": base["allocation_mode"],
    }
    if needs_file(name):
        if file_path is None:
            raise ValueError(f"workload {name} needs a channel file path")
        cfg["source"]["path"] = str(file_path)
    return cfg
