"""Frozen JSON forms: config schema bytes, round trips, and output hashes.

The literals below are the exact bytes `config_to_dict` serializes to, and
the hashes pin `aggregates_dict()` and `dmimo cdf` output for one small run
that includes degenerate trials. Any schema refactor must leave them alone.
The output hashes hold for one numpy/LAPACK build: a build whose floating
point differs in the last bits needs them re-recorded.
"""

import hashlib
import json

from dmimo import config_from_dict, config_to_dict, run_experiment
from dmimo.cli import main

SCENE_OBJ = {
    "ap_positions": [[0.0, 0.0, 2.0], [3.0, 0.5, 2.5]],
    "antennas_per_ap": 16,
    "region": {"origin": [0.0, 0.0, 0.8], "width": 3.0, "depth": 2.5},
    "condition_per_ap": ["los", "nlos"],
    "rice_k_db": 6.0,
    "num_scatterers": 10,
    "angular_spread_deg": 45.0,
    "carrier_hz": 3.5e9,
    "bandwidth_hz": 100e6,
    "num_subcarriers": 4,
}

SCENE_CONFIG = {
    "source": {"type": "scene", "scene": SCENE_OBJ, "min_spacing_m": 0.2, "max_spacing_m": 2},
    "sweeps": {"m_values": [16, 32], "n_values": [1, 2], "rho_db_values": [0, 12.5], "k_values": [2]},
    "trials": 5,
    "seed": 3,
    "metrics": ["zf", "svs"],
    "allocation_mode": "joint",
}

FILE_CONFIG = {
    "source": {"type": "file", "path": "channels/ch.dmct"},
    "sweeps": {"m_values": [8], "n_values": [2], "rho_db_values": [10], "k_values": [2, 3]},
    "trials": 3,
    "seed": 9,
}

SCENE_CONFIG_JSON = """\
{
  "allocation_mode": "joint",
  "metrics": [
    "svs",
    "zf"
  ],
  "seed": 3,
  "source": {
    "max_spacing_m": 2.0,
    "min_spacing_m": 0.2,
    "scene": {
      "angular_spread_deg": 45.0,
      "antennas_per_ap": 16,
      "ap_positions": [
        [
          0.0,
          0.0,
          2.0
        ],
        [
          3.0,
          0.5,
          2.5
        ]
      ],
      "bandwidth_hz": 100000000.0,
      "carrier_hz": 3500000000.0,
      "condition_per_ap": [
        "los",
        "nlos"
      ],
      "num_scatterers": 10,
      "num_snapshots": 1,
      "num_subcarriers": 4,
      "region": {
        "depth": 2.5,
        "origin": [
          0.0,
          0.0,
          0.8
        ],
        "width": 3.0
      },
      "rice_k_db": 6.0
    },
    "type": "scene"
  },
  "sweeps": {
    "k_values": [
      2
    ],
    "m_values": [
      16,
      32
    ],
    "n_values": [
      1,
      2
    ],
    "rho_db_values": [
      0.0,
      12.5
    ]
  },
  "trials": 5,
  "version": 1
}"""

FILE_CONFIG_JSON = """\
{
  "allocation_mode": "per_tl",
  "metrics": [
    "svs",
    "dpc",
    "zf",
    "fairness"
  ],
  "seed": 9,
  "source": {
    "path": "channels/ch.dmct",
    "type": "file"
  },
  "sweeps": {
    "k_values": [
      2,
      3
    ],
    "m_values": [
      8
    ],
    "n_values": [
      2
    ],
    "rho_db_values": [
      10.0
    ]
  },
  "trials": 3,
  "version": 1
}"""

# K = 3 cannot be placed 6 m apart in the 2.5 x 5 m region, so every K = 3
# trial is degenerate while K = 1 runs normally
DEGENERATE_RUN = {
    "source": {
        "type": "scene",
        "scene": {
            "ap_positions": [[-0.5, -0.5, 2.0], [3.0, 5.5, 2.0]],
            "antennas_per_ap": 8,
            "region": {"origin": [0.0, 0.0, 0.8], "width": 2.5, "depth": 5.0},
            "condition_per_ap": ["los", "nlos"],
            "rice_k_db": 9.0,
            "num_scatterers": 6,
            "angular_spread_deg": 37.0,
            "carrier_hz": 5.6e9,
            "bandwidth_hz": 400e6,
        },
        "min_spacing_m": 6.0,
        "max_spacing_m": 10.0,
    },
    "sweeps": {"m_values": [8], "n_values": [1, 2], "rho_db_values": [0, 10], "k_values": [1, 3]},
    "trials": 3,
    "seed": 17,
}

AGGREGATES_SHA256 = "869c3a5346810fb725bd641a2ac1401e79079f729546d19568fed76402ac23d8"
AGGREGATES_FILE_SHA256 = "d892d946eb609c89d257adfbe2d64ab7b41ce58aeb4038f96f011607b940722f"
CDF_TABLES_SHA256 = "a0c38cb3ce609367e44ef37a37330145c16acbe65cb2d250984b4cca58626bf3"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestConfigBytes:
    def test_scene_object_config_bytes(self):
        cfg = config_from_dict(SCENE_CONFIG)
        assert json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) == SCENE_CONFIG_JSON

    def test_file_config_bytes(self):
        cfg = config_from_dict(FILE_CONFIG)
        assert json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) == FILE_CONFIG_JSON

    def test_round_trips(self):
        for obj in (SCENE_CONFIG, FILE_CONFIG):
            cfg = config_from_dict(obj)
            assert config_from_dict(config_to_dict(cfg)) == cfg
            # the serialized form is plain JSON and survives a text round trip
            text = json.dumps(config_to_dict(cfg))
            assert config_from_dict(json.loads(text)) == cfg


class TestOutputHashes:
    def test_aggregates_dict_hash(self):
        result = run_experiment(config_from_dict(DEGENERATE_RUN))
        assert {d.k for d in result.degenerate} == {3}
        # no sort_keys and no default=: pins the key order and plain JSON values
        assert sha256(json.dumps(result.aggregates_dict()).encode()) == AGGREGATES_SHA256

    def test_cli_outputs_hash(self, tmp_path, capsys):
        cfg_path = tmp_path / "experiment.json"
        cfg_path.write_text(json.dumps(DEGENERATE_RUN))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["cdf", str(out / "results.csv"), "--grid-points", "16", "--out", str(out)]) == 0
        capsys.readouterr()
        assert sha256((out / "aggregates.json").read_bytes()) == AGGREGATES_FILE_SHA256
        assert sha256((out / "cdf_tables.json").read_bytes()) == CDF_TABLES_SHA256
