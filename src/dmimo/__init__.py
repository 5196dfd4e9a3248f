"""Spatial user-separability analysis for distributed massive MIMO channels.

Synthesizes or ingests multi-user channel tensors and evaluates how well the
users can be separated in space: singular value spread, DPC sum capacity via
sum-power iterative water-filling, zero-forcing sum rate with water-filled
powers, and the number of users allocated power. A Monte-Carlo harness
sweeps antenna count, access-point topology, SNR, and user count with fully
reproducible seeded randomness.
"""

from .chanfile import (
    FORMAT_VERSION,
    expected_file_size,
    read_channel_file,
    write_channel_file,
)
from .config import (
    CONFIG_VERSION,
    METRIC_NAMES,
    ExperimentConfig,
    FileSource,
    SceneSource,
    config_from_dict,
    config_to_dict,
    load_config,
    scene_from_dict,
    scene_to_dict,
)
from .errors import (
    ApCapacityError,
    ConfigError,
    DegenerateUserError,
    DimensionError,
    EmptySampleError,
    FormatError,
    InfeasibleLayoutError,
    InvalidInputError,
    PlacementError,
    RankDeficiencyError,
    ToolkitError,
    TopologyError,
)
from .harness import (
    CellAggregate,
    DegenerateRecord,
    ExperimentResult,
    ResultRow,
    RESULT_COLUMNS,
    aggregate_result_rows,
    iter_result_rows,
    read_result_rows,
    run_experiment,
)
from .metrics import (
    ALLOCATION_MODES,
    CapacityResult,
    PowerAllocation,
    SnrSpec,
    count_allocated_users,
    dpc_capacity,
    svs,
    waterfill,
    zf_sum_rate,
)
from .prep import normalize, select_subarray
from .stats import CdfTable, compute_cdf
from .synth import (
    LOS,
    NLOS,
    Region,
    Scene,
    SPEED_OF_LIGHT,
    UserLayout,
    default_scene,
    gen_geometric,
    gen_iid_rayleigh,
    gen_trajectory_users,
)
from .tensor import (
    COND_LIMIT,
    ChannelTensor,
    RngHandle,
    singular_values,
    zf_effective_gains,
)

__version__ = "0.1.0"

__all__ = [
    "ALLOCATION_MODES",
    "ApCapacityError",
    "CONFIG_VERSION",
    "COND_LIMIT",
    "CapacityResult",
    "CdfTable",
    "CellAggregate",
    "ChannelTensor",
    "ConfigError",
    "DegenerateRecord",
    "DegenerateUserError",
    "DimensionError",
    "EmptySampleError",
    "ExperimentConfig",
    "ExperimentResult",
    "FORMAT_VERSION",
    "FileSource",
    "FormatError",
    "InfeasibleLayoutError",
    "InvalidInputError",
    "LOS",
    "METRIC_NAMES",
    "NLOS",
    "PlacementError",
    "PowerAllocation",
    "RESULT_COLUMNS",
    "RankDeficiencyError",
    "Region",
    "ResultRow",
    "RngHandle",
    "SPEED_OF_LIGHT",
    "Scene",
    "SceneSource",
    "SnrSpec",
    "ToolkitError",
    "TopologyError",
    "UserLayout",
    "aggregate_result_rows",
    "compute_cdf",
    "config_from_dict",
    "config_to_dict",
    "count_allocated_users",
    "default_scene",
    "dpc_capacity",
    "expected_file_size",
    "gen_geometric",
    "gen_iid_rayleigh",
    "gen_trajectory_users",
    "iter_result_rows",
    "load_config",
    "normalize",
    "read_channel_file",
    "read_result_rows",
    "run_experiment",
    "scene_from_dict",
    "scene_to_dict",
    "select_subarray",
    "singular_values",
    "svs",
    "waterfill",
    "write_channel_file",
    "zf_effective_gains",
    "zf_sum_rate",
]
