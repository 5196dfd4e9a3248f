"""Per-user normalization and subarray/topology selection.

Normalization rescales each user so its total energy over all snapshots and
subcarriers equals M*L*T, removing large-scale gain imbalance between users
while keeping every relative variation across antennas, subcarriers, and
snapshots. Selection slices an (M_sub = W*N)-antenna subarray out of a full
tensor by drawing N access points and W elements per AP uniformly at random;
check_topology is the one rule for which (M, N) a channel can serve, applied
to every draw and, by the harness, to a whole sweep before any trial runs.
Selection never renormalizes: a subarray keeps exactly the energy its
antennas captured, which is the point of comparing topologies fairly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ApCapacityError,
    DegenerateUserError,
    InvalidInputError,
    TopologyError,
    check_number,
)
from .tensor import ChannelTensor, _generator, ap_columns


@dataclass(frozen=True)
class NormalizedTensor(ChannelTensor):
    """A ChannelTensor whose per-user energy equals M*L*T.

    `user_scales` records the positive scalar applied to each user's
    coefficients.
    """

    user_scales: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        scales = np.array(self.user_scales, dtype=float, copy=True)
        if scales.ndim != 1 or scales.shape[0] != self.num_users:
            raise InvalidInputError("user_scales must give one factor per user")
        if not np.all(np.isfinite(scales)) or np.any(scales <= 0):
            raise InvalidInputError("user_scales must be positive and finite")
        scales.setflags(write=False)
        object.__setattr__(self, "user_scales", scales)


def normalize(ch: ChannelTensor) -> NormalizedTensor:
    """Rescale each user so its energy over all (t, l, m) equals M*L*T.

    One positive scalar per user; relative gains within a user are untouched.
    Raises DegenerateUserError for an all-zero user channel.
    """
    if not isinstance(ch, ChannelTensor):
        raise InvalidInputError("normalize expects a ChannelTensor")
    t, l, k, m = ch.dims
    energies = np.sum(np.abs(ch.data) ** 2, axis=(0, 1, 3))
    if np.any(energies == 0.0):
        bad = int(np.flatnonzero(energies == 0.0)[0])
        raise DegenerateUserError(
            f"user {bad} has an all-zero channel and cannot be normalized",
            user=bad,
        )
    scales = np.sqrt(m * l * t / energies)
    data = ch.data * scales[None, None, :, None]
    data.setflags(write=False)
    return NormalizedTensor(data, ch.antenna_ap_map, user_scales=scales)


def select_subarray(ch: ChannelTensor, m_total: int, n_aps: int, rng) -> tuple:
    """Slice a random W*N-antenna subarray out of `ch`.

    Draws `n_aps` access points uniformly without replacement, then
    W = m_total / n_aps elements uniformly without replacement inside each
    chosen AP. Returns (sliced ChannelTensor, the antenna columns of `ch` it
    holds, as draw_subarray_columns gives them). No renormalization happens
    here; the slice keeps the original coefficients.
    """
    if not isinstance(ch, ChannelTensor):
        raise InvalidInputError("select_subarray expects a ChannelTensor")
    cols = draw_subarray_columns(ap_columns(ch.antenna_ap_map), m_total, n_aps, rng)
    return ChannelTensor(ch.data[:, :, :, cols], ch.antenna_ap_map[cols]), cols


def check_topology(blocks: dict, m_total: int, n_aps: int) -> int:
    """Return W = m_total / n_aps, or raise TopologyError unless 1 <= n_aps
    <= the APs of `blocks` (an AP -> columns map, see tensor.ap_columns) and
    n_aps divides m_total >= 1, or ApCapacityError unless every AP holds W
    elements: the one rule for which topologies a channel can serve."""
    m_total = check_number(m_total, "m_total", int, TopologyError)
    n_aps = check_number(n_aps, "n_aps", int, TopologyError)
    if n_aps < 1 or n_aps > len(blocks):
        raise TopologyError(f"requested {n_aps} APs but the channel has {len(blocks)}")
    if m_total < 1 or m_total % n_aps != 0:
        raise TopologyError(f"m_total={m_total} is not divisible by n_aps={n_aps}")
    w = m_total // n_aps
    smallest = min(len(block) for block in blocks.values())
    if w > smallest:
        raise ApCapacityError(f"need W={w} elements per AP but the smallest AP has {smallest}")
    return w


def draw_subarray_columns(blocks: dict, m_total: int, n_aps: int, rng) -> np.ndarray:
    """The random draw behind select_subarray, on an AP -> columns map
    (see tensor.ap_columns).

    Checks the topology with check_topology, then draws the APs uniformly
    without replacement and W elements of each chosen AP in ascending AP
    order; this call order fixes the stream. Returns the antenna columns:
    AP by AP in ascending id order, each AP's own in ascending order.
    """
    w = check_topology(blocks, m_total, n_aps)
    gen = _generator(rng)
    chosen = np.sort(gen.choice(np.asarray(list(blocks)), size=n_aps, replace=False))
    return np.concatenate([
        blocks[ap][np.sort(gen.choice(len(blocks[ap]), size=w, replace=False))]
        for ap in chosen.tolist()
    ])
