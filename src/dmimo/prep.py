"""Per-user normalization and subarray/topology selection.

Normalization rescales each user so its total energy over all snapshots and
subcarriers equals M*L*T, removing large-scale gain imbalance between users
while keeping every relative variation across antennas, subcarriers, and
snapshots; the result is a plain ChannelTensor. A user whose energy is
zero, underflows or overflows cannot be scaled and is rejected. Selection
slices an (M_sub = W*N)-antenna subarray out of a full tensor by drawing N
access points and W elements per AP uniformly at random. check_topology is
the one rule for which (M, N) a channel can serve: select_subarray applies
it to each call, and the harness to each (M, N) of a sweep once, before any
trial runs, so draw_subarray_columns, the draw both share, checks nothing.
Selection never renormalizes: a subarray keeps exactly the energy its
antennas captured, which is the point of comparing topologies fairly.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ApCapacityError,
    DegenerateUserError,
    InvalidInputError,
    TopologyError,
    check_number,
)
from .tensor import ChannelTensor, _generator, ap_columns


def normalize(ch: ChannelTensor) -> ChannelTensor:
    """Rescale each user so its energy over all (t, l, m) equals M*L*T.

    One positive scalar per user; relative gains within a user are untouched.
    Raises DegenerateUserError for a user whose channel is all zero or whose
    energy underflows, and InvalidInputError for one whose energy overflows.
    """
    if not isinstance(ch, ChannelTensor):
        raise InvalidInputError("normalize expects a ChannelTensor")
    t, l, k, m = ch.dims
    with np.errstate(over="ignore", divide="ignore"):
        energies = np.sum(np.abs(ch.data) ** 2, axis=(0, 1, 3))
        scales = np.sqrt(m * l * t / energies)
    usable = np.isfinite(scales) & (scales > 0.0)
    if not usable.all():
        bad = int(np.flatnonzero(~usable)[0])
        if np.isinf(energies[bad]):
            raise InvalidInputError(
                f"user {bad}'s channel energy overflows to inf, so it cannot be normalized"
            )
        if not ch.data[:, :, bad].any():
            raise DegenerateUserError(
                f"user {bad} has an all-zero channel and cannot be normalized", user=bad
            )
        raise DegenerateUserError(
            f"user {bad}'s channel energy underflows to {float(energies[bad])!r}, "
            "so it cannot be normalized",
            user=bad,
        )
    data = ch.data * scales[None, None, :, None]
    data.setflags(write=False)
    return ChannelTensor(data, ch.antenna_ap_map)


def select_subarray(ch: ChannelTensor, m_total: int, n_aps: int, rng) -> tuple:
    """Slice a random W*N-antenna subarray out of `ch`.

    Draws `n_aps` access points uniformly without replacement, then
    W = m_total / n_aps elements uniformly without replacement inside each
    chosen AP. Returns (sliced ChannelTensor, the antenna columns of `ch` it
    holds, as draw_subarray_columns gives them). Raises as check_topology
    does for an (m_total, n_aps) that `ch` cannot serve. No renormalization
    happens here; the slice keeps the original coefficients.
    """
    if not isinstance(ch, ChannelTensor):
        raise InvalidInputError("select_subarray expects a ChannelTensor")
    blocks = ap_columns(ch.antenna_ap_map)
    check_topology(blocks, m_total, n_aps)
    cols = draw_subarray_columns(blocks, m_total, n_aps, rng)
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
    (see tensor.ap_columns), for an (m_total, n_aps) that check_topology
    has passed on the same map; it is not checked again here.

    Draws the APs uniformly without replacement, then W = m_total / n_aps
    elements of each chosen AP in ascending AP order; this call order fixes
    the stream. Returns the antenna columns: AP by AP in ascending id order,
    each AP's own in ascending order.
    """
    w = m_total // n_aps
    gen = _generator(rng)
    chosen = np.sort(gen.choice(np.asarray(list(blocks)), size=n_aps, replace=False))
    return np.concatenate([
        blocks[ap][np.sort(gen.choice(len(blocks[ap]), size=w, replace=False))]
        for ap in chosen.tolist()
    ])
