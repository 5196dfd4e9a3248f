"""Synthetic distributed-MIMO channel generation.

Two generators: an i.i.d. Rayleigh baseline, and a geometric scene model with
access points carrying half-wavelength planar antenna patches, users placed
in a rectangular region, and a per-AP propagation condition. A LoS link mixes
a deterministic plane wave (set by the Ricean K-factor) with scattered rays;
an NLoS link is scattered rays only. Either way the mean link power is 1, so
per-user normalization downstream only removes large-scale imbalance.
Placement and UserLayout test pairwise spacing with one function, so every
layout the generator accepts passes UserLayout.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InfeasibleLayoutError,
    InvalidInputError,
    PlacementError,
    check_fields,
    check_number,
)
from .tensor import ChannelTensor, _generator

SPEED_OF_LIGHT = 299_792_458.0

LOS = "los"
NLOS = "nlos"

# rejection budget for constrained user placement
_MAX_PLACEMENT_REJECTS = 100_000

# user pairs that one block of UserLayout's spacing check holds at most, so
# its memory does not grow as K^2 (1.5 MiB per temporary); K <= 256 is one block
_SPACING_BLOCK_PAIRS = 2**16

# complex phase entries (L * S * W per link) that one block of the geometry
# pass of gen_geometric holds at most: the 48 links of the paper's scene
# (12 users x 4 APs, L = 1 subcarrier, S = 24 scatterers, W = 32 elements).
# Bounds the block's temporaries, never changes output bytes.
GEOMETRY_BLOCK_ENTRIES = 48 * 1 * 24 * 32


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle for user placement, at a fixed height.

    `origin` is the (x, y, z) corner; the region spans `width` along x and
    `depth` along y at height origin[2].
    """

    origin: tuple[float, float, float]
    width: float
    depth: float

    def __post_init__(self):
        check_fields(self)
        if len(self.origin) != 3 or not all(math.isfinite(v) for v in self.origin):
            raise InvalidInputError("origin must be a finite (x, y, z) triple")
        for name in ("width", "depth"):
            if not (getattr(self, name) > 0 and math.isfinite(getattr(self, name))):
                raise InvalidInputError(f"{name} must be positive and finite")

    @property
    def area(self) -> float:
        return self.width * self.depth

    def contains(self, points) -> np.ndarray:
        """Boolean mask: which (x, y, z) rows lie inside the rectangle."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        x0, y0, _ = self.origin
        return (
            (p[:, 0] >= x0)
            & (p[:, 0] <= x0 + self.width)
            & (p[:, 1] >= y0)
            & (p[:, 1] <= y0 + self.depth)
        )


@dataclass(frozen=True)
class Scene:
    """Geometric description of the access points and the propagation model.

    Parameters
    ----------
    ap_positions : sequence of (x, y, z)
        One entry per access point, meters.
    antennas_per_ap : int
        Elements per AP, laid out as a half-wavelength planar patch.
    region : Region
        Rectangle users may occupy.
    condition_per_ap : sequence of "los" / "nlos"
        Propagation condition of every AP towards the region.
    rice_k_db : float
        Ricean K-factor for LoS links, dB.
    num_scatterers : int
        Scattered rays per AP-user link.
    angular_spread_deg : float
        Azimuth spread of scatterer directions around the direct path.
    carrier_hz, bandwidth_hz : float
        Center frequency and total bandwidth of the subcarrier grid.
    num_subcarriers, num_snapshots : int
        L and T of generated tensors. Snapshots redraw scatterer gains.
    """

    ap_positions: tuple[tuple[float, float, float], ...]
    antennas_per_ap: int
    region: Region
    condition_per_ap: tuple
    rice_k_db: float
    num_scatterers: int
    angular_spread_deg: float
    carrier_hz: float
    bandwidth_hz: float
    num_subcarriers: int = 1
    num_snapshots: int = 1

    def __post_init__(self):
        check_fields(self)
        if len(self.ap_positions) < 1:
            raise InvalidInputError("ap_positions must hold at least one access point")
        if any(len(p) != 3 or not all(math.isfinite(c) for c in p) for p in self.ap_positions):
            raise InvalidInputError("ap_positions must be finite (x, y, z) triples")
        if not isinstance(self.condition_per_ap, Iterable):
            raise InvalidInputError(
                "condition_per_ap must be a sequence of 'los'/'nlos' tags, "
                f"got {self.condition_per_ap!r}"
            )
        conditions = tuple(str(c).lower() for c in self.condition_per_ap)
        if len(conditions) != len(self.ap_positions):
            raise InvalidInputError("condition_per_ap must give one tag per access point")
        if any(c not in (LOS, NLOS) for c in conditions):
            raise InvalidInputError("condition_per_ap tags must be 'los' or 'nlos'")
        if not isinstance(self.region, Region):
            raise InvalidInputError("region must be a Region")
        for name in ("antennas_per_ap", "num_scatterers", "num_subcarriers", "num_snapshots"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1")
        if not math.isfinite(self.rice_k_db):
            raise InvalidInputError("rice_k_db must be finite")
        if not 0.0 < self.angular_spread_deg <= 360.0:
            raise InvalidInputError("angular_spread_deg must be in (0, 360]")
        if not (self.carrier_hz > 0 and math.isfinite(self.carrier_hz)):
            raise InvalidInputError("carrier_hz must be positive and finite")
        if not (self.bandwidth_hz >= 0 and math.isfinite(self.bandwidth_hz)):
            raise InvalidInputError("bandwidth_hz must be non-negative and finite")
        object.__setattr__(self, "condition_per_ap", conditions)

    @property
    def num_aps(self) -> int:
        return len(self.ap_positions)

    @property
    def total_antennas(self) -> int:
        return self.num_aps * self.antennas_per_ap

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def subcarrier_frequencies(self) -> np.ndarray:
        """L frequencies uniform across the bandwidth, centered at the carrier."""
        l = self.num_subcarriers
        if l == 1:
            return np.array([self.carrier_hz])
        offsets = (np.arange(l) / (l - 1) - 0.5) * self.bandwidth_hz
        return self.carrier_hz + offsets

    def antenna_positions(self) -> np.ndarray:
        """(M, 3) element coordinates: a half-wavelength grid patch per AP.

        Each patch is vertical (local x horizontal, z up), centered on the
        AP position, with rows x columns chosen as the most square factor
        pair of antennas_per_ap.
        """
        w = self.antennas_per_ap
        rows = int(math.floor(math.sqrt(w)))
        while w % rows != 0:
            rows -= 1
        cols = w // rows
        spacing = 0.5 * self.wavelength_m
        ix = (np.arange(cols) - (cols - 1) / 2.0) * spacing
        iz = (np.arange(rows) - (rows - 1) / 2.0) * spacing
        dx, dz = np.meshgrid(ix, iz)
        offsets = np.column_stack(
            [dx.ravel(), np.zeros(w), dz.ravel()]
        )
        out = np.empty((self.total_antennas, 3))
        for n, ap in enumerate(self.ap_positions):
            out[n * w : (n + 1) * w] = np.asarray(ap) + offsets
        return out

    def antenna_ap_map(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_aps), self.antennas_per_ap)


def check_spacing(min_s: float, max_s: float, error=InvalidInputError) -> None:
    """Raise `error` unless 0 <= min_s <= max_s and max_s > 0: the one rule
    for pairwise spacing bounds, wherever they are given."""
    if not (0 <= min_s <= max_s and max_s > 0):
        raise error(
            "min_spacing_m must be in [0, max_spacing_m] and max_spacing_m > 0, "
            f"got {min_s} and {max_s}"
        )


def _within_spacing(a: np.ndarray, b: np.ndarray, min_s: float, max_s: float) -> np.ndarray:
    """Whether each distance between points `a` and `b` ((..., 3), broadcast)
    lies in [min_s, max_s]: the one pair test, with the squares summed in x, y,
    z order, so a layout gen_trajectory_users accepts always passes UserLayout."""
    dist = np.sqrt(((a - b) ** 2).sum(axis=-1))
    return (min_s <= dist) & (dist <= max_s)


@dataclass(frozen=True)
class UserLayout:
    """K user positions with pairwise spacing bounds.

    Positions are (x, y, z) meters; every pairwise distance must lie within
    [min_spacing_m, max_spacing_m].
    """

    positions: np.ndarray
    min_spacing_m: float = 0.0
    max_spacing_m: float = math.inf

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float, copy=True)
        pos = np.atleast_2d(pos)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise InvalidInputError("positions must be a (K, 3) coordinate array")
        if not np.all(np.isfinite(pos)):
            raise InvalidInputError("positions must be finite")
        check_fields(self)
        min_s, max_s = self.min_spacing_m, self.max_spacing_m
        check_spacing(min_s, max_s)
        rows = max(1, _SPACING_BLOCK_PAIRS // len(pos))
        for lo in range(0, len(pos) - 1, rows):
            # users lo... against users lo...; np.tri drops the pairs with j <= i
            ok = _within_spacing(pos[lo : lo + rows, None], pos[None, lo:], min_s, max_s)
            if not (ok | np.tri(*ok.shape, dtype=bool)).all():
                raise PlacementError(
                    "positions have pairwise distances outside the spacing bounds "
                    f"[{min_s}, {max_s}]"
                )
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def num_users(self) -> int:
        return self.positions.shape[0]


def default_scene(
    condition: str = LOS,
    *,
    num_subcarriers: int = 1,
    num_snapshots: int = 1,
    rice_k_db: float = 9.0,
    num_scatterers: int = 24,
) -> Scene:
    """A compact indoor scene: 4 corner APs around a 2.5 m x 5 m region.

    `condition` is "los" (all APs LoS, 37 deg spread), "nlos" (all NLoS,
    64 deg spread), or "mixed" (two LoS + two NLoS APs, 64 deg spread).
    """
    region = Region(origin=(0.0, 0.0, 0.8), width=2.5, depth=5.0)
    aps = (
        (-0.5, -0.5, 2.0),
        (3.0, -0.5, 2.0),
        (-0.5, 5.5, 2.0),
        (3.0, 5.5, 2.0),
    )
    condition = condition.lower()
    if condition == LOS:
        tags = (LOS, LOS, LOS, LOS)
        spread = 37.0
    elif condition == NLOS:
        tags = (NLOS, NLOS, NLOS, NLOS)
        spread = 64.0
    elif condition == "mixed":
        tags = (LOS, LOS, NLOS, NLOS)
        spread = 64.0
    else:
        raise InvalidInputError("condition must be 'los', 'nlos', or 'mixed'")
    return Scene(
        ap_positions=aps,
        antennas_per_ap=32,
        region=region,
        condition_per_ap=tags,
        rice_k_db=rice_k_db,
        num_scatterers=num_scatterers,
        angular_spread_deg=spread,
        carrier_hz=5.6e9,
        bandwidth_hz=400e6,
        num_subcarriers=num_subcarriers,
        num_snapshots=num_snapshots,
    )


def gen_iid_rayleigh(dims, rng) -> ChannelTensor:
    """Tensor of i.i.d. circularly-symmetric complex Gaussian entries.

    Zero mean, unit variance per entry; all antennas map to one AP since the
    draw carries no geometry.
    """
    try:
        t, l, k, m = (
            check_number(v, f"dims[{i}]", int, DimensionError) for i, v in enumerate(dims)
        )
    except (TypeError, ValueError):
        raise DimensionError("dims must be four integers (T, L, K, M)") from None
    if min(t, l, k, m) < 1:
        raise DimensionError(f"all dims must be >= 1, got {(t, l, k, m)}")
    gen = _generator(rng)
    shape = (t, l, k, m)
    data = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / math.sqrt(2.0)
    return ChannelTensor(data, np.zeros(m, dtype=np.int64))


def gen_trajectory_users(scene: Scene, num_users: int, spacing, rng) -> UserLayout:
    """Draw K user positions uniformly in the scene region.

    Positions are accepted only when every pairwise distance lies within
    `spacing` = (min_m, max_m); after 1e5 rejected candidates the layout is
    declared infeasible. A layout that provably cannot exist raises
    InfeasibleLayoutError before any draw: K >= 2 users need a region
    diagonal of at least min_m, and their disjoint min_m-diameter disks must
    fit the region grown by min_m / 2.
    """
    num_users = check_number(num_users, "num_users", int)
    if num_users < 1:
        raise InvalidInputError("num_users must be >= 1")
    min_s = check_number(spacing[0], "spacing[0]")
    max_s = check_number(spacing[1], "spacing[1]")
    check_spacing(min_s, max_s)
    gen = _generator(rng)
    region = scene.region
    if num_users >= 2:
        _check_spacing_feasible(region, num_users, min_s)
    x0, y0, z0 = region.origin
    positions = np.empty((num_users, 3))
    placed = rejects = 0
    while placed < num_users:
        u, v = gen.random(2)
        positions[placed] = (x0 + u * region.width, y0 + v * region.depth, z0)
        if _within_spacing(positions[:placed], positions[placed], min_s, max_s).all():
            placed += 1
        else:
            rejects += 1
            if rejects >= _MAX_PLACEMENT_REJECTS:
                raise InfeasibleLayoutError(
                    f"could not place {num_users} users with spacing "
                    f"[{min_s}, {max_s}] m in a {region.width} x {region.depth} m "
                    f"region after {_MAX_PLACEMENT_REJECTS} rejected candidates"
                )
    return UserLayout(positions, min_spacing_m=min_s, max_spacing_m=max_s)


def _check_spacing_feasible(region: Region, num_users: int, min_s: float) -> None:
    """Raise InfeasibleLayoutError when `num_users` >= 2 points at pairwise
    distance >= `min_s` cannot fit in `region`, by either of two necessary
    conditions: two points fit only within the diagonal, and the points'
    disjoint radius-min_s/2 disks all lie in the region grown by min_s / 2,
    whose area is w*d + (w + d)*min_s + pi*min_s^2/4."""
    w, d = region.width, region.depth
    diagonal = math.hypot(w, d)
    if diagonal < min_s:
        raise InfeasibleLayoutError(
            f"cannot place {num_users} users with minimum spacing {min_s} m: "
            f"the {w} x {d} m region's diagonal is only {diagonal:.3f} m"
        )
    disks = num_users * math.pi * min_s**2 / 4
    grown = w * d + (w + d) * min_s + math.pi * min_s**2 / 4
    if disks > grown:
        raise InfeasibleLayoutError(
            f"cannot place {num_users} users with minimum spacing {min_s} m: "
            f"their spacing disks cover {disks:.3f} m^2, more than the "
            f"{grown:.3f} m^2 of the {w} x {d} m region grown by {min_s / 2} m"
        )


def gen_geometric(scene: Scene, users: UserLayout, rng) -> ChannelTensor:
    """Synthesize a (T, L, K, M) tensor from the scene geometry.

    Per AP-user link: `num_scatterers` single-bounce rays with complex
    Gaussian gains (redrawn each snapshot) leave the AP within
    angular_spread_deg of the direct azimuth; a LoS AP adds the deterministic
    plane wave with power ratio set by rice_k_db. Each ray's phase comes from
    its exact path length per subcarrier frequency, so the array geometry,
    frequency selectivity, and AP-position diversity are all in the tensor.
    Mean link power is 1. The tensor is filled from geometric_link_blocks.
    """
    dims, blocks = geometric_link_blocks(scene, users, rng)
    data = np.empty(dims, dtype=np.complex128)
    links = data.reshape(dims[:2] + (-1, scene.antennas_per_ap))
    for first, values in blocks:
        links[:, :, first : first + values.shape[2]] = values
    data.setflags(write=False)
    return ChannelTensor(data, scene.antenna_ap_map())


def geometric_link_blocks(scene: Scene, users: UserLayout, rng) -> tuple:
    """(dims, blocks) of gen_geometric's tensor: its (T, L, K, M) dims, and an
    iterator over its values, one block of consecutive links at a time.

    Links run user-major, then AP: link j is user j // num_aps at the
    antennas of AP j % num_aps, which are columns (j % num_aps) * W to
    (j % num_aps + 1) * W - 1 of the tensor. A block is (first link, values)
    with values of shape (T, L, B, W) for links first to first + B - 1.

    Draw order, which fixes the output for a given stream: every random
    number is drawn in this call, before the iterator yields. Links run in
    link order; each draws its S scatterer azimuth offsets (`uniform`), its
    S range fractions (`uniform`) and then its T x S real and T x S imaginary
    gain parts (`standard_normal`). The iterator then evaluates the geometry
    for blocks of consecutive links holding at most GEOMETRY_BLOCK_ENTRIES
    phase entries; every link is computed on its own, so the block size
    never changes the output bytes.
    """
    if not isinstance(users, UserLayout):
        raise InvalidInputError("users must be a UserLayout")
    inside = scene.region.contains(users.positions)
    if not np.all(inside):
        bad = int(np.flatnonzero(~inside)[0])
        raise PlacementError(f"user {bad} lies outside the scene region")
    gen = _generator(rng)

    t_dim = scene.num_snapshots
    l_dim = scene.num_subcarriers
    k_dim = users.num_users
    num_aps = scene.num_aps
    w = scene.antennas_per_ap
    s = scene.num_scatterers

    freqs = scene.subcarrier_frequencies()
    rice_linear = 10.0 ** (scene.rice_k_db / 10.0)
    los_amp = math.sqrt(rice_linear / (rice_linear + 1.0))
    scatter_amp_los = math.sqrt(1.0 / (rice_linear + 1.0))
    half_spread = math.radians(scene.angular_spread_deg) / 2.0
    # 2*pi*f/c per subcarrier, the factor of every path length in a phase
    wavenumbers = (2.0 * math.pi / SPEED_OF_LIGHT) * freqs

    # phase 1: the random draws and the per-link scalars, link by link in
    # draw order. atan2, the direct-path length and its floor stay scalar
    # per link: their vectorized numpy forms round differently.
    aps = np.array(scene.ap_positions)
    direct = users.positions[:, None, :] - aps[None, :, :]
    azimuth = np.empty((k_dim, num_aps))
    scale = np.empty((k_dim, num_aps))
    angle_offsets = np.empty((k_dim, num_aps, s))
    range_fractions = np.empty((k_dim, num_aps, s))
    normals = np.empty((k_dim, num_aps, 2, t_dim, s))
    for k in range(k_dim):
        for n in range(num_aps):
            d = direct[k, n]
            azimuth[k, n] = math.atan2(d[1], d[0])
            scale[k, n] = max(math.sqrt(d.dot(d)), 1e-3)
            angle_offsets[k, n] = gen.uniform(-half_spread, half_spread, s)
            range_fractions[k, n] = gen.uniform(0.2, 1.0, s)
            gen.standard_normal(out=normals[k, n])

    # scatterer points: direct-azimuth fan at a fraction of the link range,
    # at the AP's height; links are flattened user-major, then AP
    num_links = k_dim * num_aps
    angles = (azimuth[:, :, None] + angle_offsets).reshape(num_links, s)
    ranges = (range_fractions * scale[:, :, None]).reshape(num_links, s)
    gains = (
        (normals[:, :, 0] + 1j * normals[:, :, 1]) / math.sqrt(2.0 * s)
    ).reshape(num_links, t_dim, s)
    ap_of = np.tile(np.arange(num_aps), k_dim)
    user_of = np.repeat(np.arange(k_dim), num_aps)
    link_ap = aps[ap_of]
    link_user = users.positions[user_of]
    elems = scene.antenna_positions().reshape(num_aps, w, 3)
    is_los = np.array([c == LOS for c in scene.condition_per_ap])[ap_of]

    # phase 2: the geometry of a block of links at a time. Every distance sums
    # its squared coordinate offsets in x, y, z order.
    block = max(1, GEOMETRY_BLOCK_ENTRIES // (l_dim * s * w))

    def link_blocks():
        for start in range(0, num_links, block):
            b = slice(start, start + block)
            ap_x, ap_y, ap_z = link_ap[b].T
            u_x, u_y, u_z = link_user[b].T
            e_x, e_y, e_z = elems[ap_of[b]].transpose(2, 0, 1)
            sx = ap_x[:, None] + np.cos(angles[b]) * ranges[b]
            sy = ap_y[:, None] + np.sin(angles[b]) * ranges[b]

            # per-ray path length: AP element -> scatterer -> user, (B, S, W)
            paths = sx[:, :, None] - e_x[:, None, :]
            paths *= paths
            dy = sy[:, :, None] - e_y[:, None, :]
            dy *= dy
            paths += dy
            dz = ap_z[:, None] - e_z
            paths += (dz * dz)[:, None, :]
            np.sqrt(paths, out=paths)
            dx, dy, dz = sx - u_x[:, None], sy - u_y[:, None], ap_z - u_z
            d_user = np.sqrt((dx * dx + dy * dy) + (dz * dz)[:, None])
            paths += d_user[:, :, None]

            scattered = np.einsum("bts,blsw->btlw", gains[b], _unit_phasors(wavenumbers, paths))
            los = np.flatnonzero(is_los[b])
            if los.size:
                dx = e_x[los] - u_x[los, None]
                dy = e_y[los] - u_y[los, None]
                dz = e_z[los] - u_z[los, None]
                d_los = np.sqrt((dx * dx + dy * dy) + dz * dz)
                plane = _unit_phasors(wavenumbers, d_los)
                plane *= los_amp
                scattered[los] = plane[:, None] + scatter_amp_los * scattered[los]
            yield start, scattered.transpose(1, 2, 0, 3)

    return (t_dim, l_dim, k_dim, scene.total_antennas), link_blocks()


def _unit_phasors(wavenumbers: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """exp(1j * k * length) for every wavenumber k: (B, ...) lengths give (B, L, ...).

    The exponent is built with an exact +0 real part and k * length as its
    imaginary part, the same bits as exp(1j * k * length).
    """
    b = lengths.shape[0]
    shape = (b, wavenumbers.size) + lengths.shape[1:]
    out = np.zeros(shape, dtype=np.complex128)
    k = wavenumbers.reshape((1, -1) + (1,) * (lengths.ndim - 1))
    np.multiply(k, lengths[:, None], out=out.imag)
    return np.exp(out, out=out)
