"""Channel tensor container, seeded randomness, and the dense linear algebra
every separability metric builds on.

A ChannelTensor holds complex coefficients indexed (snapshot t, subcarrier l,
user k, antenna m) with the antenna axis fastest-varying, plus a per-antenna
access-point map. The kernels here take one K x M snapshot matrix or a stack
of them with leading dims, and run one batched LAPACK call over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, RankDeficiencyError, check_fields

# condition number at and above which a matrix is treated as singular
COND_LIMIT = 1e12


@dataclass(frozen=True)
class ChannelTensor:
    """Immutable complex channel tensor with shape (T, L, K, M).

    Parameters
    ----------
    data : array_like
        Complex coefficients, shape (T, L, K, M): snapshot, subcarrier,
        user, antenna. A complex128, C-contiguous, read-only ndarray that
        owns its memory (``base is None``) is adopted as is, without a copy;
        anything else, a writable array included, is copied to complex128
        and frozen, so a caller's later writes never reach the tensor.
    antenna_ap_map : array_like
        Length-M integer vector; entry m is the access-point index owning
        antenna column m. Each AP's antennas must form one contiguous run.
    """

    data: np.ndarray
    antenna_ap_map: np.ndarray

    def __post_init__(self):
        data = self.data
        if not _adoptable(data):
            data = np.array(data, dtype=np.complex128, order="C", copy=True)
        if data.ndim != 4:
            raise DimensionError(
                f"channel tensor must be 4-D (T, L, K, M), got {data.ndim}-D"
            )
        if min(data.shape) < 1:
            raise DimensionError(f"all dims must be >= 1, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("channel tensor entries must all be finite")
        ap_map = np.array(self.antenna_ap_map, dtype=np.int64, copy=True)
        if ap_map.ndim != 1 or ap_map.shape[0] != data.shape[3]:
            raise DimensionError(
                f"antenna_ap_map must be a length-{data.shape[3]} vector, "
                f"got shape {ap_map.shape}"
            )
        if np.any(ap_map < 0):
            raise InvalidInputError("antenna_ap_map entries must be non-negative")
        # every AP id must occupy a single unbroken run of antenna columns
        run_ids = _ap_runs(ap_map)
        if len(np.unique(run_ids)) != len(run_ids):
            raise InvalidInputError(
                "antenna_ap_map must group each AP's antennas contiguously"
            )
        data.setflags(write=False)
        ap_map.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "antenna_ap_map", ap_map)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def num_snapshots(self) -> int:
        return self.data.shape[0]

    @property
    def num_subcarriers(self) -> int:
        return self.data.shape[1]

    @property
    def num_users(self) -> int:
        return self.data.shape[2]

    @property
    def num_antennas(self) -> int:
        return self.data.shape[3]

    @property
    def ap_ids(self) -> tuple[int, ...]:
        """Distinct AP ids in antenna order."""
        return tuple(ap_columns(self.antenna_ap_map))

    @property
    def num_aps(self) -> int:
        return len(self.ap_ids)

    def slice_matrix(self, t: int, l: int) -> np.ndarray:
        """The K x M snapshot matrix at (snapshot t, subcarrier l)."""
        return self.data[t, l]


def _adoptable(data) -> bool:
    """Whether ChannelTensor may keep `data` itself: no other array can write
    to it, and it already has the layout a copy would give it."""
    return (
        type(data) is np.ndarray
        and data.dtype == np.complex128
        and data.flags.c_contiguous
        and not data.flags.writeable
        and data.base is None
    )


def _ap_runs(antenna_ap_map: np.ndarray) -> np.ndarray:
    """The AP id of each unbroken run of antenna columns, in antenna order."""
    boundaries = np.flatnonzero(np.diff(antenna_ap_map) != 0) + 1
    return antenna_ap_map[np.concatenate(([0], boundaries))]


def ap_columns(antenna_ap_map: np.ndarray) -> dict:
    """Each AP id of a valid antenna map, in antenna order, mapped to the
    antenna columns it owns."""
    return {int(ap): np.flatnonzero(antenna_ap_map == ap) for ap in _ap_runs(antenna_ap_map)}


@dataclass(frozen=True)
class RngHandle:
    """Root of a deterministic random stream.

    The same (seed, stream) pair reproduces the same draw sequence on every
    run and in any process; distinct stream ids give statistically
    independent sequences, so concurrent workers each own one handle.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        check_fields(self)
        for name in ("seed", "stream"):
            if not 0 <= getattr(self, name) < 2**64:
                raise InvalidInputError(f"{name} must fit in an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(seq))


def _generator(rng) -> np.random.Generator:
    """The draw source behind an RngHandle or numpy Generator argument."""
    if isinstance(rng, RngHandle):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidInputError("rng must be an RngHandle or numpy Generator")


def _as_snapshot_stack(matrix, require_tall: bool = True) -> np.ndarray:
    """A K x M snapshot matrix, or a stack of them with leading dims."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim < 2:
        raise DimensionError(f"snapshot matrix must be (..., K, M), got {m.ndim}-D")
    if require_tall and m.shape[-2] > m.shape[-1]:
        raise DimensionError(
            f"need K <= M, got K={m.shape[-2]} users over M={m.shape[-1]} antennas"
        )
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("snapshot matrix entries must all be finite")
    return m


def singular_values(matrix) -> np.ndarray:
    """Singular values of a K x M snapshot matrix (or a stack), descending.

    Satisfies sum(sigma_k^2) = ||m||_F^2 and sigma_k >= 0 per matrix.
    """
    return np.linalg.svd(_as_snapshot_stack(matrix), compute_uv=False)


def zf_effective_gains(matrix) -> np.ndarray:
    """Diagonal of (H @ H^H)^-1: per-user squared gains under zero-forcing.

    Accepts one K x M matrix or a stack with leading dims and returns gains
    of shape (..., K). Raises RankDeficiencyError when a Gram matrix has
    condition number >= COND_LIMIT or its inverse is not positive definite;
    on a (T, L, K, M) stack the error names the first offending (t, l) in
    snapshot-major order, a singular one before any other.
    """
    m = _as_snapshot_stack(matrix)
    sv = np.linalg.svd(m, compute_uv=False)
    (gains,), (faults,) = _zf_gains(sv[None], _gram(m)[None])
    bad = np.flatnonzero(faults)
    if bad.size:
        first = int(bad[0])
        t, l = map(int, np.unravel_index(first, faults.shape)) if faults.ndim == 2 else (None, None)
        raise RankDeficiencyError(_ZF_FAULTS[faults.flat[first]], snapshot=t, subcarrier=l)
    return gains


def _gram(h: np.ndarray) -> np.ndarray:
    """Gram matrices H H^H of a stack of K x M matrices."""
    return h @ h.conj().swapaxes(-1, -2)


# the message of each _zf_gains fault code
_ZF_FAULTS = (
    None,
    "channel Gram matrix is singular or near-singular "
    f"(squared condition >= {COND_LIMIT:.0e})",
    "channel Gram inverse lost positive definiteness",
)


def _zf_gains(sv: np.ndarray, gram: np.ndarray) -> tuple:
    """zf_effective_gains of each item of a stack, without raising.

    `sv` (items, ..., K) holds each matrix's descending singular values and
    `gram` (items, ..., K, K) its Gram matrix. Returns (gains (items, ..., K),
    faults (items, ...)): an int8 code per matrix, 0 if it is usable, 1 if
    it is singular, 2 if its inverse is not positive definite. An item with
    a singular matrix keeps NaN gains and never reaches the batched inverse,
    so it cannot fail the other items, and its other matrices read 0.
    """
    smax, smin = sv[..., 0], sv[..., -1]
    # gram condition is the squared singular-value ratio
    singular = (smin <= 0.0) | (smax * smax >= COND_LIMIT * (smin * smin))
    ok = ~singular.reshape(len(sv), -1).any(axis=1)
    gains = np.full(sv.shape, np.nan)
    gains[ok] = np.real(np.diagonal(np.linalg.inv(gram[ok]), axis1=-2, axis2=-1))
    faults = singular.astype(np.int8)
    faults[ok] = np.where(np.all(gains[ok] > 0.0, axis=-1), 0, 2)
    return gains, faults
