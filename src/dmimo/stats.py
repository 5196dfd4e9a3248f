"""Empirical CDF tables for metric samples.

Saturated measurements (singular value spread of a rank-deficient matrix is
reported as +inf) are not numeric samples: they count in the denominator but
live in a separate tail mass, so a CDF of mostly-finite data still tops out
below 1 when saturation occurred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleError, InvalidInputError, check_fields, check_number

# grid size of a CDF table unless a caller asks for another
CDF_GRID_POINTS = 512


@dataclass(frozen=True)
class CdfTable:
    """Empirical CDF evaluated on a uniform grid.

    probs[i] = (number of finite samples <= grid[i]) / num_samples, so the
    curve is right-continuous and reaches 1 - saturated_mass at the top of
    the grid.
    """

    grid: np.ndarray
    probs: np.ndarray
    num_samples: int
    num_saturated: int

    def __post_init__(self):
        check_fields(self)
        grid = np.array(self.grid, dtype=float, copy=True)
        probs = np.array(self.probs, dtype=float, copy=True)
        if grid.ndim != 1 or probs.shape != grid.shape:
            raise InvalidInputError("grid and probs must be matching vectors")
        grid.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "probs", probs)

    @property
    def saturated_mass(self) -> float:
        return self.num_saturated / self.num_samples


def compute_cdf(samples, grid_points: int = CDF_GRID_POINTS) -> CdfTable:
    """Empirical CDF of `samples` on a uniform grid over [min, max].

    +inf entries are saturation markers: counted in the denominator and in
    num_saturated, never on the grid. NaN or -inf entries are rejected, and
    a sample set with no finite entry raises EmptySampleError.
    """
    grid_points = check_number(grid_points, "grid_points", int)
    if grid_points < 1:
        raise InvalidInputError("grid_points must be >= 1")
    values = np.asarray(samples, dtype=float).ravel()
    if values.size == 0:
        raise EmptySampleError("no samples given")
    if np.any(np.isnan(values)):
        raise InvalidInputError("samples must not contain NaN")
    if np.any(np.isneginf(values)):
        raise InvalidInputError("samples must not contain -inf")
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise EmptySampleError("no finite samples given")
    num_saturated = int(values.size - finite.size)
    grid = np.linspace(float(finite.min()), float(finite.max()), grid_points)
    ordered = np.sort(finite)
    counts = np.searchsorted(ordered, grid, side="right")
    probs = counts / values.size
    return CdfTable(
        grid=grid,
        probs=probs,
        num_samples=int(values.size),
        num_saturated=num_saturated,
    )
