"""Separability metrics: singular value spread, water-filling, ZF sum rate,
DPC sum capacity, and the allocated-user fairness count.

Capacity conventions (K users, M antennas, mean per-user SNR rho):
the transmit scaling constant is c = rho*K/M, the DPC objective per (t, l)
slice is log2 det(I + c * H^H P H) maximized over diagonal P with tr(P) = 1,
and the ZF rate is sum_k log2(1 + c * p_k / g_k^2) with g_k^2 the k-th
diagonal entry of (H H^H)^{-1}. Tensor-level results average the per-slice
values over all (t, l); the subcarrier index of the rate average is read as
l = 1..L throughout. Every metric runs one batched linear-algebra call per
step over all slices it is given and none per slice. A channel argument is a
ChannelTensor or an array of K x M matrices read as (T, L, K, M), so a caller
may fold several equal-shape tensors into the snapshot axis; per-slice
results (`CapacityResult.slice_rates`) then belong to each tensor unchanged.
SliceBatch gives per-tensor arrays of every metric for several tensors, with
the singular values, Gram matrices and ZF gains computed once for every SNR.
It alone decides which tensors are degenerate and why, and returns a reason
per tensor with each metric's values. The kernels under it return plain
arrays, such as the ZF fault codes of `tensor._zf_gains`; exceptions are
built only where a public function raises.
Capacity results hold their allocations as read-only (S, K) power arrays;
PowerAllocation is only the typed result of the public `waterfill`.

Both optimizers accept allocation_mode="per_tl" (independent allocation per
slice, the default) or "joint" (one allocation shared by all slices, i.e. the
max over p placed outside the (t, l) average). At L = T = 1 the two agree
to within the optimizers' tolerances.
Every allocation is the one water-filling closed form p_k = max(0, mu - n_k)
of `_waterfill_rows`: per-slice ZF, each DPC best response, `waterfill`, and
the simplex projection of the joint ascent, which water-fills -v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    check_fields,
    check_number,
)
from .tensor import (
    COND_LIMIT,
    ChannelTensor,
    _as_snapshot_stack,
    _gram,
    _zf_gains,
    singular_values,
    zf_effective_gains,
)

_LN2 = math.log(2.0)

ALLOCATION_MODES = ("per_tl", "joint")

# convergence contract shared by the iterative optimizers
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERATIONS = 500

# fraction of total power below which a user counts as unallocated
ALLOCATED_EPSILON_FRACTION = 1e-12

# keeps rho and 1/rho within 1e+-300, so every metric's noise scale is finite
MAX_ABS_RHO_DB = 3000.0


@dataclass(frozen=True)
class SnrSpec:
    """Mean per-user SNR. Stored in dB; rho_linear = 10^(rho_db/10)."""

    rho_db: float

    def __post_init__(self):
        check_fields(self)
        if not abs(self.rho_db) <= MAX_ABS_RHO_DB:
            raise InvalidInputError(f"rho_db must lie within ±{MAX_ABS_RHO_DB:g} dB, got {self.rho_db!r}")

    @property
    def rho_linear(self) -> float:
        return 10.0 ** (self.rho_db / 10.0)

    @classmethod
    def from_linear(cls, rho_linear: float) -> "SnrSpec":
        rho_linear = check_number(rho_linear, "rho_linear")
        low, high = 10.0 ** (-MAX_ABS_RHO_DB / 10.0), 10.0 ** (MAX_ABS_RHO_DB / 10.0)
        if not low <= rho_linear <= high:
            raise InvalidInputError(
                f"rho_linear must lie within [{low:g}, {high:g}], got {rho_linear!r}"
            )
        return cls(10.0 * math.log10(rho_linear))


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user power vector plus the water level that produced it."""

    p: np.ndarray
    water_level: float

    def __post_init__(self):
        check_fields(self)
        p = np.array(self.p, dtype=float, copy=True)
        if p.ndim != 1 or p.shape[0] < 1:
            raise InvalidInputError("p must be a non-empty vector")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise InvalidInputError("p must be finite and non-negative")
        if not (self.water_level > 0 and math.isfinite(self.water_level)):
            raise InvalidInputError("water_level must be positive and finite")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def num_users(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of a capacity optimization.

    `powers` is an (S, K) array with one power vector per (t, l) slice in
    snapshot-major order, or a single row in joint mode. `slice_rates` holds
    each slice's rate (under the shared allocation in joint mode) and
    `slice_converged` whether its optimizer converged, in snapshot-major
    order. `iterations` is the largest iteration count any slice used. All
    three arrays are stored read-only as given.
    """

    powers: np.ndarray
    iterations: int
    slice_rates: np.ndarray
    slice_converged: np.ndarray

    def __post_init__(self):
        for array in (self.powers, self.slice_rates, self.slice_converged):
            array.setflags(write=False)

    @property
    def sum_rate_bits_per_s_per_hz(self) -> float:
        """The mean of `slice_rates`."""
        return float(np.mean(self.slice_rates))

    @property
    def converged(self) -> bool:
        """Whether every slice converged."""
        return bool(np.all(self.slice_converged))


def _slice_stack(ch) -> np.ndarray:
    """A ChannelTensor's data, or an array of 2 to 4 dims read as (T, L, K, M).

    The K <= M check that ZF and the spread need is left to the tensor
    kernels; DPC is defined for any K.
    """
    if isinstance(ch, ChannelTensor):
        return ch.data
    m = _as_snapshot_stack(ch, require_tall=False)
    if m.ndim > 4:
        raise DimensionError(
            f"expected a ChannelTensor or an array of K x M matrices with at most "
            f"2 leading dims, got {m.ndim}-D"
        )
    return m.reshape((1,) * (4 - m.ndim) + m.shape)


def svs(ch) -> float:
    """Singular value spread in dB, averaged over the (t, l) slices.

    Per slice 10*log10(sigma_max/sigma_min); 0 dB means equal singular values
    (mutually orthogonal equal-gain users). Returns math.inf as an explicit
    saturation marker when any slice is rank deficient (condition number
    >= 1e12), never a silent large number.
    """
    spreads, _ = SliceBatch(_slice_stack(ch)[None]).spreads()
    return float(spreads[0])


def _waterfill_rows(noise: np.ndarray, budget: float) -> tuple:
    """Row-wise exact water-filling of an (S, K) noise array.

    Sort-based closed form per row: p_k = max(0, mu - n_k). A +inf noise
    marks a user that may not take power; every row needs one finite entry.
    A row whose powers miss the budget by more than 1e-12 of it (the budget
    lies within a few float spacings of the noise, so budget + n rounds it
    away) is solved again on its noise less its quietest noise, where the
    budget is exact. Returns (p with the shape of noise, water level per row).
    """
    p, mu = _water_levels(noise, budget)
    missed = np.abs(p.sum(axis=1) - budget) > 1e-12 * budget
    if missed.any():
        floor = np.min(noise[missed], axis=1)
        p[missed], mu[missed] = _water_levels(noise[missed] - floor[:, None], budget)
        mu[missed] += floor
    return p, mu


def _water_levels(noise: np.ndarray, budget: float) -> tuple:
    """The closed form of _waterfill_rows, exact while budget + n keeps the budget."""
    k = noise.shape[1]
    sorted_noise = np.sort(noise, axis=1)
    levels = (budget + np.cumsum(sorted_noise, axis=1)) / np.arange(1, k + 1, dtype=float)
    # mu is the level of the largest active set whose noisiest user lies
    # strictly under water
    active = k - np.argmax((levels > sorted_noise)[:, ::-1], axis=1)
    mu = levels[np.arange(noise.shape[0]), active - 1]
    return np.maximum(mu[:, None] - noise, 0.0), mu


def waterfill(noise_levels, budget) -> PowerAllocation:
    """Exact water-filling: maximize sum log2(1 + p_k/n_k), sum p = budget.

    Sort-based closed form. p_k = max(0, mu - n_k); a user whose noise equals
    the water level exactly gets zero power. KKT holds to float precision:
    p_k + n_k = mu for active users, n_k >= mu for the rest.
    """
    noise = np.asarray(noise_levels, dtype=float)
    if noise.ndim != 1 or noise.shape[0] < 1:
        raise InvalidInputError("noise_levels must be a non-empty vector")
    if not np.all(np.isfinite(noise)) or np.any(noise <= 0):
        raise InvalidInputError("noise levels must be finite and positive")
    budget = check_number(budget, "budget")
    if not (budget > 0 and math.isfinite(budget)):
        raise InvalidInputError("budget must be positive and finite")
    p, mu = _waterfill_rows(noise[None, :], budget)
    return PowerAllocation(p[0], water_level=float(mu[0]))


def count_allocated_users(powers):
    """Users holding more than 1e-12 of the total power, per vector of `powers`:
    one power vector (an integer) or an (..., K) array such as CapacityResult.powers."""
    p = np.asarray(powers, dtype=float)
    if p.ndim < 1 or p.shape[-1] < 1 or not np.all(np.isfinite(p)) or np.any(p < 0):
        raise InvalidInputError("powers must be finite, non-negative vectors of >= 1 user")
    eps = ALLOCATED_EPSILON_FRACTION * p.sum(axis=-1)
    return np.count_nonzero(p > eps[..., None], axis=-1)


def _require_snr(snr) -> SnrSpec:
    if not isinstance(snr, SnrSpec):
        raise InvalidInputError("snr must be an SnrSpec")
    return snr


def _check_mode(allocation_mode: str) -> str:
    if allocation_mode not in ALLOCATION_MODES:
        raise InvalidInputError(
            f"allocation_mode must be one of {ALLOCATION_MODES}, got {allocation_mode!r}"
        )
    return allocation_mode


def _ascend_on_simplex(rates_at, gradient, k, tol, max_iterations) -> CapacityResult:
    """Joint allocation by projected gradient ascent on the simplex.

    `rates_at(p)` gives every slice's rate under p; the objective is their
    mean. Armijo backtracking makes it monotone. The Euclidean projection of
    v onto {p >= 0, sum p = 1} is water-filling of -v under unit budget.
    """
    p = np.full(k, 1.0 / k)
    rates = rates_at(p)
    value = float(np.mean(rates))
    grad = gradient(p)
    step = 1.0
    iterations = 0
    converged = False
    for it in range(1, max_iterations + 1):
        iterations = it
        accepted = False
        candidate = p
        cand_rates, cand_value = rates, value
        for _ in range(60):
            candidate = _waterfill_rows(-(p + step * grad)[None], 1.0)[0][0]
            ascent = float(grad @ (candidate - p))
            if ascent <= 0.0:
                break
            cand_rates = rates_at(candidate)
            cand_value = float(np.mean(cand_rates))
            if cand_value >= value + 1e-4 * ascent:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        rel = (cand_value - value) / max(abs(cand_value), 1e-12)
        p, rates, value = candidate, cand_rates, cand_value
        if rel < tol:
            converged = True
            break
        grad = gradient(p)
        step = min(step * 2.0, 1e6)
    return CapacityResult(p[None], iterations, rates, np.full(rates.shape, converged))


def zf_sum_rate(ch, snr, allocation_mode: str = "per_tl") -> CapacityResult:
    """Zero-forcing sum rate with water-filled powers, averaged over (t, l).

    Per slice: effective noise n_k = g_k^2 * M/(rho*K) with g_k^2 from
    (H H^H)^{-1}; powers water-filled under unit budget; rate
    sum_k log2(1 + p_k/n_k). Per-slice allocation by default; joint mode
    shares one allocation across slices. Raises RankDeficiencyError naming
    the (t, l) slice whose Gram matrix is not invertible.
    """
    snr = _require_snr(snr)
    mode = _check_mode(allocation_mode)
    h = _slice_stack(ch)
    k, m = h.shape[-2:]
    noise = zf_effective_gains(h).reshape(-1, k) * m / (snr.rho_linear * k)
    return _zf_joint(noise) if mode == "joint" else _zf_per_slice(noise)


def _zf_per_slice(noise: np.ndarray) -> CapacityResult:
    """ZF water-filled on each slice of an (S, K) effective-noise grid on its own."""
    p, _ = _waterfill_rows(noise, 1.0)
    rates = np.log2(1.0 + p / noise).sum(axis=1)
    return CapacityResult(p, 1, rates, np.ones(rates.shape, dtype=bool))


def _zf_joint(noise_grid: np.ndarray) -> CapacityResult:
    """One ZF allocation shared by the slices of an (S, K) effective-noise grid."""

    def rates_at(p):
        return np.sum(np.log2(1.0 + p[None, :] / noise_grid), axis=1)

    def gradient(p):
        return np.mean(1.0 / (noise_grid + p[None, :]), axis=0) / _LN2

    k = noise_grid.shape[1]
    return _ascend_on_simplex(rates_at, gradient, k, DEFAULT_TOL, DEFAULT_MAX_ITERATIONS)


def _dpc_system(p, gram, c):
    """I + c P G for diagonal P, broadcast over leading dims of p and gram."""
    # a complex scale and an in-place identity give the bits of
    # eye + (c p) * gram at a fraction of the mixed float-complex cost;
    # adding the whole identity turns off-diagonal -0 into +0 as that sum does
    a = gram * (c * p[..., :, None] + 0j)
    a += np.eye(gram.shape[-1], dtype=complex)
    return a


def _dpc_objective(p, gram, c):
    """log2 det(I + c P G) for diagonal P; equals the M x M form exactly."""
    _, logabs = np.linalg.slogdet(_dpc_system(p, gram, c))
    return logabs / _LN2


def _dpc_interference_gains(p, gram, c):
    """Diagonal of B = G (I + c P G)^{-1}, real, over leading dims.

    B_kk/(1 - c p_k B_kk) is user k's effective channel gain with its own
    power removed from the interference background; the gradient of the
    objective is (c/ln2) B_kk.
    """
    a = _dpc_system(p, gram, c)
    b = np.linalg.solve(a.swapaxes(-1, -2), gram.swapaxes(-1, -2)).swapaxes(-1, -2)
    return np.real(np.diagonal(b, axis1=-2, axis2=-1))


def _dpc_per_slice(gram, c, tol, max_iterations):
    """Sum-power iterative water-filling on every slice of an (S, K, K) Gram stack.

    Modified best-response iteration (Jindal et al., IEEE T-IT 51(4), 2005):
    water-fill against every user's interference-reduced effective noise and
    take that full best-response step q wherever it raises the objective.
    Only where it would not does a slice take the paper's damped step
    (1 - 1/K) p + q/K instead. Monotone non-decreasing by construction. All
    live slices step together; a slice leaves the batch once it converges,
    so each one follows its own iterates. Returns (values, p, the last
    iteration that still had live slices, converged per slice).
    """
    s, k, _ = gram.shape
    step = 1.0 / k

    p = np.full((s, k), 1.0 / k)
    value = _dpc_objective(p, gram, c)
    iterations = 0
    converged = np.zeros(s, dtype=bool)
    live = np.arange(s)
    for it in range(1, max_iterations + 1):
        if live.size == 0:
            break
        iterations = it
        bkk = _dpc_interference_gains(p[live], gram[live], c)
        denom = np.maximum(1.0 - c * p[live] * bkk, 1e-300)
        inv_noise = c * np.where(bkk > 0.0, bkk / denom, 0.0)
        active = inv_noise > 1e-300
        idle = ~np.any(active, axis=1)
        converged[live[idle]] = True
        live, inv_noise, active = live[~idle], inv_noise[~idle], active[~idle]
        noise = np.full_like(inv_noise, np.inf)
        np.divide(1.0, inv_noise, out=noise, where=active)
        q, _ = _waterfill_rows(noise, 1.0)

        best_value = _dpc_objective(q, gram[live], c)
        worse = np.flatnonzero(~(best_value > value[live]))
        if worse.size:
            held = live[worse]
            q[worse] = (1.0 - step) * p[held] + step * q[worse]
            best_value[worse] = _dpc_objective(q[worse], gram[held], c)
        improved = best_value > value[live]
        rel = (best_value - value[live]) / np.maximum(np.abs(best_value), 1e-12)
        p[live[improved]] = q[improved]
        value[live[improved]] = best_value[improved]
        done = ~improved | (rel < tol)
        converged[live[done]] = True
        live = live[~done]
    return value, p, iterations, converged


def dpc_capacity(
    ch,
    snr,
    allocation_mode: str = "per_tl",
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> CapacityResult:
    """DPC sum capacity via sum-power iterative water-filling.

    Maximizes log2 det(I + c H^H P H) per (t, l) slice (c = rho*K/M) over
    diagonal P with tr(P) = 1, then averages; joint mode optimizes one P for
    the average directly. Per slice, each iteration takes the full
    best-response step q, or the damped step (1 - 1/K) p + q/K towards it
    where q would not raise the objective.
    Convergence: relative objective change < tol or max_iterations reached
    — if any slice hits the cap the result comes back with converged=False
    rather than raising. The K x K Gram identity
    det(I + c H^H P H) = det(I + c P H H^H) keeps iterations cheap for
    large M.
    """
    snr = _require_snr(snr)
    mode = _check_mode(allocation_mode)
    tol = check_number(tol, "tol")
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidInputError("tol must be positive and finite")
    max_iterations = check_number(max_iterations, "max_iterations", int)
    if max_iterations < 1:
        raise InvalidInputError("max_iterations must be >= 1")
    h = _slice_stack(ch)
    k, m = h.shape[-2:]
    gram = _gram(h.reshape(-1, k, m))
    c = snr.rho_linear * k / m
    if mode == "joint":
        return _dpc_joint(gram, c, tol, max_iterations)
    values, p, iterations, converged = _dpc_per_slice(gram, c, tol, max_iterations)
    return CapacityResult(p, iterations, values, converged)


def _dpc_joint(gram: np.ndarray, c: float, tol: float, max_iterations: int) -> CapacityResult:
    """One DPC allocation shared by the slices of an (S, K, K) Gram stack."""

    def rates_at(p):
        return _dpc_objective(p, gram, c)

    def gradient(p):
        return np.mean(c * _dpc_interference_gains(p, gram, c), axis=0) / _LN2

    return _ascend_on_simplex(rates_at, gradient, gram.shape[-1], tol, max_iterations)


class SliceBatch:
    """Equal-shape channel tensors ("items") evaluated together.

    Built from an (items, T, L, K, M) array. Entry i of every value array
    that `spreads`, `zf` and `dpc` return equals what svs, zf_sum_rate (and
    the mean count_allocated_users of its powers) and dpc_capacity give on
    item i alone: each kernel treats every slice on its own, so stacking
    neither mixes items nor changes a bit. Each also returns, last, a reason
    per item: None, or why its value is degenerate. One batched SVD serves
    the spread and the ZF condition check, and the ZF gains are computed
    once for every SNR.
    """

    def __init__(self, stack: np.ndarray):
        self.stack = stack
        self.items, _, _, self.k, self.m = stack.shape

    @cached_property
    def sv(self) -> np.ndarray:
        """(items, T, L, K) singular values, descending; needs K <= M."""
        return singular_values(self.stack)

    def spreads(self) -> tuple:
        """(svs() of each item's slices, reasons): inf where a slice saturates."""
        smax, smin = self.sv[..., 0].ravel(), self.sv[..., -1].ravel()
        saturated = (smin <= 0.0) | (smax >= COND_LIMIT * smin)
        ratios = np.divide(smax, smin, out=np.ones_like(smax), where=~saturated)
        # scalar log10 per slice: numpy's vector log10 may round differently
        db = np.array([10.0 * math.log10(r) for r in ratios.tolist()])
        bad = saturated.reshape(self.items, -1).any(axis=1)
        values = np.where(bad, math.inf, db.reshape(self.items, -1).mean(axis=1))
        return values, np.where(bad, "saturated singular-value spread (rank-deficient draw)", None)

    @cached_property
    def _zf(self) -> tuple:
        """(ZF gains (items, T, L, K), reasons): an item fails at every SNR
        where zf_sum_rate raises on it, named by its first faulty slice."""
        gains, faults = _zf_gains(self.sv, self.stack)
        flat = faults.reshape(self.items, -1)
        t, l = np.unravel_index(np.argmax(flat != 0, axis=1), faults.shape[1:])
        reasons = np.full(self.items, None, dtype=object)
        for i in np.flatnonzero(flat.any(axis=1)):
            reasons[i] = f"rank-deficient slice at (t={t[i]}, l={l[i]})"
        return gains, reasons

    def zf(self, snr: SnrSpec, mode: str) -> tuple:
        """(sum rates, mean allocated users, reasons) over the items; NaN
        where ZF fails."""
        gains, reasons = self._zf
        ok = np.array([r is None for r in reasons])
        rates, users = np.full(self.items, np.nan), np.full(self.items, np.nan)
        if not ok.any():
            return rates, users, reasons
        n = int(ok.sum())
        noise = gains[ok].reshape(n, -1, self.k) * self.m / (snr.rho_linear * self.k)
        if mode == "per_tl":
            res = _zf_per_slice(noise.reshape(-1, self.k))
            rates[ok] = res.slice_rates.reshape(n, -1).mean(axis=1)
            users[ok] = count_allocated_users(res.powers).reshape(n, -1).mean(axis=1)
        else:
            results = [_zf_joint(grid) for grid in noise]
            rates[ok] = [r.sum_rate_bits_per_s_per_hz for r in results]
            users[ok] = [np.mean(count_allocated_users(r.powers)) for r in results]
        return rates, users, reasons

    def dpc(self, snr: SnrSpec, mode: str) -> tuple:
        """(sum rates, reasons) over the items; a reason marks a run that hit
        the iteration cap. Per-slice allocation treats every slice on its
        own, so one dpc_capacity call on the items folded into the snapshot
        axis serves them all; joint is one call per item."""
        if mode == "joint":
            results = [dpc_capacity(item, snr, mode) for item in self.stack]
            rates = np.array([r.sum_rate_bits_per_s_per_hz for r in results])
            converged = np.array([r.converged for r in results])
            capped = "projected gradient ascent hit the iteration cap"
        else:
            res = dpc_capacity(self.stack.reshape((-1,) + self.stack.shape[2:]), snr, mode)
            rates = res.slice_rates.reshape(self.items, -1).mean(axis=1)
            converged = res.slice_converged.reshape(self.items, -1).all(axis=1)
            capped = "iterative water-filling hit the iteration cap"
        return rates, np.where(converged, None, capped)
