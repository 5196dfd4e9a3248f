"""Reference oracles, and the brute-force validation suite behind `dmimo oracle`.

Each oracle recomputes a quantity with a slow, independent method (Gram
eigendecomposition for singular values, cofactor inverse, bisection water
level, grid search over the two-user simplex, counting CDF) and shares no
code path with the routine it checks. The one self-referential check runs
per-slice DPC against itself at tol=1e-15 and 20,000 iterations; a slice
on which the damped step must take over is also checked against the
joint-mode gradient ascent. The test suite's frozen values were computed by
these oracles, and the tests import them from here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, check_number
from .metrics import SnrSpec, dpc_capacity, svs, waterfill, zf_sum_rate
from .stats import compute_cdf
from .tensor import singular_values, zf_effective_gains

# seed of the suite's random draws unless a caller asks for another
DEFAULT_SEED = 2025


def waterfill_bisection(noise, budget=1.0, tol=1e-15):
    """Water-filling by bisection on the water level.

    p_k(mu) = max(mu - n_k, 0) is nondecreasing in mu, so the level that
    spends exactly `budget` is found by bisection.
    """
    noise = np.asarray(noise, dtype=float)
    lo = float(np.min(noise))
    hi = float(np.max(noise)) + float(budget)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(mid - noise, 0.0).sum() > budget:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
    mu = 0.5 * (lo + hi)
    return np.maximum(mu - noise, 0.0), mu


def singular_values_gram(matrix):
    """Singular values via eigendecomposition of the Gram matrix H @ H^H."""
    gram = matrix @ matrix.conj().T
    eigvals = np.linalg.eigvalsh(gram)
    return np.sqrt(np.maximum(eigvals[::-1], 0.0))


def inverse_cofactor_3x3(a):
    """Inverse of a 3x3 complex matrix by cofactor expansion."""
    a = np.asarray(a)
    cof = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (
                minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            )
    det = a[0, 0] * cof[0, 0] + a[0, 1] * cof[0, 1] + a[0, 2] * cof[0, 2]
    return cof.T / det


def zf_gains_cofactor(matrix):
    """Diagonal of (H @ H^H)^-1 for a 3-user channel, via cofactor inverse."""
    gram = matrix @ matrix.conj().T
    return np.real(np.diag(inverse_cofactor_3x3(gram)))


def dpc_capacity_grid_2user(matrix, rho_linear, step=1e-4):
    """Brute-force two-user DPC sum capacity: scan p0 on a grid, p1 = 1 - p0.

    Uses the closed-form 2x2 determinant of I + c P G, c = rho K / M.
    """
    k, m = matrix.shape
    if k != 2:
        raise ValueError("grid oracle is two-user only")
    c = rho_linear * k / m
    gram = matrix @ matrix.conj().T
    p0 = np.arange(0.0, 1.0 + step / 2, step)
    p0 = np.minimum(p0, 1.0)
    a = 1.0 + c * p0 * np.real(gram[0, 0])
    d = 1.0 + c * (1.0 - p0) * np.real(gram[1, 1])
    cross = (c * c) * p0 * (1.0 - p0) * (np.abs(gram[0, 1]) ** 2)
    det = a * d - cross
    return float(np.max(np.log2(det)))


def zf_rate_grid_2user(matrix, rho_linear, step=1e-4):
    """Brute-force two-user ZF sum rate with a closed-form 2x2 Gram inverse."""
    k, m = matrix.shape
    if k != 2:
        raise ValueError("grid oracle is two-user only")
    gram = matrix @ matrix.conj().T
    det = np.real(gram[0, 0]) * np.real(gram[1, 1]) - np.abs(gram[0, 1]) ** 2
    gains_sq = np.array([np.real(gram[1, 1]) / det, np.real(gram[0, 0]) / det])
    noise = gains_sq * m / (rho_linear * k)
    p0 = np.arange(0.0, 1.0 + step / 2, step)
    p0 = np.minimum(p0, 1.0)
    rates = np.log2(1.0 + p0 / noise[0]) + np.log2(1.0 + (1.0 - p0) / noise[1])
    return float(np.max(rates))


def cdf_by_counting(samples, grid):
    """Empirical CDF by direct counting; non-finite samples only inflate n."""
    samples = np.asarray(samples, dtype=float)
    finite = samples[np.isfinite(samples)]
    n = len(samples)
    return np.array([np.count_nonzero(finite <= x) / n for x in grid])


def _complex_draw(gen, shape):
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / math.sqrt(2.0)


def damped_step_slice():
    """A 5-user, 2-antenna slice and its SNR on which per-slice DPC's full
    best-response step q lowers the objective at iteration 2, so the damped
    step (1 - 1/K) p + q/K must take over. Such slices are rare: 11 of the
    300,000 draws of default_rng(0..299999) made this way; this is the draw
    of seed 54421."""
    gen = np.random.default_rng(54421)
    matrix = _complex_draw(gen, (5, 2))
    return matrix, SnrSpec.from_linear(10.0 ** gen.uniform(-1.0, 3.0))


def run_selfcheck(report=print, seed: int = DEFAULT_SEED) -> bool:
    """Run every brute-force check; prints one PASS/FAIL line per check."""
    seed = check_number(seed, "seed", int)
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    all_ok = True

    def judge(name, ok, detail):
        nonlocal all_ok
        all_ok = all_ok and ok
        report(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")

    gen = np.random.default_rng(seed)

    worst = 0.0
    for _ in range(200):
        k = int(gen.integers(2, 13))
        noise = gen.uniform(0.05, 5.0, k)
        budget = float(gen.uniform(0.2, 4.0))
        fast = waterfill(noise, budget)
        slow, _ = waterfill_bisection(noise, budget)
        worst = max(worst, float(np.max(np.abs(fast.p - slow))))
    judge("waterfill-vs-bisection", worst < 1e-9, f"max |dp| = {worst:.2e} over 200 draws")

    worst = 0.0
    for i in range(20):
        matrix = _complex_draw(gen, (2, 4))
        for rho_db in (0.0, 10.0, 20.0):
            snr = SnrSpec(rho_db)
            grid_dpc = dpc_capacity_grid_2user(matrix, snr.rho_linear)
            grid_zf = zf_rate_grid_2user(matrix, snr.rho_linear)
            err_d = abs(dpc_capacity(matrix, snr).sum_rate_bits_per_s_per_hz - grid_dpc)
            err_z = abs(zf_sum_rate(matrix, snr).sum_rate_bits_per_s_per_hz - grid_zf)
            worst = max(worst, err_d, err_z)
    judge(
        "capacity-vs-grid-search",
        worst < 1e-3,
        f"max |dC| = {worst:.2e} bit/s/Hz over 20 draws x 3 SNRs",
    )

    worst = 0.0
    for _ in range(50):
        k = int(gen.integers(1, 9))
        m = int(gen.integers(k, 17))
        matrix = _complex_draw(gen, (k, m))
        sv = singular_values(matrix)
        ref = singular_values_gram(matrix)
        worst = max(worst, float(np.max(np.abs(sv - ref) / ref[0])))
        kappa = svs(matrix)
        ref_kappa = 10.0 * math.log10(ref[0] / ref[-1])
        worst = max(worst, abs(kappa - ref_kappa) / max(ref_kappa, 1.0))
    judge("svd-vs-gram-eigendecomposition", worst < 1e-9, f"max rel err = {worst:.2e}")

    worst = 0.0
    for _ in range(50):
        matrix = _complex_draw(gen, (3, 8))
        gains = zf_effective_gains(matrix)
        ref = zf_gains_cofactor(matrix)
        worst = max(worst, float(np.max(np.abs(gains - ref) / ref)))
    judge("zf-gains-vs-cofactor-inverse", worst < 1e-9, f"max rel err = {worst:.2e}")

    ok = True
    for _ in range(10):
        samples = gen.normal(size=200)
        table = compute_cdf(samples, 64)
        ok = ok and np.array_equal(table.probs, cdf_by_counting(samples, table.grid))
    judge("cdf-vs-counting", ok, "10 draws, exact match")

    worst = 0.0
    cases = [damped_step_slice()]
    for _ in range(32):
        matrix = _complex_draw(gen, (12, int(gen.integers(12, 129))))
        cases.append((matrix, SnrSpec(float(gen.uniform(-10.0, 30.0)))))
    for matrix, snr in cases:
        fast = dpc_capacity(matrix, snr)
        ref = dpc_capacity(matrix, snr, tol=1e-15, max_iterations=20000)
        a, b = fast.sum_rate_bits_per_s_per_hz, ref.sum_rate_bits_per_s_per_hz
        worst = max(worst, abs(a - b) / b)
    judge(
        "dpc-per-slice-vs-tight-tol",
        worst < 1e-8,
        f"max rel dC = {worst:.2e} over 32 12-user slices + 1 damped-step slice",
    )

    # projected gradient ascent shares no step rule with the best response
    matrix, snr = cases[0]
    a = dpc_capacity(matrix, snr).sum_rate_bits_per_s_per_hz
    b = dpc_capacity(matrix, snr, allocation_mode="joint").sum_rate_bits_per_s_per_hz
    err = abs(a - b) / b
    judge("dpc-damped-step-vs-joint-ascent", err < 1e-6, f"rel dC = {err:.2e}")

    return all_ok
