"""Separability and capacity metrics against independent references."""

import functools
import math

import numpy as np
import pytest

from dmimo import (
    CapacityResult,
    ChannelTensor,
    DimensionError,
    InvalidInputError,
    PowerAllocation,
    RankDeficiencyError,
    RngHandle,
    SnrSpec,
    count_allocated_users,
    dpc_capacity,
    gen_iid_rayleigh,
    svs,
    waterfill,
    zf_effective_gains,
    zf_sum_rate,
)

from dmimo import metrics
from dmimo.metrics import SliceBatch, _dpc_system, _waterfill_rows
from dmimo.selfcheck import (
    damped_step_slice,
    dpc_capacity_grid_2user,
    singular_values_gram,
    waterfill_bisection,
    zf_rate_grid_2user,
)
from oracles import orthogonal_rows


def cplx(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def mixed_effort_tensor():
    """Six i.i.d. slices whose DPC solves stop after 2, 3 or 4 iterations."""
    return gen_iid_rayleigh((2, 3, 3, 12), RngHandle(56, 0))


def per_slice_results(fn, ch):
    """`fn` on each (t, l) matrix of `ch` alone, snapshot-major."""
    return [
        fn(ch.slice_matrix(t, l))
        for t in range(ch.num_snapshots)
        for l in range(ch.num_subcarriers)
    ]


def assert_matches_slices(out, singles):
    """A tensor result is exactly the slice results, averaged."""
    rates = [r.sum_rate_bits_per_s_per_hz for r in singles]
    assert out.sum_rate_bits_per_s_per_hz == np.mean(rates)
    assert len(out.powers) == len(singles)
    for p, single in zip(out.powers, singles):
        assert np.array_equal(p, single.powers[0])


# frozen from the bisection water-filling oracle:
# noise = default_rng(2024).uniform(0.1, 5.0, 12), unit budget
WF_P_SEED2024 = np.array(
    [
        0.0, 0.0, 0.0, 0.0, 0.0,
        0.2530296103740397,
        0.5642103898124985,
        0.06392881813170581,
        0.0,
        0.11883118168175666,
        0.0, 0.0,
    ]
)
WF_MU_SEED2024 = 1.0499655052462935

# frozen from the exhaustive 2-user grid oracles, seed 7, K=2, M=4, rho=10
DPC_GRID_SEED7 = 3.802813066088311
ZF_GRID_SEED7 = 2.453603516592579


class TestSnrSpec:
    def test_db_to_linear(self):
        assert SnrSpec(10.0).rho_linear == pytest.approx(10.0, rel=1e-15)
        assert SnrSpec(0.0).rho_linear == 1.0
        assert SnrSpec.from_linear(2.0).rho_db == pytest.approx(3.0102999566398, rel=1e-12)

    def test_validation(self):
        for rho_db in (math.nan, 3000.5, -3000.5, 3083.0):
            with pytest.raises(InvalidInputError):
                SnrSpec(rho_db)
        with pytest.raises(InvalidInputError):
            SnrSpec.from_linear(0.0)
        with pytest.raises(InvalidInputError):
            SnrSpec.from_linear(-3.0)

    @pytest.mark.parametrize("value", ["x", None, True, "10", [10.0]])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(InvalidInputError, match="rho_db must be a number"):
            SnrSpec(value)

    def test_numpy_numbers_accepted(self):
        assert SnrSpec(np.float32(1.5)).rho_db == 1.5
        assert SnrSpec(np.int64(3)).rho_db == 3.0
        assert type(SnrSpec(np.float64(2.0)).rho_db) is float


class TestPowerAllocation:
    def test_fields(self):
        alloc = PowerAllocation([0.5, 0.5], 1.0)
        assert alloc.num_users == 2
        with pytest.raises(ValueError):
            alloc.p[0] = 2.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            PowerAllocation([-0.1, 1.1], 1.0)
        with pytest.raises(InvalidInputError):
            PowerAllocation([], 1.0)
        with pytest.raises(InvalidInputError):
            PowerAllocation([1.0], 0.0)
        with pytest.raises(InvalidInputError):
            PowerAllocation([np.inf], 1.0)


class TestCapacityResult:
    @pytest.mark.parametrize("fn", [dpc_capacity, zf_sum_rate])
    @pytest.mark.parametrize("mode", ["per_tl", "joint"])
    def test_arrays_are_read_only(self, fn, mode):
        ch = gen_iid_rayleigh((2, 3, 3, 8), RngHandle(73, 0))
        out = fn(ch, SnrSpec(10.0), allocation_mode=mode)
        rows = 6 if mode == "per_tl" else 1
        assert out.powers.shape == (rows, 3)
        for array in (out.powers, out.slice_rates, out.slice_converged):
            with pytest.raises(ValueError):
                array[0] = 0


class TestSvs:
    def test_single_user_is_zero(self):
        assert svs(np.ones((1, 8))) == 0.0

    def test_diagonal(self):
        assert svs(np.diag([2.0, 1.0])) == pytest.approx(10.0 * math.log10(2.0), rel=1e-12)

    def test_identity_is_zero(self):
        assert svs(np.eye(4)) == 0.0

    def test_matches_oracle_extremes(self):
        mat = cplx(np.random.default_rng(50), (12, 128))
        ref = singular_values_gram(mat)
        expected = 10.0 * math.log10(ref[0] / ref[-1])
        assert svs(mat) == pytest.approx(expected, abs=1e-6)

    def test_rank_deficient_saturates_to_marker(self):
        mat = np.array([[1.0, 2.0], [2.0, 4.0]])
        out = svs(mat)
        assert out == math.inf
        assert not np.isnan(out)

    def test_unitary_right_multiplication_invariant(self):
        rng = np.random.default_rng(51)
        mat = cplx(rng, (4, 12))
        q, _ = np.linalg.qr(cplx(rng, (12, 12)))
        assert svs(mat @ q) == pytest.approx(svs(mat), abs=1e-9)

    def test_scaling_invariant(self):
        rng = np.random.default_rng(52)
        mat = cplx(rng, (3, 6))
        assert svs(2.5 * mat) == pytest.approx(svs(mat), abs=1e-10)

    def test_tensor_averages_slices(self):
        ch = mixed_effort_tensor()
        assert svs(ch) == np.mean(per_slice_results(svs, ch))
        data = np.array(ch.data)
        data[1, 2, 1] = data[1, 2, 0]
        assert svs(ChannelTensor(data, ch.antenna_ap_map)) == math.inf


class TestWaterfill:
    def test_equal_noise_splits_evenly(self):
        alloc = waterfill([0.5, 0.5], 1.0)
        assert np.allclose(alloc.p, [0.5, 0.5])
        assert alloc.water_level == pytest.approx(1.0)

    def test_tie_user_gets_zero(self):
        # noise exactly at the water level is excluded, not half-included
        alloc = waterfill([1.0, 2.0], 1.0)
        assert alloc.p.tolist() == [1.0, 0.0]
        assert alloc.water_level == 2.0
        # a user a few ulps under the water level gets max(0, mu - n) > 0 all
        # the same, also in a row with a user barred by +inf noise
        noise = np.array([14.75106272916899, 14.751062729168995, 11.503206981963643])
        budget = 3.2478557472053478
        alloc = waterfill(noise, budget)
        barred = np.append(noise, np.inf)
        p, mu = _waterfill_rows(barred[None], budget)
        for got, level, n in ((alloc.p, alloc.water_level, noise), (p[0], mu[0], barred)):
            assert np.array_equal(got, np.maximum(level - n, 0.0))
            assert got[0] > 0.0
            assert got.sum() == pytest.approx(budget, rel=1e-12, abs=0.0)

    def test_frozen_seeded_vector(self):
        noise = np.random.default_rng(2024).uniform(0.1, 5.0, 12)
        alloc = waterfill(noise, 1.0)
        assert np.allclose(alloc.p, WF_P_SEED2024, rtol=0, atol=1e-9)
        assert alloc.water_level == pytest.approx(WF_MU_SEED2024, abs=1e-9)

    def test_agrees_with_bisection(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            k = int(rng.integers(1, 16))
            noise = rng.uniform(0.05, 8.0, k)
            budget = float(rng.uniform(0.2, 4.0))
            mine = waterfill(noise, budget)
            ref_p, ref_mu = waterfill_bisection(noise, budget)
            assert np.allclose(mine.p, ref_p, atol=1e-9)
            assert mine.water_level == pytest.approx(ref_mu, abs=1e-9)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(54)
        draws = []
        for _ in range(2000):
            k = int(rng.integers(1, 17))
            noise = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), k))
            draws.append((noise, float(rng.uniform(0.1, 10.0))))
        # a unit budget down to a few float spacings of the noise, where
        # budget + n rounds the budget away
        for _ in range(2000):
            k = int(rng.integers(1, 17))
            draws.append((np.exp(rng.uniform(np.log(1e-3), np.log(1e20), k)), 1.0))
        for noise in ([9214408719149346.0, 1.6e16], [1e17, 2e17, 3e17], [1e17, 1e17]):
            draws.append((np.array(noise), 1.0))
        for noise, budget in draws:
            alloc = waterfill(noise, budget)
            mu = alloc.water_level
            assert abs(alloc.p.sum() - budget) <= 1e-12 * budget, (noise, budget)
            active = alloc.p > 0
            assert np.all(np.abs(alloc.p[active] + noise[active] - mu) <= 1e-10 * max(1.0, mu))
            assert np.all(noise[~active] >= mu - 1e-10 * max(1.0, mu))

    def test_rows_with_barred_users_match_the_subset(self):
        # DPC bars a user from power by giving it +inf noise in the row kernel
        rng = np.random.default_rng(70)
        noise = rng.uniform(0.05, 5.0, (50, 9))
        barred = rng.random((50, 9)) < 0.4
        barred[:, 4] = False
        p, mu = _waterfill_rows(np.where(barred, np.inf, noise), 1.0)
        for row in range(50):
            alone = waterfill(noise[row, ~barred[row]], 1.0)
            assert np.array_equal(p[row, ~barred[row]], alone.p)
            assert np.all(p[row, barred[row]] == 0.0)
            assert mu[row] == alone.water_level

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            waterfill([1.0, -1.0], 1.0)
        with pytest.raises(InvalidInputError):
            waterfill([1.0, np.inf], 1.0)
        with pytest.raises(InvalidInputError):
            waterfill([], 1.0)
        with pytest.raises(InvalidInputError):
            waterfill([1.0], 0.0)
        for budget in ("2", True):
            with pytest.raises(InvalidInputError, match="budget must be a number"):
                waterfill([1.0, 2.0], budget)


class TestCountAllocatedUsers:
    def test_counts(self):
        assert count_allocated_users([0.5, 0.5]) == 2
        assert count_allocated_users([1.0, 0.0]) == 1
        assert count_allocated_users(waterfill([1.0, 10.0], 1.0).p) == 1

    def test_epsilon_fraction(self):
        assert count_allocated_users([1.0, 1e-15]) == 1
        assert count_allocated_users([1.0, 1e-9]) == 2

    def test_rows_match_single_vectors(self):
        # the 1e-12 boundary at unit and at 1e-6 total power: each row's own total counts
        fixed = [[0.5, 0.5, 0.0], [1.0, 1e-15, 0.0], [1.0, 1e-9, 0.0]]
        fixed += [[1e-6, 1e-21, 0.0], [1e-6, 1e-15, 0.0], [0.0, 0.0, 0.0]]
        rng = np.random.default_rng(74)
        drawn = np.where(rng.random((38, 3)) < 0.3, 0.0, rng.uniform(0.0, 1.0, (38, 3)))
        rows = np.vstack([fixed, drawn])
        counts = count_allocated_users(rows)
        assert counts.tolist() == [count_allocated_users(p) for p in rows]
        assert counts[:6].tolist() == [2, 1, 2, 1, 2, 0]
        out = zf_sum_rate(mixed_effort_tensor(), SnrSpec(0.0))
        assert count_allocated_users(out.powers).tolist() == [
            count_allocated_users(p) for p in out.powers
        ]
        stack = rows.reshape(4, 11, 3)
        assert np.array_equal(count_allocated_users(stack), counts.reshape(4, 11))

    def test_type_checked(self):
        # negative, non-finite, 0-d and user-less input
        bad = ([0.5, -0.5], [[1.0, 0.0], [np.nan, 1.0]], [np.inf], 1.0, [], np.zeros((2, 0)))
        for powers in bad:
            with pytest.raises(InvalidInputError):
                count_allocated_users(powers)


class TestZfSumRate:
    def test_identity_channel(self):
        out = zf_sum_rate(np.eye(2), SnrSpec.from_linear(2.0))
        assert out.sum_rate_bits_per_s_per_hz == pytest.approx(2.0, rel=1e-12)
        assert out.converged
        assert np.allclose(out.powers[0], [0.5, 0.5])

    def test_frozen_grid_value(self):
        mat = cplx(np.random.default_rng(7), (2, 4))
        out = zf_sum_rate(mat, SnrSpec(10.0))
        assert out.sum_rate_bits_per_s_per_hz == pytest.approx(ZF_GRID_SEED7, abs=1e-3)

    def test_grid_agreement_fresh_draws(self):
        rng = np.random.default_rng(55)
        for rho_db in (0.0, 10.0):
            mat = cplx(rng, (2, 6))
            ref = zf_rate_grid_2user(mat, 10.0 ** (rho_db / 10.0))
            out = zf_sum_rate(mat, SnrSpec(rho_db))
            assert out.sum_rate_bits_per_s_per_hz == pytest.approx(ref, abs=1e-3)

    def test_tensor_averages_slices(self):
        ch = mixed_effort_tensor()
        snr = SnrSpec(5.0)
        out = zf_sum_rate(ch, snr)
        assert_matches_slices(out, per_slice_results(lambda m: zf_sum_rate(m, snr), ch))

    def test_rank_deficient_slice_named(self):
        rng = np.random.default_rng(57)
        data = cplx(rng, (2, 3, 2, 4))
        data[1, 2, 1] = data[1, 2, 0]
        ch = ChannelTensor(data, np.zeros(4))
        with pytest.raises(RankDeficiencyError) as info:
            zf_sum_rate(ch, SnrSpec(10.0))
        assert info.value.snapshot == 1
        assert info.value.subcarrier == 2

    def test_too_many_users(self):
        with pytest.raises(DimensionError):
            zf_sum_rate(np.ones((5, 4)), SnrSpec(10.0))
        ch = gen_iid_rayleigh((1, 1, 5, 4), RngHandle(58, 0))
        with pytest.raises(DimensionError):
            zf_sum_rate(ch, SnrSpec(10.0))

    def test_snr_type_checked(self):
        with pytest.raises(InvalidInputError):
            zf_sum_rate(np.eye(2), 10.0)


class TestDpcCapacity:
    def test_scalar_channel(self):
        out = dpc_capacity(np.array([[1.0 + 0.0j]]), SnrSpec(0.0))
        assert out.sum_rate_bits_per_s_per_hz == pytest.approx(1.0, rel=1e-9)
        assert out.converged

    def test_identity_channel(self):
        out = dpc_capacity(np.eye(2), SnrSpec.from_linear(2.0))
        assert out.sum_rate_bits_per_s_per_hz == pytest.approx(2.0, rel=1e-9)
        assert np.allclose(out.powers[0], [0.5, 0.5], atol=1e-9)

    def test_frozen_grid_value(self):
        mat = cplx(np.random.default_rng(7), (2, 4))
        out = dpc_capacity(mat, SnrSpec(10.0))
        assert out.sum_rate_bits_per_s_per_hz == pytest.approx(DPC_GRID_SEED7, abs=1e-3)
        assert out.converged

    def test_grid_agreement_fresh_draws(self):
        rng = np.random.default_rng(59)
        for rho_db in (0.0, 10.0, 20.0):
            mat = cplx(rng, (2, 8))
            ref = dpc_capacity_grid_2user(mat, 10.0 ** (rho_db / 10.0))
            out = dpc_capacity(mat, SnrSpec(rho_db))
            assert out.sum_rate_bits_per_s_per_hz == pytest.approx(ref, abs=1e-3)

    def test_dominates_zf(self):
        rng = np.random.default_rng(60)
        rhos = (0.0, 5.0, 10.0, 15.0, 20.0)
        for i in range(150):
            k = int(rng.integers(2, 13))
            m = int(rng.integers(k, 129))
            mat = cplx(rng, (k, m))
            snr = SnrSpec(rhos[i % len(rhos)])
            dpc = dpc_capacity(mat, snr).sum_rate_bits_per_s_per_hz
            zf = zf_sum_rate(mat, snr).sum_rate_bits_per_s_per_hz
            assert dpc >= zf - 1e-8

    def test_dominates_zf_with_the_budget_at_the_noise_floor(self):
        # at -170 dB the effective noise is ~1e17 times the unit power budget
        mat = cplx(np.random.default_rng(1), (4, 8))
        snr = SnrSpec(-170.0)
        dpc, zf = dpc_capacity(mat, snr), zf_sum_rate(mat, snr)
        for out in (dpc, zf):
            assert out.powers.sum() == pytest.approx(1.0, rel=1e-12)
            assert out.sum_rate_bits_per_s_per_hz < 1e-12
        assert dpc.sum_rate_bits_per_s_per_hz >= zf.sum_rate_bits_per_s_per_hz - 1e-9

    @pytest.mark.parametrize("rho_db", [-3000.0, 3000.0])
    def test_dominates_zf_at_the_snr_bounds(self, rho_db):
        # the SNRs SnrSpec accepts keep rho and 1/rho finite, so both rates are
        mat = cplx(np.random.default_rng(2), (12, 16))
        snr = SnrSpec(rho_db)
        dpc = dpc_capacity(mat, snr).sum_rate_bits_per_s_per_hz
        zf = zf_sum_rate(mat, snr).sum_rate_bits_per_s_per_hz
        assert math.isfinite(dpc) and math.isfinite(zf)
        assert dpc >= zf - 1e-9

    def test_orthogonal_rows_close_the_gap(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            norms = rng.uniform(0.5, 2.0, k)
            mat = orthogonal_rows(k, 4 * k, norms, rng)
            snr = SnrSpec(float(rng.uniform(0.0, 20.0)))
            dpc = dpc_capacity(mat, snr).sum_rate_bits_per_s_per_hz
            zf = zf_sum_rate(mat, snr).sum_rate_bits_per_s_per_hz
            assert abs(dpc - zf) <= 1e-8

    def test_monotone_in_snr(self):
        mat = cplx(np.random.default_rng(62), (4, 16))
        rates = [
            dpc_capacity(mat, SnrSpec(rho)).sum_rate_bits_per_s_per_hz
            for rho in (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(63)
        mat = cplx(rng, (3, 10))
        q, _ = np.linalg.qr(cplx(rng, (10, 10)))
        a = dpc_capacity(mat, SnrSpec(10.0)).sum_rate_bits_per_s_per_hz
        b = dpc_capacity(mat @ q, SnrSpec(10.0)).sum_rate_bits_per_s_per_hz
        assert b == pytest.approx(a, rel=1e-9)

    def test_tensor_averages_slices(self):
        # slices leave the batch at different iterations without disturbing
        # the slices still iterating
        ch = mixed_effort_tensor()
        snr = SnrSpec(5.0)
        out = dpc_capacity(ch, snr)
        singles = per_slice_results(lambda m: dpc_capacity(m, snr), ch)
        iterations = [r.iterations for r in singles]
        assert len(set(iterations)) > 1
        assert out.iterations == max(iterations)
        assert_matches_slices(out, singles)

    def test_one_objective_determinant_per_slice_iteration(self, factorizations):
        # the full best-response step raises the objective at every iteration
        # here, so no damped step is ever factored
        ch = mixed_effort_tensor()
        snr = SnrSpec(5.0)
        iterations = [r.iterations for r in per_slice_results(lambda m: dpc_capacity(m, snr), ch)]
        factorizations()
        dpc_capacity(ch, snr)
        assert factorizations() == {
            "slogdet": sum(n + 1 for n in iterations),
            "solve": sum(iterations),
        }

    def test_damped_steps_take_over_where_the_full_step_falls(self, factorizations):
        matrix, snr = damped_step_slice()
        factorizations()
        capped = dpc_capacity(matrix, snr, max_iterations=2)
        # the damped step was factored before the run's last iteration
        assert factorizations()["slogdet"] > capped.iterations + 1
        assert not capped.converged
        out = dpc_capacity(matrix, snr)
        assert factorizations()["slogdet"] > out.iterations + 1
        assert out.converged and out.iterations > 2
        rate = out.sum_rate_bits_per_s_per_hz
        joint = dpc_capacity(matrix, snr, allocation_mode="joint")
        assert rate == pytest.approx(joint.sum_rate_bits_per_s_per_hz, rel=1e-6)
        tight = dpc_capacity(matrix, snr, tol=1e-15, max_iterations=20000)
        assert rate == pytest.approx(tight.sum_rate_bits_per_s_per_hz, rel=1e-9)

    def test_a_step_that_falls_is_replaced_by_one_damped_step(self, factorizations):
        # the start, two full steps and the one damped step of iteration 2
        matrix, snr = damped_step_slice()
        factorizations()
        dpc_capacity(matrix, snr, max_iterations=2)
        assert factorizations()["slogdet"] == 4
        out = dpc_capacity(matrix, snr)
        assert round(out.sum_rate_bits_per_s_per_hz, 12) == 20.163933173441

    def test_iteration_cap_reports_not_raises(self):
        mat = cplx(np.random.default_rng(65), (6, 24))
        out = dpc_capacity(mat, SnrSpec(15.0), max_iterations=1)
        assert isinstance(out, CapacityResult)
        assert not out.converged
        assert out.iterations == 1
        out = dpc_capacity(mixed_effort_tensor(), SnrSpec(15.0), max_iterations=1)
        assert not out.converged
        assert out.iterations == 1
        assert len(out.powers) == 6

    def test_more_users_than_antennas_is_defined(self):
        # unlike ZF, the DPC bound exists for K > M
        ch = gen_iid_rayleigh((1, 1, 5, 4), RngHandle(66, 0))
        out = dpc_capacity(ch, SnrSpec(10.0))
        assert out.converged
        assert math.isfinite(out.sum_rate_bits_per_s_per_hz)
        assert out.sum_rate_bits_per_s_per_hz > 0
        with pytest.raises(DimensionError):
            zf_sum_rate(ch, SnrSpec(10.0))

    @pytest.mark.parametrize(
        "p_shape, gram_shape",
        [((5,), (3, 5, 5)), ((3, 5), (3, 5, 5)), ((3, 4, 5), (3, 1, 5, 5))],
        ids=["joint", "per-slice", "candidates"],
    )
    def test_system_matrix_bits_match_plain_expression(self, p_shape, gram_shape):
        # K = 5 users over M = 3 antennas, with some users at zero power
        rng = np.random.default_rng(67)
        h = cplx(rng, gram_shape[:-1] + (3,))
        gram = h @ h.conj().swapaxes(-1, -2)
        p = rng.random(p_shape)
        p[..., ::2] = 0.0
        c = 7.3
        plain = np.eye(5, dtype=complex) + c * p[..., :, None] * gram
        fast = _dpc_system(p, gram, c)
        assert fast.shape == plain.shape
        assert np.array_equal(fast.view(np.uint64), plain.view(np.uint64))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            dpc_capacity(np.eye(2), SnrSpec(10.0), allocation_mode="global")
        with pytest.raises(InvalidInputError):
            dpc_capacity(np.eye(2), SnrSpec(10.0), tol=0.0)
        with pytest.raises(InvalidInputError):
            dpc_capacity(np.eye(2), SnrSpec(10.0), max_iterations=0)
        for max_iterations in (2.7, True):
            with pytest.raises(InvalidInputError, match="max_iterations must be an integer"):
                dpc_capacity(np.eye(2), SnrSpec(10.0), max_iterations=max_iterations)
        with pytest.raises(InvalidInputError, match="tol must be a number"):
            dpc_capacity(np.eye(2), SnrSpec(10.0), tol="x")


class TestJointAllocationMode:
    def test_single_slice_matches_per_tl(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            mat = cplx(rng, (3, 12))
            snr = SnrSpec(float(rng.uniform(0.0, 15.0)))
            for fn in (dpc_capacity, zf_sum_rate):
                a = fn(mat, snr, allocation_mode="per_tl").sum_rate_bits_per_s_per_hz
                b = fn(mat, snr, allocation_mode="joint").sum_rate_bits_per_s_per_hz
                assert b == pytest.approx(a, abs=1e-6 * max(1.0, a))

    def test_joint_never_beats_per_slice(self):
        ch = gen_iid_rayleigh((3, 2, 4, 16), RngHandle(68, 0))
        snr = SnrSpec(10.0)
        for fn in (dpc_capacity, zf_sum_rate):
            per = fn(ch, snr, allocation_mode="per_tl").sum_rate_bits_per_s_per_hz
            joint = fn(ch, snr, allocation_mode="joint").sum_rate_bits_per_s_per_hz
            assert joint <= per + 1e-9

    def test_joint_returns_single_allocation(self):
        ch = gen_iid_rayleigh((2, 2, 3, 8), RngHandle(69, 0))
        out = dpc_capacity(ch, SnrSpec(10.0), allocation_mode="joint")
        assert out.powers.shape == (1, 3)
        assert out.powers[0].sum() == pytest.approx(1.0, abs=1e-9)


class TestSliceBatch:
    """A batch of tensors gives each tensor exactly its own public results."""

    @staticmethod
    def tensors():
        # three (2, 2, 3, 8) tensors; the middle one has a singular slice at (1, 0)
        data = cplx(np.random.default_rng(70), (3, 2, 2, 3, 8))
        data[1, 1, 0, 2] = data[1, 1, 0, 0]
        return data, [ChannelTensor(item, np.zeros(8)) for item in data]

    @pytest.mark.parametrize("mode", ["per_tl", "joint"])
    def test_items_match_public_metrics(self, mode):
        data, items = self.tensors()
        batch = SliceBatch(data)
        snr = SnrSpec(8.0)
        spreads, spread_reasons = batch.spreads()
        assert isinstance(spreads, np.ndarray)
        assert spreads.tolist() == [svs(ch) for ch in items]
        assert math.isinf(spreads[1])
        saturated = "saturated singular-value spread (rank-deficient draw)"
        assert spread_reasons.tolist() == [None, saturated, None]
        rates, users, reasons = batch.zf(snr, mode)
        assert reasons.tolist() == [None, "rank-deficient slice at (t=1, l=0)", None]
        assert math.isnan(rates[1]) and math.isnan(users[1])
        with pytest.raises(RankDeficiencyError) as info:
            zf_sum_rate(items[1], snr, allocation_mode=mode)
        assert (info.value.snapshot, info.value.subcarrier) == (1, 0)
        for i in (0, 2):
            single = zf_sum_rate(items[i], snr, allocation_mode=mode)
            assert rates[i] == single.sum_rate_bits_per_s_per_hz
            assert users[i] == np.mean(count_allocated_users(single.powers))
        dpc_rates, dpc_reasons = batch.dpc(snr, mode)
        for i, ch in enumerate(items):
            single = dpc_capacity(ch, snr, allocation_mode=mode)
            assert dpc_rates[i] == single.sum_rate_bits_per_s_per_hz
            assert (dpc_reasons[i] is None) == single.converged

    @pytest.mark.parametrize("mode", ["per_tl", "joint"])
    def test_all_singular_batch_reads_nan(self, mode):
        data, _ = self.tensors()
        batch = SliceBatch(data[[1, 1]])
        rates, users, reasons = batch.zf(SnrSpec(8.0), mode)
        assert np.isnan(rates).all() and np.isnan(users).all()
        assert reasons.tolist() == ["rank-deficient slice at (t=1, l=0)"] * 2

    @pytest.mark.parametrize("mode, cap", [("per_tl", 2), ("joint", 12)])
    def test_dpc_reason_marks_the_items_that_hit_the_cap(self, mode, cap, monkeypatch):
        # the six slices of mixed_effort_tensor() as six one-slice items
        items = mixed_effort_tensor().data.reshape(6, 1, 1, 3, 12)
        snr = SnrSpec(5.0)
        capped = functools.partial(dpc_capacity, max_iterations=cap)
        monkeypatch.setattr(metrics, "dpc_capacity", capped)
        rates, reasons = SliceBatch(items).dpc(snr, mode)
        singles = [capped(ChannelTensor(item, np.zeros(12)), snr, mode) for item in items]
        assert rates.tolist() == [r.sum_rate_bits_per_s_per_hz for r in singles]
        optimizer = {"per_tl": "iterative water-filling", "joint": "projected gradient ascent"}[mode]
        expected = [None if r.converged else f"{optimizer} hit the iteration cap" for r in singles]
        assert reasons.tolist() == expected
        assert None in expected and len(set(expected)) == 2

    def test_inverse_that_lost_positive_definiteness_fails_its_item_only(self, monkeypatch):
        # four (2, 2, 3, 8) tensors. In items 1 and 3 one slice's first user is
        # 1e3 times stronger, and the patched inverse below negates the first
        # diagonal entry of exactly those slices' inverses; item 3 also has a
        # singular slice, later in snapshot-major order than that one
        data = cplx(np.random.default_rng(74), (4, 2, 2, 3, 8))
        data[1, 1, 1, 0] *= 1e3
        data[3, 0, 1, 0] *= 1e3
        data[3, 1, 0, 2] = data[3, 1, 0, 0]
        snr = SnrSpec(8.0)
        clean_rates, clean_users, _ = SliceBatch(data).zf(snr, "per_tl")
        assert np.isfinite(clean_rates[:3]).all()
        real_inv = np.linalg.inv

        def inv(a):
            out = real_inv(a)
            out[a[..., 0, 0].real > 1e5, 0, 0] *= -1.0
            return out

        monkeypatch.setattr(np.linalg, "inv", inv)
        batch = SliceBatch(data)
        rates, users, reasons = batch.zf(snr, "per_tl")
        assert reasons.tolist() == [
            None,
            "rank-deficient slice at (t=1, l=1)",
            None,
            "rank-deficient slice at (t=1, l=0)",
        ]
        assert np.isnan(rates[[1, 3]]).all() and np.isnan(users[[1, 3]]).all()
        for i in (0, 2):
            assert rates[i] == clean_rates[i] and users[i] == clean_users[i]
        with pytest.raises(RankDeficiencyError) as info:
            zf_effective_gains(data[1])
        assert str(info.value) == "channel Gram inverse lost positive definiteness"
        assert (info.value.snapshot, info.value.subcarrier) == (1, 1)
        with pytest.raises(RankDeficiencyError) as info:
            zf_effective_gains(data[3])
        assert str(info.value).startswith("channel Gram matrix is singular or near-singular")
        assert (info.value.snapshot, info.value.subcarrier) == (1, 0)


class TestSliceRates:
    @pytest.mark.parametrize("fn", [dpc_capacity, zf_sum_rate])
    @pytest.mark.parametrize("mode", ["per_tl", "joint"])
    def test_sum_rate_is_the_mean_of_slice_rates(self, fn, mode):
        ch = gen_iid_rayleigh((2, 3, 3, 8), RngHandle(71, 0))
        out = fn(ch, SnrSpec(10.0), allocation_mode=mode)
        assert out.slice_rates.shape == out.slice_converged.shape == (6,)
        assert out.sum_rate_bits_per_s_per_hz == float(np.mean(out.slice_rates))
        assert out.slice_converged.all() == out.converged

    def test_slice_convergence_is_per_slice(self):
        ch = mixed_effort_tensor()
        snr = SnrSpec(5.0)
        needed = [r.iterations for r in per_slice_results(lambda m: dpc_capacity(m, snr), ch)]
        out = dpc_capacity(ch, snr, max_iterations=2)
        assert out.slice_converged.tolist() == [n <= 2 for n in needed]
        assert not out.converged

    def test_tensors_folded_into_the_snapshot_axis_keep_their_slice_results(self):
        data = cplx(np.random.default_rng(72), (3, 2, 2, 3, 8))
        snr = SnrSpec(12.0)
        folded = dpc_capacity(data.reshape(6, 2, 3, 8), snr)
        for i, item in enumerate(data):
            single = dpc_capacity(ChannelTensor(item, np.zeros(8)), snr)
            own = slice(4 * i, 4 * i + 4)
            assert np.array_equal(folded.slice_rates[own], single.slice_rates)
            assert np.array_equal(folded.slice_converged[own], single.slice_converged)
            assert float(np.mean(folded.slice_rates[own])) == single.sum_rate_bits_per_s_per_hz
