"""Core tensor container, seeded RNG, and dense linear-algebra contracts."""

import numpy as np
import pytest

from dmimo import (
    ChannelTensor,
    DimensionError,
    InvalidInputError,
    RankDeficiencyError,
    RngHandle,
    singular_values,
    zf_effective_gains,
)

from dmimo.selfcheck import conditioned_matrix, singular_values_gram, zf_gains_cofactor
from oracles import orthogonal_rows


def cplx(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


# frozen from the eigendecomposition-of-Gram oracle, seed 42, shape (4, 16)
SV_4x16_SEED42 = np.array(
    [
        4.001286671122643,
        3.4706339258917116,
        2.7562551691498203,
        2.213284352325462,
    ]
)

# frozen from the 3x3 cofactor-inverse oracle, seed 77, shape (3, 8)
GAINS_3x8_SEED77 = np.array(
    [
        0.12309959210120493,
        0.10922683630380654,
        0.13886745831736635,
    ]
)


class TestChannelTensor:
    def test_shape_and_properties(self):
        data = cplx(np.random.default_rng(0), (2, 3, 4, 8))
        ap_map = np.repeat([0, 1], 4)
        ch = ChannelTensor(data, ap_map)
        assert ch.dims == (2, 3, 4, 8)
        assert ch.num_snapshots == 2
        assert ch.num_subcarriers == 3
        assert ch.num_users == 4
        assert ch.num_antennas == 8
        assert ch.ap_ids == (0, 1)
        assert ch.num_aps == 2
        assert np.array_equal(ch.slice_matrix(0, 0), data[0, 0])
        assert np.array_equal(ch.slice_matrix(1, 2), data[1, 2])

    def test_data_is_copied_and_readonly(self):
        data = cplx(np.random.default_rng(1), (1, 1, 2, 4))
        ch = ChannelTensor(data, np.zeros(4))
        data[0, 0, 0, 0] = 99.0
        assert ch.data[0, 0, 0, 0] != 99.0
        with pytest.raises(ValueError):
            ch.data[0, 0, 0, 0] = 1.0

    def test_adopts_only_owned_readonly_complex128(self):
        owned = cplx(np.random.default_rng(2), (1, 1, 2, 4))
        owned.setflags(write=False)
        assert ChannelTensor(owned, np.zeros(4)).data is owned
        # a read-only view of a writable array, or another dtype, is copied
        base = cplx(np.random.default_rng(3), (1, 1, 2, 4))
        view = base[...]
        view.setflags(write=False)
        ch = ChannelTensor(view, np.zeros(4))
        base[0, 0, 0, 0] = 99.0
        assert ch.data is not view and ch.data[0, 0, 0, 0] != 99.0
        single = owned.astype(np.complex64)
        single.setflags(write=False)
        assert ChannelTensor(single, np.zeros(4)).data.dtype == np.complex128

    def test_adopted_data_is_still_validated(self):
        data = np.ones((1, 1, 1, 4), dtype=complex)
        data.setflags(write=False)
        with pytest.raises(DimensionError):
            ChannelTensor(data, np.zeros(3))
        with pytest.raises(InvalidInputError):
            ChannelTensor(data, [0, 1, 0, 1])
        assert ChannelTensor(data, [0, 0, 1, 1]).data is data
        poisoned = np.ones((1, 1, 1, 2), dtype=complex)
        poisoned[0, 0, 0, 1] = np.nan
        poisoned.setflags(write=False)
        with pytest.raises(InvalidInputError):
            ChannelTensor(poisoned, np.zeros(2))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            ChannelTensor(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(DimensionError):
            ChannelTensor(np.zeros((1, 1, 0, 4), dtype=complex), np.zeros(4))
        with pytest.raises(DimensionError):
            ChannelTensor(np.zeros((1, 1, 2, 4), dtype=complex), np.zeros(3))

    def test_rejects_non_finite(self):
        data = np.ones((1, 1, 1, 2), dtype=complex)
        data[0, 0, 0, 1] = np.nan
        with pytest.raises(InvalidInputError):
            ChannelTensor(data, np.zeros(2))
        data[0, 0, 0, 1] = np.inf
        with pytest.raises(InvalidInputError):
            ChannelTensor(data, np.zeros(2))

    def test_rejects_non_contiguous_ap_map(self):
        data = np.ones((1, 1, 1, 4), dtype=complex)
        with pytest.raises(InvalidInputError):
            ChannelTensor(data, [0, 1, 0, 1])
        # contiguous grouping is fine in any id order
        ChannelTensor(data, [1, 1, 0, 0])

    @pytest.mark.parametrize(
        "ap_map",
        [[0.5, 0.9, 1.7, 1.2], [True, True, False, False], ["0", "0", "1", "1"], [2**70, 0, 0, 0]],
    )
    def test_rejects_non_integer_ap_map(self, ap_map):
        with pytest.raises(InvalidInputError, match="antenna_ap_map entries must be integers"):
            ChannelTensor(np.ones((1, 1, 1, 4), dtype=complex), ap_map)


class TestRngHandle:
    def test_same_stream_reproduces(self):
        a = RngHandle(1234, 7).generator().standard_normal(16)
        b = RngHandle(1234, 7).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngHandle(1234, 7).generator().standard_normal(16)
        b = RngHandle(1234, 8).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            RngHandle(-1, 0)
        with pytest.raises(InvalidInputError):
            RngHandle(0, 2**64)
        with pytest.raises(InvalidInputError):
            RngHandle(1.5, 0)
        with pytest.raises(InvalidInputError):
            RngHandle(True, 0)
        with pytest.raises(InvalidInputError):
            RngHandle(0, False)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([2.0, 1.0])), [2.0, 1.0])

    def test_frozen_seeded_draw_matches_oracle(self):
        m = cplx(np.random.default_rng(42), (4, 16))
        sv = singular_values(m)
        assert np.allclose(sv, SV_4x16_SEED42, rtol=1e-12, atol=0)
        # and the live oracle agrees to 1e-9 relative
        ref = singular_values_gram(m)
        assert np.all(np.abs(sv - ref) <= 1e-9 * ref[0])

    def test_oracle_agreement_random_shapes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            m = int(rng.integers(k, 20))
            mat = cplx(rng, (k, m))
            sv = singular_values(mat)
            ref = singular_values_gram(mat)
            assert np.all(np.abs(sv - ref) <= 1e-9 * ref[0])

    def test_ordering_and_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mat = cplx(rng, (5, 12))
            sv = singular_values(mat)
            assert np.all(np.diff(sv) <= 0)
            assert np.all(sv >= 0)
            fro = np.sum(np.abs(mat) ** 2)
            assert abs(np.sum(sv**2) - fro) <= 1e-10 * fro

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        mat = cplx(rng, (3, 9))
        sv = singular_values(mat)
        for c in (2.0, -0.5, 1.5j, 0.3 - 0.7j):
            scaled = singular_values(c * mat)
            assert np.all(np.abs(scaled - abs(c) * sv) <= 1e-10 * abs(c) * sv[0])

    def test_errors(self):
        with pytest.raises(DimensionError):
            singular_values(np.ones((3, 2)))
        bad = np.ones((2, 3), dtype=complex)
        bad[0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            singular_values(bad)


class TestZfEffectiveGains:
    def test_identity(self):
        assert np.allclose(zf_effective_gains(np.eye(2)), [1.0, 1.0])

    def test_duplicated_user_is_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            zf_effective_gains(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_error_carries_slice_position(self):
        stack = cplx(np.random.default_rng(8), (4, 6, 2, 3))
        stack[3, 5, 1] = stack[3, 5, 0]
        with pytest.raises(RankDeficiencyError) as info:
            zf_effective_gains(stack)
        assert info.value.snapshot == 3
        assert info.value.subcarrier == 5

    def test_frozen_seeded_draw_matches_cofactor_oracle(self):
        m = cplx(np.random.default_rng(77), (3, 8))
        gains = zf_effective_gains(m)
        assert np.allclose(gains, GAINS_3x8_SEED77, rtol=1e-12, atol=0)
        ref = zf_gains_cofactor(m)
        assert np.all(np.abs(gains - ref) <= 1e-9 * ref)

    def test_orthogonal_rows_give_inverse_square_norms(self):
        rng = np.random.default_rng(5)
        norms = np.array([0.5, 1.0, 2.0, 3.0])
        mat = orthogonal_rows(4, 16, norms, rng)
        gains = zf_effective_gains(mat)
        expected = 1.0 / norms**2
        assert np.all(np.abs(gains - expected) <= 1e-10 * expected)

    def test_gains_keep_their_accuracy_at_large_condition_numbers(self):
        # the Gram inverse alone is off by about ratio^2 * eps: 2e-6 at 1e5
        rng = np.random.default_rng(12)
        pairs = [conditioned_matrix(rng, 12, 32, ratio) for ratio in (20.0, 1e3, 1e4, 1e5)]
        stack = np.stack([h for h, _ in pairs])
        exact = np.stack([g for _, g in pairs])
        gains = zf_effective_gains(stack)
        assert np.all(np.abs(gains - exact) <= 1e-9 * exact)
        # a stack's gains are each matrix's own, on either side of the QR ratio
        for (h, _), row in zip(pairs, gains):
            assert np.array_equal(zf_effective_gains(h), row)

    def test_trace_eigenvalue_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mat = cplx(rng, (4, 10))
            gains = zf_effective_gains(mat)
            lam_max = float(singular_values(mat)[0] ** 2)
            assert gains.sum() >= 4.0 / lam_max - 1e-12


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: ChannelTensor(np.ones((1, 1, 1, 2)), [0, -1]),
            InvalidInputError,
            "antenna_ap_map entries must be non-negative",
            id="negative AP id",
        ),
        pytest.param(
            lambda: singular_values(np.ones(3)),
            DimensionError,
            "snapshot matrix must be (..., K, M), got 1-D",
            id="1-D matrix",
        ),
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
