"""Per-user normalization and subarray selection."""

import numpy as np
import pytest

from dmimo import (
    ApCapacityError,
    ChannelTensor,
    DegenerateUserError,
    ExperimentConfig,
    InvalidInputError,
    RngHandle,
    SceneSource,
    TopologyError,
    default_scene,
    dpc_capacity,
    gen_iid_rayleigh,
    normalize,
    run_experiment,
    select_subarray,
    singular_values,
    SnrSpec,
    svs,
)
from dmimo import prep
from dmimo.harness import _STREAM_SELECT, _stream_id, _trial_source


def four_ap_tensor(seed, dims=(1, 1, 2, 128)):
    ch = gen_iid_rayleigh(dims, RngHandle(seed, 0))
    return ChannelTensor(ch.data, np.repeat([0, 1, 2, 3], dims[3] // 4))


class TestNormalize:
    def test_single_user_scale(self):
        # energy 32 over 128 antennas must be scaled up by exactly 2
        data = np.full((1, 1, 1, 128), 0.5, dtype=complex)
        ch = ChannelTensor(data, np.zeros(128))
        out = normalize(ch)
        assert type(out) is ChannelTensor
        # 0.5 * s is exact, so exactly 1.0 means a scale of exactly 2.0
        assert np.array_equal(out.data, np.ones((1, 1, 1, 128)))

    def test_unequal_users_equalized(self):
        data = np.zeros((1, 1, 2, 2), dtype=complex)
        data[0, 0, 0] = [1.0, 0.0]              # energy 1
        data[0, 0, 1] = [6.0, 8.0j]             # energy 100
        ch = ChannelTensor(data, np.zeros(2))
        out = normalize(ch)
        energies = np.sum(np.abs(out.data) ** 2, axis=(0, 1, 3))
        assert np.allclose(energies, 2.0, rtol=1e-12)
        # within-user structure is untouched
        assert out.data[0, 0, 1, 1] / out.data[0, 0, 1, 0] == 8.0j / 6.0

    def test_energy_invariant_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            t, l, k, m = (int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                          int(rng.integers(1, 9)), int(rng.integers(2, 33)))
            raw = 3.0 * (rng.standard_normal((t, l, k, m))
                         + 1j * rng.standard_normal((t, l, k, m)))
            out = normalize(ChannelTensor(raw, np.zeros(m)))
            energies = np.sum(np.abs(out.data) ** 2, axis=(0, 1, 3))
            target = m * l * t
            assert np.all(np.abs(energies - target) <= 1e-9 * target)

    def test_idempotent(self):
        ch = gen_iid_rayleigh((2, 3, 4, 16), RngHandle(32, 0))
        once = normalize(ch)
        twice = normalize(once)
        # the factor the second pass applies to each user
        assert np.allclose(twice.data / once.data, 1.0, rtol=0, atol=1e-12)
        assert np.allclose(twice.data, once.data, rtol=1e-12)

    def test_commutes_with_per_user_phase(self):
        ch = gen_iid_rayleigh((1, 2, 3, 8), RngHandle(33, 0))
        theta = np.array([0.3, -1.2, 2.5])
        rot = np.exp(1j * theta)[None, None, :, None]
        direct = normalize(ChannelTensor(ch.data * rot, ch.antenna_ap_map))
        swapped = normalize(ch).data * rot
        assert np.allclose(direct.data, swapped, rtol=0, atol=1e-12)

    def test_zero_user_rejected(self):
        data = np.ones((1, 1, 3, 4), dtype=complex)
        data[0, 0, 1] = 0.0
        with pytest.raises(DegenerateUserError) as info:
            normalize(ChannelTensor(data, np.zeros(4)))
        assert info.value.user == 1
        assert str(info.value) == "user 1 has an all-zero channel and cannot be normalized"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_energy_rejected(self):
        data = np.ones((1, 1, 3, 4), dtype=complex)
        data[0, 0, 2] = 1e200
        with pytest.raises(InvalidInputError) as info:
            normalize(ChannelTensor(data, np.zeros(4)))
        assert str(info.value) == (
            "user 2's channel energy overflows to inf, so it cannot be normalized"
        )

    @pytest.mark.filterwarnings("error")
    def test_underflowing_energy_is_not_called_all_zero(self):
        data = np.ones((1, 1, 3, 4), dtype=complex)
        data[0, 0, 1] = 1e-170
        with pytest.raises(DegenerateUserError) as info:
            normalize(ChannelTensor(data, np.zeros(4)))
        assert info.value.user == 1
        assert str(info.value) == (
            "user 1's channel energy underflows to 0.0, so it cannot be normalized"
        )

    def test_input_type_checked(self):
        with pytest.raises(InvalidInputError):
            normalize(np.ones((1, 1, 1, 2), dtype=complex))


class TestSelectSubarray:
    def test_full_selection_is_identity(self):
        ch = four_ap_tensor(40)
        sub, cols = select_subarray(ch, 128, 4, RngHandle(40, 1))
        assert np.array_equal(sub.data, ch.data)
        assert cols.tolist() == list(range(128))

    def test_shapes_and_ap_structure(self):
        ch = four_ap_tensor(41)
        sub, cols = select_subarray(ch, 64, 2, RngHandle(41, 1))
        assert sub.dims == (1, 1, 2, 64)
        assert sub.num_aps == 2
        assert np.array_equal(sub.antenna_ap_map, ch.antenna_ap_map[cols])
        counts = [int(np.count_nonzero(sub.antenna_ap_map == a)) for a in sub.ap_ids]
        assert counts == [32, 32]

    def test_single_ap(self):
        ch = four_ap_tensor(42)
        sub, cols = select_subarray(ch, 16, 1, RngHandle(42, 1))
        assert sub.dims[3] == 16
        assert sub.num_aps == 1
        assert len(np.unique(ch.antenna_ap_map[cols])) == 1

    def test_slice_preserves_coefficients_and_metrics(self):
        ch = four_ap_tensor(43, dims=(2, 2, 3, 128))
        sub, cols = select_subarray(ch, 32, 4, RngHandle(43, 1))
        assert np.array_equal(sub.data, ch.data[:, :, :, cols])
        # metrics on the subarray equal metrics on the manual slice
        manual = ch.data[0, 1][:, cols]
        assert np.array_equal(
            singular_values(sub.slice_matrix(0, 1)), singular_values(manual)
        )
        manual_ch = ChannelTensor(ch.data[:, :, :, cols], ch.antenna_ap_map[cols])
        snr = SnrSpec(10.0)
        assert dpc_capacity(sub, snr).sum_rate_bits_per_s_per_hz == pytest.approx(
            dpc_capacity(manual_ch, snr).sum_rate_bits_per_s_per_hz, rel=1e-12
        )

    def test_no_renormalization(self):
        ch = four_ap_tensor(44)
        sub, cols = select_subarray(ch, 16, 2, RngHandle(44, 1))
        assert np.array_equal(sub.data, ch.data[:, :, :, cols])
        sub_energy = float(np.sum(np.abs(sub.data) ** 2))
        manual_energy = float(np.sum(np.abs(ch.data[:, :, :, cols]) ** 2))
        assert sub_energy == manual_energy

    def test_selection_is_uniform(self):
        ch = four_ap_tensor(45, dims=(1, 1, 1, 128))
        gen = RngHandle(45, 1).generator()
        hits = np.zeros(128)
        draws = 15_000
        for _ in range(draws):
            _, cols = select_subarray(ch, 48, 4, gen)
            hits[cols] += 1.0
        freq = hits / draws
        assert np.max(np.abs(freq - 12.0 / 32.0)) < 0.02

    def test_deterministic_for_stream(self):
        ch = four_ap_tensor(46)
        a = select_subarray(ch, 32, 2, RngHandle(46, 5))
        b = select_subarray(ch, 32, 2, RngHandle(46, 5))
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1], b[1])
        assert a[1].tolist() == [
            64, 66, 67, 68, 71, 72, 73, 75, 76, 77, 83, 86, 87, 91, 92, 95,
            96, 97, 99, 101, 103, 104, 105, 109, 110, 111, 113, 116, 118, 119, 122, 127,
        ]

    def test_run_draws_the_antennas_select_subarray_draws(self):
        # every slot's svs equals svs of select_subarray on the same stream,
        # so the public function and the harness draw the same antennas
        cfg = ExperimentConfig(
            source=SceneSource(default_scene()),
            m_values=(16, 32),
            n_values=(1, 2),
            rho_db_values=(0.0,),
            k_values=(4,),
            trials=3,
            seed=49,
            metrics=("svs",),
        )
        values = run_experiment(cfg, workers=1).values
        _, _, draw = _trial_source(cfg)
        for trial in range(cfg.trials):
            full = normalize(draw(0, trial))
            for m_idx, m in enumerate(cfg.m_values):
                for n_idx, n in enumerate(cfg.n_values):
                    stream = _stream_id(_STREAM_SELECT, 0, trial, m_idx, n_idx)
                    sub, _ = select_subarray(full, m, n, RngHandle(cfg.seed, stream))
                    assert values[m_idx, n_idx, 0, 0, trial, 0] == svs(sub)

    def test_errors(self):
        ch = four_ap_tensor(47)
        with pytest.raises(TopologyError):
            select_subarray(ch, 50, 4, RngHandle(47, 1))
        with pytest.raises(TopologyError):
            select_subarray(ch, 32, 5, RngHandle(47, 1))
        with pytest.raises(TopologyError):
            select_subarray(ch, 32, 0, RngHandle(47, 1))
        with pytest.raises(ApCapacityError):
            select_subarray(ch, 256, 2, RngHandle(47, 1))
        with pytest.raises(InvalidInputError):
            select_subarray(ch, 32, 2, "nope")
        with pytest.raises(TopologyError, match="m_total must be an integer, got 8.9"):
            select_subarray(ch, 8.9, True, RngHandle(47, 1))
        with pytest.raises(TopologyError, match="n_aps must be an integer, got True"):
            select_subarray(ch, 8, True, RngHandle(47, 1))

    def test_each_call_checks_its_topology_once(self, monkeypatch):
        checked = []
        real = prep.check_topology

        def counted(blocks, m_total, n_aps):
            checked.append((m_total, n_aps))
            return real(blocks, m_total, n_aps)

        monkeypatch.setattr(prep, "check_topology", counted)
        ch = four_ap_tensor(49)
        select_subarray(ch, 32, 4, RngHandle(49, 1))
        select_subarray(ch, 16, 2, RngHandle(49, 2))
        assert checked == [(32, 4), (16, 2)]

    def test_normalized_input_slices_to_plain_tensor(self):
        ch = normalize(four_ap_tensor(48))
        sub, _ = select_subarray(ch, 32, 4, RngHandle(48, 1))
        assert type(sub) is ChannelTensor
