"""Scene model and channel synthesis: geometry, statistics, seeded behavior."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from dmimo import (
    ChannelTensor,
    DimensionError,
    InfeasibleLayoutError,
    InvalidInputError,
    PlacementError,
    RankDeficiencyError,
    Region,
    RngHandle,
    Scene,
    UserLayout,
    default_scene,
    gen_geometric,
    gen_iid_rayleigh,
    gen_trajectory_users,
    svs,
    zf_effective_gains,
)
from dmimo import synth
from dmimo.synth import SPEED_OF_LIGHT


class TestRegion:
    def test_contains(self):
        r = Region(origin=(1.0, 2.0, 0.8), width=2.0, depth=3.0)
        inside = r.contains([[2.0, 3.0, 0.8], [0.5, 3.0, 0.8], [2.0, 5.5, 0.8]])
        assert inside.tolist() == [True, False, False]
        assert r.area == 6.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Region(origin=(0.0, 0.0), width=1.0, depth=1.0)
        with pytest.raises(InvalidInputError):
            Region(origin=(0.0, 0.0, 0.0), width=0.0, depth=1.0)
        with pytest.raises(InvalidInputError):
            Region(origin=(0.0, 0.0, 0.0), width=1.0, depth=math.inf)
        with pytest.raises(InvalidInputError, match="origin"):
            Region(origin=("0", 0, True), width=1, depth=1)


class TestScene:
    def test_default_scene_layout(self):
        scene = default_scene()
        assert scene.num_aps == 4
        assert scene.antennas_per_ap == 32
        assert scene.total_antennas == 128
        assert scene.condition_per_ap == ("los", "los", "los", "los")
        assert scene.angular_spread_deg == 37.0
        assert default_scene("nlos").condition_per_ap == ("nlos",) * 4
        mixed = default_scene("mixed")
        assert sorted(mixed.condition_per_ap) == ["los", "los", "nlos", "nlos"]
        assert mixed.angular_spread_deg == 64.0
        with pytest.raises(InvalidInputError):
            default_scene("foggy")

    def test_antenna_patch_is_half_wavelength_grid(self):
        scene = default_scene()
        pos = scene.antenna_positions()
        assert pos.shape == (128, 3)
        spacing = 0.5 * scene.wavelength_m
        first = pos[:32]
        # patch is centered on the AP
        assert np.allclose(first.mean(axis=0), scene.ap_positions[0], atol=1e-12)
        # all elements share the AP's y plane
        assert np.allclose(first[:, 1], scene.ap_positions[0][1])
        # 32 elements factor into a 4 x 8 grid with lambda/2 pitch
        xs = np.unique(np.round(first[:, 0], 9))
        zs = np.unique(np.round(first[:, 2], 9))
        assert len(xs) == 8 and len(zs) == 4
        assert np.allclose(np.diff(xs), spacing, atol=1e-9)
        assert np.allclose(np.diff(zs), spacing, atol=1e-9)

    def test_subcarrier_frequencies(self):
        scene = default_scene(num_subcarriers=5)
        freqs = scene.subcarrier_frequencies()
        assert freqs.shape == (5,)
        assert np.isclose(freqs.mean(), scene.carrier_hz)
        assert np.isclose(freqs[-1] - freqs[0], scene.bandwidth_hz)
        single = default_scene().subcarrier_frequencies()
        assert single.tolist() == [5.6e9]

    def test_ap_map_matches_layout(self):
        scene = default_scene()
        m = scene.antenna_ap_map()
        assert m.shape == (128,)
        assert np.array_equal(np.unique(m), [0, 1, 2, 3])
        assert np.all(np.diff(m) >= 0)

    def test_validation(self):
        region = Region(origin=(0.0, 0.0, 0.8), width=2.0, depth=2.0)
        base = dict(
            ap_positions=((0.0, 0.0, 2.0),),
            antennas_per_ap=4,
            region=region,
            condition_per_ap=("los",),
            rice_k_db=9.0,
            num_scatterers=8,
            angular_spread_deg=30.0,
            carrier_hz=5.6e9,
            bandwidth_hz=0.0,
        )
        Scene(**base)
        with pytest.raises(InvalidInputError):
            Scene(**{**base, "condition_per_ap": ("dark",)})
        with pytest.raises(InvalidInputError):
            Scene(**{**base, "condition_per_ap": ("los", "los")})
        with pytest.raises(InvalidInputError):
            Scene(**{**base, "angular_spread_deg": 0.0})
        with pytest.raises(InvalidInputError):
            Scene(**{**base, "rice_k_db": math.inf})
        with pytest.raises(InvalidInputError):
            Scene(**{**base, "antennas_per_ap": 0})
        with pytest.raises(InvalidInputError):
            Scene(**{**base, "num_scatterers": 0})
        los = default_scene("los")
        with pytest.raises(InvalidInputError, match="antennas_per_ap must be an integer"):
            dataclasses.replace(los, antennas_per_ap=8.7)
        with pytest.raises(InvalidInputError, match="num_scatterers must be an integer"):
            dataclasses.replace(los, num_scatterers=True)


class TestUserLayout:
    def test_single_user(self):
        u = UserLayout(np.array([[1.0, 1.0, 0.8]]))
        assert u.num_users == 1

    def test_spacing_bounds_enforced(self):
        pts = np.array([[0.0, 0.0, 0.8], [0.05, 0.0, 0.8]])
        with pytest.raises(PlacementError):
            UserLayout(pts, min_spacing_m=0.1, max_spacing_m=5.0)
        pts2 = np.array([[0.0, 0.0, 0.8], [9.0, 0.0, 0.8]])
        with pytest.raises(PlacementError):
            UserLayout(pts2, min_spacing_m=0.1, max_spacing_m=5.0)
        UserLayout(pts2 / 3.0, min_spacing_m=0.1, max_spacing_m=5.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            UserLayout(np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            UserLayout(np.array([[0.0, 0.0, np.nan]]))
        with pytest.raises(InvalidInputError):
            UserLayout(np.zeros((1, 3)), min_spacing_m=2.0, max_spacing_m=1.0)


class TestTrajectoryUsers:
    def test_draw_respects_bounds(self):
        scene = default_scene()
        users = gen_trajectory_users(scene, 12, rng=RngHandle(9, 0))
        assert users.num_users == 12
        assert np.all(scene.region.contains(users.positions))
        d = users.positions[:, None, :] - users.positions[None, :, :]
        dist = np.sqrt((d**2).sum(axis=2))
        pair = dist[np.triu_indices(12, k=1)]
        assert np.all(pair >= 0.1) and np.all(pair <= 5.0)

    def test_deterministic_for_stream(self):
        scene = default_scene()
        a = gen_trajectory_users(scene, 6, rng=RngHandle(5, 1))
        b = gen_trajectory_users(scene, 6, rng=RngHandle(5, 1))
        assert np.array_equal(a.positions, b.positions)

    def test_impossible_spacing_raises(self):
        scene = default_scene()
        # region diagonal is ~5.6 m, so a 6 m minimum spacing can never be met
        with pytest.raises(InfeasibleLayoutError):
            gen_trajectory_users(scene, 3, spacing=(6.0, 100.0), rng=RngHandle(1, 0))

    @pytest.mark.parametrize(
        "num_users, spacing, field",
        [
            (2.5, (0.1, 5.0), "num_users"),
            (True, (0.1, 5.0), "num_users"),
            (2, ("0.1", 5), "spacing[0]"),
            (2, (0.1, None), "spacing[1]"),
        ],
    )
    def test_validation(self, num_users, spacing, field):
        with pytest.raises(InvalidInputError, match=re.escape(field)):
            gen_trajectory_users(default_scene(), num_users, spacing, RngHandle(1, 0))

    @pytest.mark.parametrize(
        "num_users, min_spacing, bound",
        [(3, 6.0, "diagonal"), (2, 5.6, "diagonal"), (20, 2.0, "spacing disks")],
    )
    def test_provably_infeasible_spacing_raises_before_drawing(self, num_users, min_spacing, bound):
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with pytest.raises(InfeasibleLayoutError, match=bound):
            gen_trajectory_users(default_scene(), num_users, spacing=(min_spacing, 100.0), rng=gen)
        assert gen.bit_generator.state == state


class TestIidRayleigh:
    def test_dims_and_determinism(self):
        ch = gen_iid_rayleigh((2, 3, 4, 8), RngHandle(10, 2))
        assert isinstance(ch, ChannelTensor)
        assert ch.dims == (2, 3, 4, 8)
        again = gen_iid_rayleigh((2, 3, 4, 8), RngHandle(10, 2))
        assert np.array_equal(ch.data, again.data)
        other = gen_iid_rayleigh((2, 3, 4, 8), RngHandle(10, 3))
        assert not np.array_equal(ch.data, other.data)

    def test_moments(self):
        ch = gen_iid_rayleigh((10, 10, 10, 100), RngHandle(11, 0))
        h = ch.data.ravel()
        assert abs(h.mean()) < 0.013
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02
        assert abs(np.var(h.real) - 0.5) < 0.01
        assert abs(np.var(h.imag) - 0.5) < 0.01

    def test_vector_energy(self):
        # a (1, 1, 1, 16) draw has mean squared norm 16
        total = 0.0
        for trial in range(400):
            ch = gen_iid_rayleigh((1, 1, 1, 16), RngHandle(12, trial))
            total += float(np.sum(np.abs(ch.data) ** 2))
        assert abs(total / 400 - 16.0) < 16.0 * 0.02

    def test_inner_product_concentration(self):
        # random 64-antenna user pairs are nearly orthogonal on average
        vals = []
        for trial in range(2000):
            ch = gen_iid_rayleigh((1, 1, 2, 64), RngHandle(13, trial))
            h1, h2 = ch.data[0, 0]
            vals.append(
                abs(np.vdot(h1, h2)) / (np.linalg.norm(h1) * np.linalg.norm(h2))
            )
        assert np.mean(vals) < 0.15

    def test_spread_shrinks_with_antennas(self):
        medians = []
        for m_idx, m in enumerate((16, 32, 64, 128)):
            samples = [
                svs(gen_iid_rayleigh((1, 1, 12, m), RngHandle(14, 1000 * m_idx + t)).slice_matrix(0, 0))
                for t in range(300)
            ]
            medians.append(float(np.median(samples)))
        assert medians[0] > medians[1] > medians[2] > medians[3]

    def test_errors(self):
        with pytest.raises(DimensionError):
            gen_iid_rayleigh((1, 1, 4), RngHandle(0, 0))
        with pytest.raises(DimensionError):
            gen_iid_rayleigh((1, 0, 4, 8), RngHandle(0, 0))
        with pytest.raises(DimensionError, match=r"dims\[0\] must be an integer, got 1.5"):
            gen_iid_rayleigh((1.5, True, "2", 4), RngHandle(0, 0))
        with pytest.raises(DimensionError, match=r"dims\[1\] must be an integer, got True"):
            gen_iid_rayleigh((1, True, 2, 4), RngHandle(0, 0))
        with pytest.raises(DimensionError, match=r"dims\[2\] must be an integer, got '2'"):
            gen_iid_rayleigh((1, 1, "2", 4), RngHandle(0, 0))
        with pytest.raises(InvalidInputError):
            gen_iid_rayleigh((1, 1, 4, 8), "not an rng")


class TestGeometric:
    def test_dims_map_and_determinism(self):
        scene = default_scene(num_subcarriers=3, num_snapshots=2)
        users = gen_trajectory_users(scene, 4, rng=RngHandle(20, 0))
        ch = gen_geometric(scene, users, rng=RngHandle(20, 1))
        assert ch.dims == (2, 3, 4, 128)
        assert ch.num_aps == 4
        again = gen_geometric(scene, users, rng=RngHandle(20, 1))
        assert np.array_equal(ch.data, again.data)

    @pytest.mark.parametrize(
        "scene, num_users, seed, dims, digest",
        [
            (
                default_scene("los"),
                4,
                7,
                (1, 1, 4, 128),
                "1a857796144a88f4839f15cb5e6f3035eebf059a2f50dac2a228c315bccd19c5",
            ),
            (
                default_scene("mixed", num_subcarriers=4, num_snapshots=2),
                3,
                11,
                (2, 4, 3, 128),
                "bc0ed1badf6380918e3118d2d4016488b6b1da9fab0c4e816249eda29cdce6a5",
            ),
            (
                default_scene("nlos", num_subcarriers=3, num_snapshots=2),
                5,
                13,
                (2, 3, 5, 128),
                "659099b01f33e1e1009d9b21b7b156c443b32fa71750fa08f8989adfb26eadb4",
            ),
            (
                default_scene("los", num_subcarriers=16, num_snapshots=4),
                12,
                17,
                (4, 16, 12, 128),
                "71f924dc8712c60114abc11456ce70346eac0fa73f017065c62926ca8559b40f",
            ),
            (
                default_scene("mixed"),
                1,
                19,
                (1, 1, 1, 128),
                "41ad993b524c5fc78481e912e46e11f75dbea013ddb3faf2f41292915d93325c",
            ),
        ],
        ids=["los", "mixed", "nlos", "wideband", "one_user"],
    )
    def test_frozen_bits(self, scene, num_users, seed, dims, digest):
        # any change to the draw order or to the floating-point expressions
        # of the synthesis moves these bytes
        users = gen_trajectory_users(scene, num_users, (0.1, 5.0), RngHandle(seed, 1))
        ch = gen_geometric(scene, users, RngHandle(seed, 2))
        assert ch.dims == dims
        assert hashlib.sha256(ch.data.tobytes()).hexdigest() == digest

    def test_caller_generator_consumption_is_frozen(self):
        # a caller's Generator is drawn from in place: the tensor and the
        # Generator's next draw pin how many numbers one call consumes
        scene = default_scene("mixed", num_subcarriers=2, num_snapshots=3)
        users = gen_trajectory_users(scene, 4, (0.1, 5.0), RngHandle(23, 1))
        gen = np.random.default_rng(23)
        ch = gen_geometric(scene, users, gen)
        assert (
            hashlib.sha256(ch.data.tobytes()).hexdigest()
            == "96da32f345db5cf2c9ad9507e0b8775fccb9dae0e72e8c2a32b45863ee2917e1"
        )
        assert gen.random() == 0.00946698693834036

    def test_outputs_do_not_depend_on_block_cap(self, monkeypatch):
        # 5 users x 4 APs = 20 links, two LoS and two NLoS APs, T * L = 6;
        # caps of 1 link, 3 links (blocks straddle users and mix LoS with
        # NLoS) and the default (all 20 links in one block)
        scene = default_scene("mixed", num_subcarriers=2, num_snapshots=3)
        users = gen_trajectory_users(scene, 5, (0.1, 5.0), RngHandle(31, 1))
        per_link = scene.num_subcarriers * scene.num_scatterers * scene.antennas_per_ap
        assert synth.GEOMETRY_BLOCK_ENTRIES // per_link >= 20
        digests = set()
        for cap in (1, 3 * per_link, synth.GEOMETRY_BLOCK_ENTRIES):
            monkeypatch.setattr(synth, "GEOMETRY_BLOCK_ENTRIES", cap)
            ch = gen_geometric(scene, users, RngHandle(31, 2))
            digests.add(hashlib.sha256(ch.data.tobytes()).hexdigest())
        assert len(digests) == 1

    def test_user_outside_region_rejected(self):
        scene = default_scene()
        layout = UserLayout(np.array([[50.0, 0.0, 0.8]]))
        with pytest.raises(PlacementError):
            gen_geometric(scene, layout, rng=RngHandle(21, 0))

    def test_pure_los_limit_is_plane_wave(self):
        # with a huge Ricean factor the link reduces to unit-magnitude
        # entries whose phases follow the exact element-user distances
        scene = Scene(
            ap_positions=((0.0, 0.0, 2.0),),
            antennas_per_ap=4,
            region=Region(origin=(0.0, 0.0, 0.8), width=2.0, depth=2.0),
            condition_per_ap=("los",),
            rice_k_db=300.0,
            num_scatterers=1,
            angular_spread_deg=30.0,
            carrier_hz=5.6e9,
            bandwidth_hz=0.0,
        )
        layout = UserLayout(np.array([[1.0, 1.5, 0.8]]))
        ch = gen_geometric(scene, layout, rng=RngHandle(22, 0))
        row = ch.data[0, 0, 0]
        assert np.all(np.abs(np.abs(row) - 1.0) < 1e-6)
        dists = np.linalg.norm(
            scene.antenna_positions() - layout.positions[0], axis=1
        )
        expected = np.exp(1j * 2.0 * np.pi * scene.carrier_hz / SPEED_OF_LIGHT * dists)
        assert np.all(np.abs(row - expected) < 1e-6)

    def test_coincident_users_saturate(self):
        scene = default_scene(rice_k_db=300.0)
        pos = np.array([[1.2, 2.5, 0.8], [1.2, 2.5, 0.8]])
        layout = UserLayout(pos, min_spacing_m=0.0)
        ch = gen_geometric(scene, layout, rng=RngHandle(23, 0))
        mat = ch.slice_matrix(0, 0)
        assert svs(mat) == math.inf
        with pytest.raises(RankDeficiencyError):
            zf_effective_gains(mat)

    def test_mean_link_power_is_unity(self):
        scene = default_scene("mixed", num_snapshots=10)
        powers = []
        for trial in range(3):
            users = gen_trajectory_users(scene, 4, rng=RngHandle(24, 2 * trial))
            ch = gen_geometric(scene, users, rng=RngHandle(24, 2 * trial + 1))
            powers.append(np.abs(ch.data) ** 2)
        mean_power = float(np.mean(np.concatenate([p.ravel() for p in powers])))
        assert abs(mean_power - 1.0) < 0.03

    def test_distributed_aps_improve_conditioning(self):
        # same 32 total antennas: one co-located patch vs four corner APs
        region = Region(origin=(0.0, 0.0, 0.8), width=2.5, depth=5.0)
        colocated = Scene(
            ap_positions=((-0.5, -0.5, 2.0),),
            antennas_per_ap=32,
            region=region,
            condition_per_ap=("los",),
            rice_k_db=9.0,
            num_scatterers=24,
            angular_spread_deg=37.0,
            carrier_hz=5.6e9,
            bandwidth_hz=400e6,
        )
        distributed = default_scene()
        spread = {"one": [], "four": []}
        for trial in range(100):
            users = gen_trajectory_users(distributed, 8, rng=RngHandle(25, 3 * trial))
            one = gen_geometric(colocated, users, rng=RngHandle(25, 3 * trial + 1))
            # reuse the same antenna budget: keep 8 antennas per corner AP
            small = Scene(
                ap_positions=distributed.ap_positions,
                antennas_per_ap=8,
                region=region,
                condition_per_ap=distributed.condition_per_ap,
                rice_k_db=9.0,
                num_scatterers=24,
                angular_spread_deg=37.0,
                carrier_hz=5.6e9,
                bandwidth_hz=400e6,
            )
            four = gen_geometric(small, users, rng=RngHandle(25, 3 * trial + 2))
            spread["one"].append(svs(one.slice_matrix(0, 0)))
            spread["four"].append(svs(four.slice_matrix(0, 0)))
        assert np.median(spread["four"]) < np.median(spread["one"])
