"""Channel files larger than one read block: exact error offsets at block
edges, a read that holds one tensor plus a block, not copies of the file, a
run that reads each trial's users by offset, and a synthesis that writes the
file block by block."""

import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from dmimo import (
    ChannelTensor,
    ExperimentConfig,
    FileSource,
    FormatError,
    InvalidInputError,
    RngHandle,
    cli,
    default_scene,
    gen_geometric,
    gen_iid_rayleigh,
    gen_trajectory_users,
    harness,
    read_channel_file,
    run_experiment,
    scene_to_dict,
    synth,
    write_channel_file,
)
from dmimo.chanfile import HEADER_SIZE, _BLOCK_ENTRIES, scan_channel_file, write_channel_blocks

M = 4096


def multi_block_file(tmp_path, blocks: float):
    """A one-AP file of M-antenna rows holding `blocks` read blocks of
    entries, and the complex128 data it was written from."""
    rows = int(blocks * _BLOCK_ENTRIES) // M
    rng = np.random.default_rng(7)
    data = rng.standard_normal((1, rows, 1, M)) + 1j * rng.standard_normal((1, rows, 1, M))
    path = tmp_path / "multi.dmct"
    write_channel_file(ChannelTensor(data, np.zeros(M)), path)
    return path, data


@pytest.mark.parametrize(
    "entry, part",
    [(_BLOCK_ENTRIES - 1, 0), (_BLOCK_ENTRIES - 1, 1), (_BLOCK_ENTRIES, 0), (_BLOCK_ENTRIES, 1)],
    ids=["last-of-block-real", "last-of-block-imag", "first-of-next-real", "first-of-next-imag"],
)
def test_non_finite_offset_at_block_edge(tmp_path, entry, part):
    path, _ = multi_block_file(tmp_path, 1.5)
    blob = bytearray(path.read_bytes())
    offset = HEADER_SIZE + M + 8 * entry
    blob[offset + 4 * part : offset + 4 * part + 4] = struct.pack("<f", np.nan)
    path.write_bytes(blob)
    with pytest.raises(FormatError) as info:
        read_channel_file(path)
    assert info.value.byte_offset == offset


def test_read_holds_one_tensor_plus_blocks(tmp_path):
    path, _ = multi_block_file(tmp_path, 3.5)
    tracemalloc.start()
    try:
        ch = read_channel_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * ch.data.nbytes + 2 * 8 * _BLOCK_ENTRIES


def test_block_writes_match_whole_tensor_conversion(tmp_path):
    path, data = multi_block_file(tmp_path, 2.5)
    blob = path.read_bytes()
    assert blob[HEADER_SIZE + M :] == data.astype("<c8").tobytes()
    back = read_channel_file(path)
    assert np.array_equal(back.data, data.astype(np.complex64))
    again = tmp_path / "again.dmct"
    write_channel_file(back, again)
    assert again.read_bytes() == blob


def run_config(path, **overrides):
    fields = dict(
        source=FileSource(path=str(path)),
        m_values=(8,),
        n_values=(2,),
        rho_db_values=(0.0,),
        k_values=(2,),
        trials=2,
        seed=3,
        metrics=("svs", "dpc", "zf", "fairness"),
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def two_ap_file(tmp_path, dims):
    """A two-AP file of i.i.d. entries with the given dims, and its data."""
    data = gen_iid_rayleigh(dims, RngHandle(5, 0)).data
    path = tmp_path / "users.dmct"
    write_channel_file(ChannelTensor(data, np.repeat([0, 1], dims[3] // 2)), path)
    return path, data


def test_run_holds_one_trial_plus_blocks(tmp_path):
    # 4 read blocks: 8 MiB as complex128, of which a trial draws 2 of 256 users
    path, data = two_ap_file(tmp_path, (4, 4, 256, 128))
    cfg = run_config(path)
    run_experiment(cfg, workers=1)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        run_experiment(cfg, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    trial_bytes = data.nbytes * 2 // 256
    bound = 4 * trial_bytes + 2 * 8 * _BLOCK_ENTRIES
    assert bound < data.nbytes / 3
    assert peak <= bound


def test_read_users_reads_the_users_of_the_whole_file(tmp_path):
    path, _ = two_ap_file(tmp_path, (2, 3, 9, 8))
    whole = read_channel_file(path)
    source = scan_channel_file(path)
    assert source.dims == whole.dims
    assert np.array_equal(source.antenna_ap_map, whole.antenna_ap_map)
    for users in ([0], [8], list(range(9)), [1, 2, 3, 6, 7], [0, 2, 4, 8]):
        for dtype in (np.int64, np.uint16):
            ch = source.read_users(np.array(users, dtype=dtype))
            assert np.array_equal(ch.data, whole.data[:, :, users])
            assert ch.data.base is None and ch.data.flags.c_contiguous


@pytest.mark.parametrize(
    "users",
    [
        [], [3, 3], [2, 1], [-1, 0], [8, 9], [[0, 1]], [0.0, 1.0], [0.5, 1.5],
        np.array([2, 1], dtype=np.uint16),  # 1 - 2 wraps to 65535 in uint16
    ],
)
def test_read_users_rejects_bad_indices(tmp_path, users):
    path, _ = two_ap_file(tmp_path, (1, 1, 9, 8))
    with pytest.raises(InvalidInputError, match="strictly increasing indices below 9"):
        scan_channel_file(path).read_users(np.array(users, dtype=int if len(users) == 0 else None))


@pytest.mark.parametrize("damage", ["truncated", "trailing", "nan-in-second-block", "bad-magic"])
def test_scan_raises_what_read_raises(tmp_path, damage):
    path, _ = multi_block_file(tmp_path, 1.5)
    blob = bytearray(path.read_bytes())
    if damage == "truncated":
        del blob[-3:]
    elif damage == "trailing":
        blob += b"\0"
    elif damage == "nan-in-second-block":
        offset = HEADER_SIZE + M + 8 * (_BLOCK_ENTRIES + 5)
        blob[offset : offset + 4] = struct.pack("<f", np.nan)
    else:
        blob[:4] = b"DMCX"
    path.write_bytes(blob)
    errors = []
    for reader in (read_channel_file, scan_channel_file):
        with pytest.raises(FormatError) as info:
            reader(path)
        errors.append((str(info.value), info.value.byte_offset, info.value.expected_size))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_file_truncated_after_the_scan_fails_loudly(tmp_path, monkeypatch, workers):
    path, _ = two_ap_file(tmp_path, (2, 2, 6, 8))
    size = path.stat().st_size
    scanned = harness._trial_source

    def scan_then_truncate(cfg):
        source = scanned(cfg)
        os.truncate(path, size - 8)
        return source

    monkeypatch.setattr(harness, "_trial_source", scan_then_truncate)
    monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)  # one trial per chunk
    with pytest.raises(FormatError, match=f"^file truncated: header promises {size} bytes") as info:
        run_experiment(run_config(path), workers=workers)
    assert (info.value.byte_offset, info.value.expected_size) == (size - 8, size)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("change", ["replaced", "rewritten-in-place"])
def test_file_changed_after_the_scan_fails_loudly(tmp_path, monkeypatch, workers, change):
    # the same dims and size, other entries: only the file's stamp tells
    path, data = two_ap_file(tmp_path, (2, 2, 6, 8))
    other = ChannelTensor(-data, np.repeat([0, 1], 4))
    scanned = harness._trial_source

    def scan_then_change(cfg):
        source = scanned(cfg)
        if change == "replaced":
            write_channel_file(other, path)
        else:
            checked = path.stat().st_mtime_ns
            blob = tmp_path / "other.dmct"
            write_channel_file(other, blob)
            with open(path, "r+b") as fh:
                fh.write(blob.read_bytes())
            # file times advance in clock ticks: a write later in a run
            # lands on a later tick than the scan
            os.utime(path, ns=(checked + 10**9, checked + 10**9))
        return source

    monkeypatch.setattr(harness, "_trial_source", scan_then_change)
    monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)  # one trial per chunk
    with pytest.raises(FormatError, match="changed after it was checked"):
        run_experiment(run_config(path), workers=workers)


def synth_config(tmp_path, scene, num_users) -> str:
    path = tmp_path / "synth.json"
    spec = {"scene": scene_to_dict(scene), "num_users": num_users, "seed": 4}
    path.write_text(json.dumps({**spec, "min_spacing_m": 0.1, "max_spacing_m": 5.0}))
    return str(path)


@pytest.mark.parametrize("cap", ["one entry", "three links", "default"])
def test_synth_writes_the_bytes_of_the_whole_tensor(tmp_path, monkeypatch, capsys, cap):
    # 5 users x 4 APs = 20 links, two LoS and two NLoS APs, T = 3, L = 2;
    # caps of 1 entry (one link per block), 3 links and the default (all 20)
    scene = default_scene("mixed", num_subcarriers=2, num_snapshots=3)
    per_link = scene.num_subcarriers * scene.num_scatterers * scene.antennas_per_ap
    entries = {"one entry": 1, "three links": 3 * per_link, "default": synth.GEOMETRY_BLOCK_ENTRIES}
    monkeypatch.setattr(synth, "GEOMETRY_BLOCK_ENTRIES", entries[cap])
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", synth_config(tmp_path, scene, 5), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'channel.dmct'} (T=3, L=2, K=5, M=128, 4 APs)\n"
    users = gen_trajectory_users(scene, 5, (0.1, 5.0), RngHandle(4, 0))
    whole = tmp_path / "whole.dmct"
    write_channel_file(gen_geometric(scene, users, RngHandle(4, 1)), whole)
    assert (out / "channel.dmct").read_bytes() == whole.read_bytes()


def test_synth_holds_one_block_not_the_tensor(tmp_path, capsys):
    # (T, L, K, M) = (2, 16, 128, 128): 4 read blocks, 8 MiB as complex128
    scene = default_scene("mixed", num_subcarriers=16, num_snapshots=2)
    config = synth_config(tmp_path, scene, 128)
    tracemalloc.start()
    try:
        assert cli.main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tensor_bytes = 16 * 2 * 16 * 128 * 128
    bound = 4 * 16 * synth.GEOMETRY_BLOCK_ENTRIES
    assert bound < tensor_bytes / 3
    assert peak <= bound


def test_failed_block_write_leaves_no_file(tmp_path):
    path = tmp_path / "bad.dmct"
    values = np.ones((1, 2, 1, 4), dtype=complex)
    ap_map = np.zeros(4, dtype=int)
    with pytest.raises(InvalidInputError, match="entries must all be finite"):
        write_channel_blocks(path, (1, 2, 2, 4), ap_map, [(0, values), (1, np.full_like(values, np.inf))])
    assert not path.exists()
    with pytest.raises(InvalidInputError, match=r"blocks hold 8 entries, the \(1, 2, 2, 4\) tensor 16"):
        write_channel_blocks(path, (1, 2, 2, 4), ap_map, [(0, values)])
    assert os.listdir(tmp_path) == []
    write_channel_blocks(path, (1, 2, 2, 4), ap_map, [(1, values), (0, 2 * values)])
    whole = np.concatenate([2 * values, values], axis=2)
    assert read_channel_file(path).data.tobytes() == whole.tobytes()


def test_failed_write_keeps_the_file_already_there(tmp_path):
    path, _ = two_ap_file(tmp_path, (1, 2, 3, 4))
    blob = path.read_bytes()
    big = np.full((1, 2, 3, 4), 1e39 + 0j)  # finite in complex128, not in float32
    with pytest.raises(InvalidInputError, match="entries must all be finite"):
        write_channel_file(ChannelTensor(big, np.repeat([0, 1], 2)), path)
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == [path.name]


def test_interrupted_synth_keeps_the_file_already_there(tmp_path, monkeypatch, capsys):
    scene = default_scene("mixed", num_subcarriers=2, num_snapshots=1)
    config = synth_config(tmp_path, scene, 3)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", config, "--out", str(out)]) == 0
    blob = (out / "channel.dmct").read_bytes()
    phasors = synth._unit_phasors
    calls = []

    def interrupt_on_the_third_call(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return phasors(*args)

    monkeypatch.setattr(synth, "GEOMETRY_BLOCK_ENTRIES", 1)  # one link per block
    monkeypatch.setattr(synth, "_unit_phasors", interrupt_on_the_third_call)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["synth", "--config", config, "--seed", "9", "--out", str(out)])
    assert (out / "channel.dmct").read_bytes() == blob
    assert os.listdir(out) == ["channel.dmct"]
