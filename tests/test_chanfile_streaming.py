"""Channel files larger than one read block: exact error offsets at block
edges, and a read that holds one tensor plus a block, not copies of the file."""

import struct
import tracemalloc

import numpy as np
import pytest

from dmimo import ChannelTensor, FormatError, read_channel_file, write_channel_file
from dmimo.chanfile import HEADER_SIZE, _BLOCK_ENTRIES

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
