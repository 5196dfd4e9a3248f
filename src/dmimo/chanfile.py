"""Binary channel-tensor file format (version 1).

Little-endian layout:

    offset  size            field
    0       4               magic "DMCT"
    4       2 (u16)         format version, currently 1
    6       8 (4 x u16)     dims T, L, K, M
    14      2 (u16)         access-point count
    16      M  (u8 each)    antenna AP map
    16+M    8*T*L*K*M       payload: (real, imag) float32 pairs,
                            antenna index fastest (C order of (T,L,K,M))

Total size is therefore 16 + M + 8*T*L*K*M bytes. Coefficients are stored in
float32; reading promotes to the in-memory complex128 representation, so a
file round-trips to identical bytes.

Memory: reading holds one complex128 tensor (twice the payload's size) plus
one fixed block of _BLOCK_ENTRIES float32 pairs; the payload streams through
that block, and the tensor that comes back owns the array it was read into.
Writing likewise converts one block at a time.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError
from .tensor import ChannelTensor, _ap_runs

MAGIC = b"DMCT"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sH4HH")
HEADER_SIZE = _HEADER.size  # 16 bytes

_DIM_LIMIT = 0xFFFF
_AP_ID_LIMIT = 0xFF

# payload entries read, checked and converted per step: 1 MiB of float32 pairs
_BLOCK_ENTRIES = 1 << 17


def expected_file_size(dims) -> int:
    """Total byte count a file with the given (T, L, K, M) dims must have."""
    t, l, k, m = (int(v) for v in dims)
    return HEADER_SIZE + m + 8 * t * l * k * m


def write_channel_file(ch: ChannelTensor, path) -> None:
    """Serialize a ChannelTensor; dims above 65535 do not fit the header."""
    if not isinstance(ch, ChannelTensor):
        raise FormatError("write_channel_file expects a ChannelTensor")
    for name, value in zip("TLKM", ch.dims):
        if value > _DIM_LIMIT:
            raise FormatError(
                f"dimension {name}={value} exceeds the format's u16 limit {_DIM_LIMIT}"
            )
    ap_map = np.asarray(ch.antenna_ap_map)
    if ap_map.max() > _AP_ID_LIMIT:
        raise FormatError(
            f"AP id {int(ap_map.max())} exceeds the format's u8 limit {_AP_ID_LIMIT}"
        )
    t, l, k, m = ch.dims
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, t, l, k, m, ch.num_aps)
    flat = ch.data.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ap_map.astype(np.uint8).tobytes())
        for start in range(0, flat.size, _BLOCK_ENTRIES):
            fh.write(flat[start : start + _BLOCK_ENTRIES].astype("<c8"))


def read_channel_file(path) -> ChannelTensor:
    """Parse a channel file back into a ChannelTensor.

    Malformed files raise FormatError with the byte offset of the problem;
    truncation errors also carry the total size the header promised.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE:
            raise FormatError(
                f"file ends inside the {HEADER_SIZE}-byte header ({len(head)} bytes)",
                byte_offset=len(head),
            )
        magic, version, t, l, k, m, ap_count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(
                f"bad magic {magic!r}, expected {MAGIC!r}", byte_offset=0
            )
        if version != FORMAT_VERSION:
            raise FormatError(
                f"unsupported format version {version}, expected {FORMAT_VERSION}",
                byte_offset=4,
            )
        for index, (name, value) in enumerate(zip("TLKM", (t, l, k, m))):
            if value == 0:
                raise FormatError(
                    f"dimension {name} is zero", byte_offset=6 + 2 * index
                )
        if ap_count == 0:
            raise FormatError("AP count is zero", byte_offset=14)

        expected = expected_file_size((t, l, k, m))
        if size < expected:
            raise _truncated((t, l, k, m), size)
        if size > expected:
            raise FormatError(
                f"{size - expected} trailing bytes after the "
                f"{expected}-byte tensor",
                byte_offset=expected,
                expected_size=expected,
            )

        ap_map = np.frombuffer(fh.read(m), dtype=np.uint8).astype(np.int64)
        if ap_map.size < m:
            raise _truncated((t, l, k, m), HEADER_SIZE + ap_map.size)
        distinct = np.unique(ap_map)
        if distinct.size != ap_count:
            raise FormatError(
                f"AP map holds {distinct.size} distinct ids but the header "
                f"declares {ap_count}",
                byte_offset=HEADER_SIZE,
            )
        # one run of antenna columns per AP id
        if len(_ap_runs(ap_map)) != distinct.size:
            raise FormatError(
                "AP map does not group antennas contiguously per AP",
                byte_offset=HEADER_SIZE,
            )

        data = np.empty((t, l, k, m), dtype=np.complex128)
        _read_payload(fh, data.reshape(-1), (t, l, k, m))
    data.setflags(write=False)
    return ChannelTensor(data, ap_map)


def _read_payload(fh, out: np.ndarray, dims) -> None:
    """Fill the flat complex128 `out` from the payload at fh's position, one
    block of float32 pairs at a time, checking each block is finite."""
    payload_offset = HEADER_SIZE + int(dims[3])
    block = np.empty(min(_BLOCK_ENTRIES, out.size), dtype="<c8")
    for start in range(0, out.size, block.size):
        part = block[: out.size - start]
        got = fh.readinto(part)
        if got < part.nbytes:
            raise _truncated(dims, payload_offset + 8 * start + got)
        bad = np.flatnonzero(~np.isfinite(part))
        if bad.size:
            raise FormatError(
                "payload holds a non-finite coefficient",
                byte_offset=payload_offset + 8 * (start + int(bad[0])),
            )
        out[start : start + part.size] = part


def _truncated(dims, found: int) -> FormatError:
    """The error for a file that ends at byte `found`, before its header's
    promised size."""
    t, l, k, m = dims
    expected = expected_file_size(dims)
    return FormatError(
        f"file truncated: header promises {expected} bytes "
        f"(16-byte header + {m}-byte AP map + {8 * t * l * k * m}-byte "
        f"payload), found {found}",
        byte_offset=found,
        expected_size=expected,
    )
