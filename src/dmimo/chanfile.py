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

Memory: scan_channel_file checks the payload by streaming the file through
one fixed block of _BLOCK_ENTRIES float32 pairs, and keeps only the header
and the AP map. Its ChannelFile then reads users by offset: the complex128
tensor it returns (twice the size of those users' float32 pairs) plus one
slab's float32 rows of them, and the tensor owns the array it was read
into. A read fails if the file has changed since the scan.
read_channel_file is that scan and a read of every user, so every file
read goes through one reader. Writing converts one block at a time in
write_channel_blocks, the one payload writer: it takes blocks of rows as a
generator makes them, so the whole tensor never exists in memory, and
write_channel_file hands it a tensor cut into blocks.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidInputError
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


def _header(dims, antenna_ap_map) -> bytes:
    """The header and AP map bytes of a file; dims above 65535 or AP ids
    above 255 do not fit the format."""
    for name, value in zip("TLKM", dims):
        if value > _DIM_LIMIT:
            raise FormatError(
                f"dimension {name}={value} exceeds the format's u16 limit {_DIM_LIMIT}"
            )
    ap_map = np.asarray(antenna_ap_map)
    if ap_map.max() > _AP_ID_LIMIT:
        raise FormatError(
            f"AP id {int(ap_map.max())} exceeds the format's u8 limit {_AP_ID_LIMIT}"
        )
    t, l, k, m = dims
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, t, l, k, m, len(np.unique(ap_map)))
    return head + ap_map.astype(np.uint8).tobytes()


def write_channel_file(ch: ChannelTensor, path) -> None:
    """Serialize a ChannelTensor; dims above 65535 do not fit the header.

    The tensor goes to write_channel_blocks in blocks of whole user rows,
    each about one read block (at least one user of every (t, l) slab).
    """
    if not isinstance(ch, ChannelTensor):
        raise FormatError("write_channel_file expects a ChannelTensor")
    t, l, k, m = ch.dims
    rows = max(1, _BLOCK_ENTRIES // (t * l * m))
    blocks = ((k0, ch.data[:, :, k0 : k0 + rows]) for k0 in range(0, k, rows))
    write_channel_blocks(path, ch.dims, ch.antenna_ap_map, blocks)


def write_channel_blocks(path, dims, antenna_ap_map, blocks) -> None:
    """Write the channel file of a (T, L, K, M) tensor that arrives in blocks,
    holding one block at a time.

    Each block is (first, values), with values of shape (T, L, B, C): it fills
    rows first to first + B - 1 of every (t, l) slab, the slab's K*M entries
    taken as rows of C. Each row is written once, at its offset. A value
    that is not finite in float32, or blocks that hold more or fewer entries
    than the tensor, raise InvalidInputError. The file is written under a
    temporary name beside `path` and renamed onto it once complete, so a file
    already at `path` survives any failure, and a reader that holds it open
    keeps reading the old file.
    """
    path = os.fspath(path)
    head = _header(dims, antenna_ap_map)
    t, l, k, m = dims
    slab_bytes = 8 * k * m
    partial = f"{path}.{os.getpid()}.part"
    fh = open(partial, "wb")
    try:
        with fh:
            fh.write(head)
            fh.flush()
            written = 0
            for first, values in blocks:
                # an entry beyond float32's range becomes inf, reported below
                with np.errstate(over="ignore"):
                    part = np.ascontiguousarray(values, dtype="<c8")
                if not np.isfinite(part).all():
                    raise InvalidInputError("channel tensor entries must all be finite")
                offset = len(head) + 8 * first * part.shape[3]
                for row in part.reshape(t * l, -1):
                    if os.pwrite(fh.fileno(), row, offset) < row.nbytes:
                        raise OSError(f"short write to {partial}")
                    offset += slab_bytes
                written += part.size
            if written != t * l * k * m:
                raise InvalidInputError(
                    f"blocks hold {written} entries, the {dims} tensor {t * l * k * m}"
                )
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def read_channel_file(path) -> ChannelTensor:
    """Parse a channel file back into a ChannelTensor: its ChannelFile's read
    of every user.

    Malformed files raise FormatError with the byte offset of the problem;
    truncation errors also carry the total size the header promised.
    """
    source = scan_channel_file(path)
    return source.read_users(np.arange(source.dims[2]))


@dataclass(frozen=True, eq=False)
class ChannelFile:
    """A channel file that scan_channel_file has checked: its path, its
    (T, L, K, M) dims and its AP map, without its payload. `stamp` is the
    file's (device, inode, modification time in ns) when the scan opened it."""

    path: str
    dims: tuple
    antenna_ap_map: np.ndarray
    stamp: tuple

    def read_users(self, users) -> ChannelTensor:
        """The (T, L, len(users), M) tensor of the file's users at the strictly
        increasing indices `users`.

        Each run of consecutive users is one stretch of each (t, l) slab, read
        with one call at its offset on a descriptor opened for this call, so
        reading every user takes T*L calls. The slab's rows pass through one
        float32 buffer into the complex128 tensor. A file that no longer has
        its header's size raises the FormatError scan_channel_file would; one
        replaced or modified since the scan, even at the same size, raises
        FormatError too.
        """
        t, l, k, m = self.dims
        users = np.asarray(users)
        if not (
            users.ndim == 1 and users.size and users.dtype.kind in "iu"
            and users[0] >= 0 and users[-1] < k and np.all(users[1:] > users[:-1])
        ):
            raise InvalidInputError(f"users must be strictly increasing indices below {k}")
        rows = np.empty((users.size, 8 * m), dtype=np.uint8)
        # (bytes of `rows`, offset in a slab) of each run of consecutive users
        bounds = [0, *(np.flatnonzero(np.diff(users) != 1) + 1).tolist(), users.size]
        runs = [(rows[a:b].reshape(-1), 8 * m * int(users[a])) for a, b in zip(bounds, bounds[1:])]
        data = np.empty((t, l, users.size, m), dtype=np.complex128)
        with open(self.path, "rb") as fh:
            fd = fh.fileno()
            for slab, out in enumerate(data.reshape(t * l, users.size, m)):
                base = HEADER_SIZE + m + slab * 8 * k * m
                for part, skip in runs:
                    got = os.preadv(fd, [part], base + skip)
                    # a read stops short at the kernel's ~2 GiB cap, or at EOF
                    while got < part.size:
                        more = os.preadv(fd, [part[got:]], base + skip + got)
                        if not more:
                            raise _truncated(self.dims, os.fstat(fd).st_size)
                        got += more
                out[...] = rows.view("<c8")
            # after the reads, so a change while they ran is caught too
            status = os.fstat(fd)
        _check_size(self.dims, status.st_size)
        if _stamp(status) != self.stamp:
            raise FormatError(
                f"{self.path} changed after it was checked at the start of the run"
            )
        data.setflags(write=False)
        return ChannelTensor(data, self.antenna_ap_map)


def scan_channel_file(path) -> ChannelFile:
    """Check a channel file in one streaming pass that keeps only its header
    and AP map: its header, its size, and that its payload is whole and
    finite, each failure a FormatError at the byte offset of the problem."""
    with open(path, "rb") as fh:
        stamp = _stamp(os.fstat(fh.fileno()))
        dims, ap_map = _read_header(fh)
        payload_offset = HEADER_SIZE + dims[3]
        total = math.prod(dims)
        block = np.empty(min(_BLOCK_ENTRIES, total), dtype="<c8")
        for start in range(0, total, block.size):
            part = block[: total - start]
            got = fh.readinto(part)
            if got < part.nbytes:
                raise _truncated(dims, payload_offset + 8 * start + got)
            bad = np.flatnonzero(~np.isfinite(part))
            if bad.size:
                raise FormatError(
                    "payload holds a non-finite coefficient",
                    byte_offset=payload_offset + 8 * (start + int(bad[0])),
                )
    ap_map.setflags(write=False)
    return ChannelFile(os.fspath(path), dims, ap_map, stamp)


def _stamp(status: os.stat_result) -> tuple:
    """What tells one file, or one version of a file, from another: a rename
    onto the path changes the inode, a write in place the modification time."""
    return status.st_dev, status.st_ino, status.st_mtime_ns


def _read_header(fh) -> tuple:
    """((T, L, K, M), AP map) of the file open at its start in fh, after
    checking the header, the file's size and the AP map."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise FormatError(
            f"file ends inside the {HEADER_SIZE}-byte header ({len(head)} bytes)",
            byte_offset=len(head),
        )
    magic, version, t, l, k, m, ap_count = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", byte_offset=0)
    if version != FORMAT_VERSION:
        raise FormatError(
            f"unsupported format version {version}, expected {FORMAT_VERSION}",
            byte_offset=4,
        )
    for index, (name, value) in enumerate(zip("TLKM", (t, l, k, m))):
        if value == 0:
            raise FormatError(f"dimension {name} is zero", byte_offset=6 + 2 * index)
    if ap_count == 0:
        raise FormatError("AP count is zero", byte_offset=14)
    dims = (t, l, k, m)
    _check_size(dims, size)

    ap_map = np.frombuffer(fh.read(m), dtype=np.uint8).astype(np.int64)
    if ap_map.size < m:
        raise _truncated(dims, HEADER_SIZE + ap_map.size)
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
    return dims, ap_map


def _check_size(dims, size: int) -> None:
    """Raise FormatError unless a file of `size` bytes has the size its
    header's dims promise."""
    expected = expected_file_size(dims)
    if size < expected:
        raise _truncated(dims, size)
    if size > expected:
        raise FormatError(
            f"{size - expected} trailing bytes after the {expected}-byte tensor",
            byte_offset=expected,
            expected_size=expected,
        )


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
