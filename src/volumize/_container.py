"""How bytes reach disk: one atomic writer and one binary framing.

Every file the package writes goes through write_atomic, so a crash or a
failed write leaves the previous file in place, never a torn one. The two
binary formats (checkpoints, packed weights) share one framing:

    magic[4] version[1] body crc32[u32, little-endian]

The crc covers the version byte and the body; each format owns only its
body layout.
"""

import contextlib
import os
import struct
import zlib

from .errors import CheckpointError


def write_atomic(path, data: bytes) -> None:
    """Replace path with data: write a temp file next to it, fsync it, and
    os.replace it over path. On any failure the temp file is removed and
    path is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_framed(path, magic: bytes, version: int, body: bytes) -> None:
    framed = bytes([version]) + body
    write_atomic(path, magic + framed + struct.pack("<I", zlib.crc32(framed)))


def read_framed(path, magic: bytes, version: int, what: str) -> bytes:
    """The body of a framed file, after checking its length, magic, crc and
    version, in that order; CheckpointError names the first that fails."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(magic) + 5 or blob[:len(magic)] != magic:
        raise CheckpointError(f"integrity: not a {what} file")
    framed = blob[len(magic):-4]
    if zlib.crc32(framed) != struct.unpack("<I", blob[-4:])[0]:
        raise CheckpointError("integrity: checksum mismatch")
    if framed[0] != version:
        raise CheckpointError(f"version: unsupported {what} version {framed[0]}")
    return framed[1:]
