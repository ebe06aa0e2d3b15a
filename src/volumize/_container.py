"""How bytes reach disk: one atomic writer, one binary framing and one
record codec.

Every file the package writes goes through write_atomic, so a crash or a
failed write leaves the previous file in place, never a torn one. The two
binary formats (checkpoints, packed weights) share one framing:

    magic[4] version[1] body crc32[u32, little-endian]

The crc covers the version byte and the body; each format owns only its
body layout.

The two JSON records (the checkpoint header's sections and the sweep's cell
files) share one codec: to_record/from_record write and read a dataclass
field by field, with every float and list[float] field as a C99 hex literal
so that it round-trips bit for bit (nan, infinities and -0.0 included).
The record's keys are the dataclass's field names, so adding a field to a
record dataclass changes the format of the file it is written to (and so
needs a version bump of the checkpoint format). Field annotations must be
the types themselves, not strings: a module with `from __future__ import
annotations` would have its floats written as plain JSON numbers.
"""

import contextlib
import os
import struct
import zlib
from dataclasses import fields

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


def _map_floats(tp, value, convert):
    if tp is float:
        return convert(value)
    if tp == list[float]:
        return [convert(x) for x in value]
    return value


def to_record(obj, **extra) -> dict:
    """The fields of dataclass obj, floats as hex literals, plus extra."""
    record = {f.name: _map_floats(f.type, getattr(obj, f.name), lambda x: float(x).hex())
              for f in fields(obj)}
    return {**record, **extra}


def from_record(cls, record: dict):
    """The inverse of to_record: cls built from the record's field keys.
    Other keys are ignored; a missing field raises KeyError and a float
    that is not a hex literal TypeError or ValueError."""
    return cls(**{f.name: _map_floats(f.type, record[f.name], float.fromhex)
                  for f in fields(cls)})
