"""Named-array binary container used for feature caches and checkpoints.

Layout: 4-byte magic, little-endian u32 format version, 32-byte sha256 of
the payload, then the payload itself. The payload is a u32 section count
followed by sections of (name, dtype string, shape, raw bytes), each
length-prefixed. Readers verify magic, version and digest before touching
any array data, and writes go through a temp file plus rename so a crash
never leaves a half-written container behind.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

MAGIC = b"MPC1"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """Base class for malformed or mismatched containers."""


class ContainerFormatError(ContainerError):
    pass


class ContainerVersionError(ContainerError):
    pass


class ContainerDigestError(ContainerError):
    pass


def str_to_array(s: str) -> np.ndarray:
    """UTF-8 bytes of ``s`` as a uint8 array, for storing text in a container."""
    return np.frombuffer(s.encode("utf-8"), dtype=np.uint8).copy()


def array_to_str(a: np.ndarray) -> str:
    """Inverse of ``str_to_array``."""
    return a.tobytes().decode("utf-8")


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write_container(path, arrays: dict) -> None:
    """Atomically write a name -> ndarray mapping to ``path``. The digest
    and the file take the payload piece by piece, each section's header
    bytes and then a byte view of its array, copied only if not C-contiguous."""
    pieces = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.ndim:  # ascontiguousarray would promote 0-d to shape (1,)
            arr = np.ascontiguousarray(arr)
        pieces.append(_pack_str(name) + _pack_str(arr.dtype.str)
                      + struct.pack(f"<I{arr.ndim}QQ", arr.ndim, *arr.shape, arr.nbytes))
        pieces.append(arr.reshape(-1).view(np.uint8))
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", FORMAT_VERSION) + digest.digest())
        fh.writelines(pieces)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _Cursor:
    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise ContainerFormatError("container truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        return str(self.take(self.unpack("<I")[0]), "utf-8")


def read_container(path) -> dict:
    """Read a container back into a name -> ndarray dict.

    Raises ContainerFormatError on bad magic or truncation,
    ContainerVersionError on an unknown version and ContainerDigestError
    when the payload does not match its recorded sha256. Each array is
    copied once, from the bytes read.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())  # slices of it copy nothing
    if len(blob) < 40 or blob[:4] != MAGIC:
        raise ContainerFormatError(f"{path}: not a container file")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != FORMAT_VERSION:
        raise ContainerVersionError(f"{path}: version {version}, expected {FORMAT_VERSION}")
    digest, payload = blob[8:40], blob[40:]
    if hashlib.sha256(payload).digest() != digest:
        raise ContainerDigestError(f"{path}: payload digest mismatch")
    cur = _Cursor(payload)
    arrays = {}
    for _ in range(cur.unpack("<I")[0]):
        name = cur.string()
        dtype = np.dtype(cur.string())
        shape = cur.unpack(f"<{cur.unpack('<I')[0]}Q")
        raw = cur.take(cur.unpack("<Q")[0])
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if len(raw) != expected:
            raise ContainerFormatError(f"{path}: section {name!r} has wrong byte count")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if cur.pos != len(payload):
        raise ContainerFormatError(f"{path}: trailing bytes after last section")
    return arrays
