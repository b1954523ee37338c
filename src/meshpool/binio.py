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


def _encode_payload(arrays: dict) -> bytes:
    chunks = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.ndim:  # ascontiguousarray would promote 0-d to shape (1,)
            arr = np.ascontiguousarray(arr)
        chunks.append(_pack_str(name))
        chunks.append(_pack_str(arr.dtype.str))
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        raw = arr.tobytes()
        chunks.append(struct.pack("<Q", len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


def write_container(path, arrays: dict) -> None:
    """Atomically write a name -> ndarray mapping to ``path``."""
    payload = _encode_payload(arrays)
    digest = hashlib.sha256(payload).digest()
    blob = MAGIC + struct.pack("<I", FORMAT_VERSION) + digest + payload
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ContainerFormatError("container truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def read_container(path) -> dict:
    """Read a container back into a name -> ndarray dict.

    Raises ContainerFormatError on bad magic or truncation,
    ContainerVersionError on an unknown version and ContainerDigestError
    when the payload does not match its recorded sha256.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
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
    for _ in range(cur.u32()):
        name = cur.string()
        dtype = np.dtype(cur.string())
        shape = tuple(cur.u64() for _ in range(cur.u32()))
        raw = cur.take(cur.u64())
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if len(raw) != expected:
            raise ContainerFormatError(f"{path}: section {name!r} has wrong byte count")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if cur.pos != len(payload):
        raise ContainerFormatError(f"{path}: trailing bytes after last section")
    return arrays
