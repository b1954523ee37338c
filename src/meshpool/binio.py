"""Named-array binary container used for feature caches and checkpoints.

Layout: 4-byte magic, little-endian u32 format version, 32-byte sha256 of
the payload, then the payload itself. The payload is a u32 section count
followed by sections of (name, dtype string, shape, raw bytes), each
length-prefixed. Readers verify magic, version and digest before touching
any array data, and writes go through a temp file plus rename so a crash
never leaves a half-written container behind. Callers take text and
arrays from a read container through ``Sections``, which checks each one.
"""

from __future__ import annotations

import hashlib
import math
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


class Sections:
    """Sections that ``read_container`` returned from ``path``: a failed
    check raises ``error``, the caller's class, naming path and section."""

    def __init__(self, path, arrays: dict, error: type):
        self.path, self.arrays, self.error = path, arrays, error

    def _get(self, name: str) -> np.ndarray:
        if name not in self.arrays:
            raise self.error(f"{self.path}: missing section {name}")
        return self.arrays[name]

    def text(self, name: str) -> str:
        try:
            return array_to_str(self._get(name))
        except UnicodeDecodeError:
            raise self.error(f"{self.path}: section {name} is not UTF-8 text") from None

    def array(self, name: str, dtype, shape: tuple) -> np.ndarray:
        """Section ``name``, holding ``dtype`` in ``shape`` (None: any length)."""
        a = self._get(name)
        if a.dtype != dtype or a.ndim != len(shape) or any(
                want not in (None, got) for want, got in zip(shape, a.shape)):
            dims = ", ".join("*" if d is None else str(d) for d in shape)
            raise self.error(f"{self.path}: section {name} holds {a.dtype} {a.shape}, "
                             f"expected {np.dtype(dtype)} ({dims}{',' * (len(shape) == 1)})")
        return a


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


_HASH_CHUNK = 1 << 16  # bytes per read while hashing the payload


class _Reader:
    """Reads a container payload from an open file, ``left`` bytes of it
    still unread; every length is checked against ``left`` before anything
    is read or allocated, so a corrupt length is a truncation error."""

    def __init__(self, path, fh, left: int):
        self.path, self.fh, self.left = path, fh, left

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise ContainerFormatError(f"{self.path}: container truncated")
        self.left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        return self.fh.read(n)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self, what: str) -> str:
        try:
            return str(self.take(self.unpack("<I")[0]), "utf-8")
        except UnicodeDecodeError:
            raise ContainerFormatError(f"{self.path}: {what} is not UTF-8") from None

    def section(self, index: int) -> tuple:
        """(name, array) of the next section, its raw bytes read straight
        into a new array once the dtype, shape and byte count agree."""
        name = self.string(f"the name of section {index}")
        where = f"{self.path}: section {name!r}"
        code = self.string(f"the dtype of section {name!r}")
        try:
            dtype = np.dtype(code)
        except (TypeError, ValueError, SyntaxError):  # np.dtype's parse errors
            raise ContainerFormatError(f"{where} has unknown dtype {code!r}") from None
        if dtype.itemsize == 0 or dtype.hasobject:
            raise ContainerFormatError(f"{where} has dtype {code!r}, which cannot hold "
                                       "array data")
        shape = self.unpack(f"<{self.unpack('<I')[0]}Q")
        nbytes = self.unpack("<Q")[0]
        self._claim(nbytes)
        if nbytes != dtype.itemsize * math.prod(shape):
            raise ContainerFormatError(f"{where} has wrong byte count")
        try:  # numpy refuses an ndim or a dimension it cannot index
            out = np.empty(shape, dtype=dtype)
        except ValueError as exc:
            raise ContainerFormatError(f"{where} has shape {shape}: {exc}") from None
        if self.fh.readinto(out.reshape(-1).view(np.uint8)) != nbytes:
            raise ContainerFormatError(f"{self.path}: container truncated")
        return name, out


def read_container(path) -> dict:
    """Read a container back into a name -> ndarray dict.

    Raises ContainerFormatError on bad magic, truncation or a section whose
    name or dtype is not UTF-8, whose dtype numpy does not know or holds no
    bytes or Python objects, or whose shape and byte count disagree; each
    names the path, and the section where it has a name, and is raised
    before that section's array is allocated. Raises ContainerVersionError
    on an unknown version and ContainerDigestError when the payload does
    not match its recorded sha256. The payload is
    hashed in ``_HASH_CHUNK`` pieces and then read again, each array
    straight into its own allocation, so the whole file is never held.
    """
    with open(path, "rb") as fh:
        head = fh.read(40)
        if len(head) < 40 or head[:4] != MAGIC:
            raise ContainerFormatError(f"{path}: not a container file")
        version = struct.unpack("<I", head[4:8])[0]
        if version != FORMAT_VERSION:
            raise ContainerVersionError(f"{path}: version {version}, expected {FORMAT_VERSION}")
        digest, chunk = hashlib.sha256(), memoryview(bytearray(_HASH_CHUNK))
        while size := fh.readinto(chunk):
            digest.update(chunk[:size])
        if digest.digest() != head[8:40]:
            raise ContainerDigestError(f"{path}: payload digest mismatch")
        fh.seek(40)
        cur = _Reader(path, fh, os.fstat(fh.fileno()).st_size - 40)
        arrays = dict(cur.section(i) for i in range(cur.unpack("<I")[0]))
        if cur.left:
            raise ContainerFormatError(f"{path}: trailing bytes after last section")
    return arrays
