"""Little-endian binary readers/writers for the serialization formats.

All multi-byte integers are little-endian.  Structures start with an
8-byte magic that doubles as a format version; bumping the last digit
invalidates old blobs.  :func:`crc32` computes the checksum that ends a
function's blob.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from . import _native
from .errors import DeserializationError


def crc32(data) -> int:
    """The CRC-32 of a bytes-like object, equal to :func:`zlib.crc32`: the
    native kernel folds what it can of it and zlib finishes the rest, or
    takes it all when :data:`sichash._native.lib` is None."""
    lib = _native.lib
    if lib is None:
        return zlib.crc32(data)
    folded, crc = lib.crc32_fold(data)
    return zlib.crc32(memoryview(data).cast("B")[folded:], crc)


class Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def magic(self, tag: bytes) -> None:
        assert len(tag) == 8
        self._parts.append(tag)

    def u8(self, v: int) -> None:
        self._parts.append(struct.pack("<B", v))

    def u64(self, v: int) -> None:
        self._parts.append(struct.pack("<Q", v))

    def f64(self, v: float) -> None:
        self._parts.append(struct.pack("<d", v))

    def words(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype="<u8")
        self.u64(len(arr))
        self._parts.append(arr.tobytes())

    def blob(self, b: bytes) -> None:
        self.u64(len(b))
        self._parts.append(b)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Reads a blob through a byte ``memoryview``: :meth:`blob` returns a
    view of its section, not a copy, and only :meth:`words` copies, so
    every array it returns owns its memory and none aliases ``data``."""

    def __init__(self, data) -> None:
        self._data = memoryview(data).cast("B")
        self._pos = 0

    def _take(self, n: int) -> memoryview:
        end = self._pos + n
        if end > len(self._data):
            raise DeserializationError("truncated blob")
        out = self._data[self._pos : end]
        self._pos = end
        return out

    def magic(self, tag: bytes) -> None:
        got = bytes(self._take(8))
        if got != tag:
            raise DeserializationError(
                f"bad magic: expected {tag!r}, found {got!r}"
            )

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def words(self) -> np.ndarray:
        n = self.u64()
        raw = self._take(8 * n)
        return np.frombuffer(raw, dtype="<u8").copy()

    def blob(self) -> memoryview:
        n = self.u64()
        return self._take(n)

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise DeserializationError("trailing bytes after blob")


class Codec:
    """``to_bytes``/``from_bytes`` for a structure with ``write(w)`` and a
    ``read(r)`` classmethod.  ``from_bytes`` rejects trailing bytes and
    re-raises a ``ValueError`` from ``read`` as :class:`DeserializationError`."""

    def to_bytes(self) -> bytes:
        w = Writer()
        self.write(w)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes):
        r = Reader(data)
        try:
            out = cls.read(r)
        except ValueError as exc:
            raise DeserializationError(f"{cls.__name__}: {exc}") from exc
        r.expect_end()
        return out
