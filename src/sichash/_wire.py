"""Little-endian binary readers/writers for the serialization formats.

All multi-byte integers are little-endian.  Structures start with an
8-byte magic that doubles as a format version; bumping the last digit
invalidates old blobs.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DeserializationError


class Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def magic(self, tag: bytes) -> None:
        assert len(tag) == 8
        self._parts.append(tag)

    def u8(self, v: int) -> None:
        self._parts.append(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self._parts.append(struct.pack("<I", v))

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
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise DeserializationError("truncated blob")
        out = self._data[self._pos : end]
        self._pos = end
        return out

    def magic(self, tag: bytes) -> None:
        got = self._take(8)
        if got != tag:
            raise DeserializationError(
                f"bad magic: expected {tag!r}, found {got!r}"
            )

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def words(self) -> np.ndarray:
        n = self.u64()
        raw = self._take(8 * n)
        return np.frombuffer(raw, dtype="<u8").copy()

    def blob(self) -> bytes:
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
