"""Succinct sequence structures: bit vector, Elias-Fano coded monotone
sequences, and Golomb-Rice coded integer sequences.

All structures are immutable after construction.  Each is encoded once,
checked when it is loaded and decoded whole with ``to_array``; none
keeps a random-access index.  ``EliasFanoSeq.to_array`` is one call of
the native kernel ``ef_decode``, which walks the upper bit vector a word
at a time; when :data:`sichash._native.lib` is None it runs its numpy
decode, the fallback and the reference the tests compare the kernel
against.  The serialized size is
``8 * len(to_bytes())``: 64 bits for each word a structure holds plus a
fixed header, in these versioned little-endian blobs:

``BitVector``      ``SHBV0001 | u64 length_bits | u64 nwords | words``
``PackedIntArray`` ``SHPA0001 | u64 n | u8 width | u64 nwords | words``
``EliasFanoSeq``   ``SHEF0002 | upper BitVector | lower PackedIntArray``
``GolombRiceSeq``  ``SHGR0002 | unary BitVector | remainder PackedIntArray``

Each fact is stored once: a sequence's length is its packed array's
``n`` and its low width (Elias-Fano) or ``k_log`` (Golomb-Rice) that
array's width; loading checks that the bit vector holds one 1-bit per
element.  A codec loaded alone with ``from_bytes`` raises
``DeserializationError`` for any malformed blob, and any blob it loads
decodes without error.  Bits are packed LSB-first within little-endian
64-bit words, i.e. bit ``i`` lives at ``words[i >> 6] >> (i & 63) & 1``.
:func:`_pack_bits` is the one packer: for bit vectors, packed arrays
and the retrieval stores' bit planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from ._wire import Codec, Reader, Writer
from .errors import DeserializationError

_BV_MAGIC = b"SHBV0001"
_PA_MAGIC = b"SHPA0001"
_EF_MAGIC = b"SHEF0002"
_GR_MAGIC = b"SHGR0002"


class BitVector(Codec):
    """Static bit vector: its words, bit length and popcount, with no
    index to build on construction or load."""

    def __init__(self, words: np.ndarray, length: int):
        words = np.asarray(words, dtype=np.uint64)
        if len(words) != (length + 63) // 64:
            raise ValueError("word count does not match bit length")
        self._words = words
        self._length = length
        self._popcount = int(np.bitwise_count(words).sum(dtype=np.int64))

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BitVector":
        """Build from an array of 0/1 values."""
        return cls(_pack_bits(bits, (len(bits) + 63) // 64), len(bits))

    @classmethod
    def from_positions(cls, positions: np.ndarray, length: int) -> "BitVector":
        """Build with 1-bits at the given strictly increasing positions."""
        bits = np.zeros(length, dtype=np.uint8)
        bits[positions] = 1
        return cls.from_bits(bits)

    def __len__(self) -> int:
        return self._length

    @property
    def popcount(self) -> int:
        return self._popcount

    @property
    def words(self) -> np.ndarray:
        return self._words

    def all_positions(self) -> np.ndarray:
        """Positions of all 1-bits, ascending (vectorized bulk decode)."""
        nbits = len(self._words) * 64
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little", count=nbits)
        return np.flatnonzero(bits.view(bool)).astype(np.int64, copy=False)

    def write(self, w: Writer) -> None:
        w.magic(_BV_MAGIC)
        w.u64(self._length)
        w.words(self._words)

    @classmethod
    def read(cls, r: Reader) -> "BitVector":
        r.magic(_BV_MAGIC)
        length = r.u64()
        return cls(r.words(), length)


def _pack_bits(bits: np.ndarray, nwords: int) -> np.ndarray:
    """The one bit packer: bit ``i`` of a 0/1 array goes to
    ``words[i >> 6] >> (i & 63) & 1``, zero-padded to ``nwords`` uint64
    words (``nwords >= ceil(len(bits) / 64)``)."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    out = np.zeros(8 * nwords, dtype=np.uint8)
    out[: len(packed)] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


class PackedIntArray(Codec):
    """Fixed-width array of unsigned integers, bit-packed into words."""

    def __init__(self, words: np.ndarray, n: int, width: int):
        if not 0 <= width <= 64:
            raise ValueError("width must be in [0, 64]")
        self._words = np.asarray(words, dtype=np.uint64)
        self.n = n
        self._width = width

    @classmethod
    def pack(cls, values: np.ndarray, width: int) -> "PackedIntArray":
        values = np.asarray(values, dtype=np.uint64)
        n = len(values)
        if width == 0:
            return cls(np.empty(0, dtype=np.uint64), n, 0)
        if n and width < 64 and int(values.max()) >> width:
            raise ValueError("value does not fit the requested width")
        # the low ``width`` bits of each value, LSB first, end to end
        as_bytes = values.astype("<u8").view(np.uint8).reshape(n, 8)
        bits = np.unpackbits(as_bytes, axis=1, count=width, bitorder="little")
        nwords = (n * width + 63) // 64 + 1  # pad word simplifies extraction
        return cls(_pack_bits(bits.ravel(), nwords), n, width)

    @property
    def width(self) -> int:
        return self._width

    @property
    def words(self) -> np.ndarray:
        return self._words

    def to_array(self) -> np.ndarray:
        if self._width == 0:
            return np.zeros(self.n, dtype=np.uint64)
        idx = np.arange(self.n, dtype=np.uint64) * np.uint64(self._width)
        w0 = (idx >> np.uint64(6)).astype(np.int64)
        off = idx & np.uint64(63)
        # the pad word makes w0 + 1 valid; shifting by 63 - off, then 1, drops it at off=0
        high = (self._words[w0 + 1] << (np.uint64(63) - off)) << np.uint64(1)
        out = (self._words[w0] >> off) | high
        if self._width < 64:
            out &= np.uint64((1 << self._width) - 1)
        return out

    def write(self, w: Writer) -> None:
        w.magic(_PA_MAGIC)
        w.u64(self.n)
        w.u8(self._width)
        w.words(self._words)

    @classmethod
    def read(cls, r: Reader) -> "PackedIntArray":
        r.magic(_PA_MAGIC)
        n = r.u64()
        width = r.u8()
        words = r.words()
        if len(words) != ((n * width + 63) // 64 + 1 if width else 0):
            raise DeserializationError("packed array: word count does not match n and width")
        return cls(words, n, width)


@dataclass
class EliasFanoSeq(Codec):
    """Monotone non-decreasing integer sequence, Elias-Fano coded.

    The value ``v_i`` splits into ``lower.width`` low bits, stored
    verbatim in ``lower``, and a high part stored as a 1-bit at position
    ``i + (v_i >> lower.width)`` of the upper bit vector, so the i-th
    1-bit's position minus i is the high part.  Total payload stays within
    ``2n + n*ceil(log2(universe/n))`` bits plus word padding, where
    ``universe`` is the last value.
    """

    upper: BitVector
    lower: PackedIntArray

    @classmethod
    def encode(cls, values) -> "EliasFanoSeq":
        values = np.asarray(values, dtype=np.int64)
        n = len(values)
        if n and int(values.min()) < 0:
            raise ValueError("sequence not monotone (negative values)")
        if n and np.any(np.diff(values) < 0):
            raise ValueError("sequence not monotone")
        universe = int(values[-1]) if n else 0
        width = 0  # the smallest with universe >> width <= n
        while n and (universe >> width) > n:
            width += 1
        positions = np.arange(n, dtype=np.int64) + (values >> width)
        upper = BitVector.from_positions(positions, n + (universe >> width) + 1)
        lows = values.astype(np.uint64) & np.uint64((1 << width) - 1)
        return cls(upper, PackedIntArray.pack(lows, width))

    def __len__(self) -> int:
        return self.lower.n

    def access(self, i: int) -> int:
        """Element i, from a whole decode: linear in the sequence's size."""
        if not 0 <= i < len(self):
            raise IndexError("index out of bounds")
        return int(self.to_array()[i])

    def to_array(self) -> np.ndarray:
        """The whole sequence as uint64, by ``ef_decode`` or by the numpy
        decode below when :data:`sichash._native.lib` is None."""
        lib = _native.lib
        if lib is not None:
            out = np.empty(len(self), dtype=np.uint64)
            words = (np.ascontiguousarray(c.words) for c in (self.upper, self.lower))
            lib.ef_decode(*words, self.lower.width, out)
            return out
        highs = self.upper.all_positions() - np.arange(len(self), dtype=np.int64)
        return (highs.astype(np.uint64) << np.uint64(self.lower.width)) | (
            self.lower.to_array()
        )

    def write(self, w: Writer) -> None:
        w.magic(_EF_MAGIC)
        self.upper.write(w)
        self.lower.write(w)

    @classmethod
    def read(cls, r: Reader) -> "EliasFanoSeq":
        r.magic(_EF_MAGIC)
        upper = BitVector.read(r)
        lower = PackedIntArray.read(r)
        if upper.popcount != lower.n:
            raise DeserializationError("Elias-Fano: upper bit count differs from n")
        return cls(upper, lower)


@dataclass
class GolombRiceSeq(Codec):
    """Non-negative integer sequence, Rice coded with divisor 2**k_log.

    Element ``x`` is the quotient ``x >> k_log`` in unary (terminated by
    a 1-bit) plus ``k_log`` binary remainder bits, stored in
    ``remainders`` at width ``k_log``.  Near-optimal for geometrically
    distributed data such as retry counters.
    """

    unary: BitVector
    remainders: PackedIntArray

    @classmethod
    def encode(cls, values, k_log: int) -> "GolombRiceSeq":
        if not 0 <= k_log <= 63:
            raise ValueError("k_log must be in [0, 63]")
        raw = np.asarray(values)
        n = len(raw)
        if n and raw.dtype.kind != "u" and int(raw.min()) < 0:
            raise ValueError("values must be non-negative")
        values = raw.astype(np.uint64)
        q = values >> np.uint64(k_log)
        # the i-th terminator sits after all previous codes' zeros
        ends = np.cumsum(q.astype(np.int64) + 1) - 1 if n else np.empty(0, np.int64)
        length = int(ends[-1]) + 1 if n else 0
        unary = BitVector.from_positions(ends, length)
        rem = values & np.uint64((1 << k_log) - 1)
        return cls(unary, PackedIntArray.pack(rem, k_log))

    def __len__(self) -> int:
        return self.remainders.n

    def to_array(self) -> np.ndarray:
        ends = self.unary.all_positions()
        q = np.diff(np.concatenate([[-1], ends])) - 1
        return (q.astype(np.uint64) << np.uint64(self.remainders.width)) | (
            self.remainders.to_array()
        )

    def write(self, w: Writer) -> None:
        w.magic(_GR_MAGIC)
        self.unary.write(w)
        self.remainders.write(w)

    @classmethod
    def read(cls, r: Reader) -> "GolombRiceSeq":
        r.magic(_GR_MAGIC)
        unary = BitVector.read(r)
        rem = PackedIntArray.read(r)
        if rem.width > 63:
            raise DeserializationError(f"Golomb-Rice: k_log={rem.width} above 63")
        if unary.popcount != rem.n:
            raise DeserializationError("Golomb-Rice: unary bit count differs from n")
        return cls(unary, rem)


def rice_parameter(values) -> int:
    """k_log choice for geometric-looking data: floor(log2(mean + 1))."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return 0
    mean = float(values.mean())
    return max(0, int(np.floor(np.log2(mean + 1.0))))
