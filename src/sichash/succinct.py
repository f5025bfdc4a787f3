"""Succinct sequence structures: bit vector with select1, Elias-Fano
coded monotone sequences, and Golomb-Rice coded integer sequences.

All structures are immutable after construction, report their exact bit
counts, and serialize to versioned little-endian blobs:

``BitVector``      ``SHBV0001 | u64 length_bits | u64 nwords | words``
``PackedIntArray`` ``SHPA0001 | u64 n | u8 width | u64 nwords | words``
``EliasFanoSeq``   ``SHEF0001 | u64 n | u64 universe | u8 lower_width |
                   upper BitVector | lower PackedIntArray``
``GolombRiceSeq``  ``SHGR0001 | u64 n | u8 k_log | unary BitVector |
                   remainder PackedIntArray``

A codec loaded alone with ``from_bytes`` raises ``DeserializationError``
for any malformed blob.  Bits are packed LSB-first within little-endian
64-bit words, i.e. bit ``i`` lives at ``words[i >> 6] >> (i & 63) & 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._wire import Codec, Reader, Writer
from .errors import DeserializationError

_SELECT_SAMPLE = 4096  # one sampled position per this many 1-bits

_BV_MAGIC = b"SHBV0001"
_PA_MAGIC = b"SHPA0001"
_EF_MAGIC = b"SHEF0001"
_GR_MAGIC = b"SHGR0001"


class BitVector(Codec):
    """Static bit vector with near-constant-time select1.

    The select index stores the position of every 4096th 1-bit; a query
    starts at the nearest sample and scans whole words by popcount.  The
    index is 64/4096 of the payload at most (well under a 25% budget)
    and is rebuilt on load rather than serialized.
    """

    def __init__(self, words: np.ndarray, length: int):
        words = np.asarray(words, dtype=np.uint64)
        if len(words) != (length + 63) // 64:
            raise ValueError("word count does not match bit length")
        self._words = words
        self._length = length
        counts = np.bitwise_count(words).astype(np.int64)
        self._popcount = int(counts.sum())
        # positions of ranks 4096, 8192, ... (rank 0..4095 scans from word 0)
        self._samples = self._build_samples(counts)

    def _build_samples(self, counts: np.ndarray) -> np.ndarray:
        n_samples = (self._popcount - 1) // _SELECT_SAMPLE if self._popcount else 0
        if n_samples <= 0:
            return np.empty(0, dtype=np.int64)
        cum = np.cumsum(counts)
        ranks = np.arange(1, n_samples + 1, dtype=np.int64) * _SELECT_SAMPLE
        words_idx = np.searchsorted(cum, ranks, side="right")
        samples = np.empty(n_samples, dtype=np.int64)
        for j, w in enumerate(words_idx):
            before = int(cum[w - 1]) if w > 0 else 0
            samples[j] = (w << 6) + _select_in_word(
                int(self._words[w]), int(ranks[j]) - before
            )
        return samples

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BitVector":
        """Build from an array of 0/1 values."""
        bits = np.asarray(bits, dtype=np.uint8)
        packed = np.packbits(bits, bitorder="little")
        pad = (-len(packed)) % 8
        if pad:
            packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
        words = packed.view("<u8").astype(np.uint64)
        return cls(words, len(bits))

    @classmethod
    def from_positions(cls, positions: np.ndarray, length: int) -> "BitVector":
        """Build with 1-bits at the given strictly increasing positions."""
        positions = np.asarray(positions, dtype=np.int64)
        words = np.zeros((length + 63) // 64, dtype=np.uint64)
        np.bitwise_or.at(
            words, positions >> 6, np.uint64(1) << (positions & 63).astype(np.uint64)
        )
        return cls(words, length)

    def __len__(self) -> int:
        return self._length

    @property
    def popcount(self) -> int:
        return self._popcount

    @property
    def words(self) -> np.ndarray:
        return self._words

    def select1(self, i: int) -> int:
        """Position of the i-th 1-bit (0-indexed rank)."""
        if i < 0 or i >= self._popcount:
            raise ValueError("rank exceeds popcount")
        j = i // _SELECT_SAMPLE
        p = int(self._samples[j - 1]) if j else 0  # position of rank j*4096
        k = i - j * _SELECT_SAMPLE  # rank among the 1-bits from p on
        w = p >> 6
        word = int(self._words[w]) >> (p & 63) << (p & 63)
        while (c := word.bit_count()) <= k:
            k -= c
            w += 1
            word = int(self._words[w])
        return (w << 6) + _select_in_word(word, k)

    def all_positions(self) -> np.ndarray:
        """Positions of all 1-bits, ascending (vectorized bulk decode)."""
        nbits = len(self._words) * 64
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little", count=nbits)
        return np.flatnonzero(bits).astype(np.int64)

    def bits(self) -> int:
        """Exact payload size in bits (excluding the rebuilt select index)."""
        return len(self._words) * 64

    def aux_bits(self) -> int:
        return len(self._samples) * 64

    def write(self, w: Writer) -> None:
        w.magic(_BV_MAGIC)
        w.u64(self._length)
        w.words(self._words)

    @classmethod
    def read(cls, r: Reader) -> "BitVector":
        r.magic(_BV_MAGIC)
        length = r.u64()
        return cls(r.words(), length)


def _select_in_word(word: int, k: int) -> int:
    """Offset of the k-th set bit inside a 64-bit word (k < popcount)."""
    for _ in range(k):
        word &= word - 1  # clear the lowest set bit
    return (word & -word).bit_length() - 1


class PackedIntArray:
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
        nwords = (n * width + 63) // 64 + 1  # pad word simplifies extraction
        words = np.zeros(nwords, dtype=np.uint64)
        bitpos = np.arange(n, dtype=np.uint64) * np.uint64(width)
        w0 = (bitpos >> np.uint64(6)).astype(np.int64)
        off = bitpos & np.uint64(63)
        np.bitwise_or.at(words, w0, values << off)
        spill = off > np.uint64(64 - width) if width < 64 else off > np.uint64(0)
        if spill.any():
            np.bitwise_or.at(
                words,
                w0[spill] + 1,
                values[spill] >> (np.uint64(64) - off[spill]),
            )
        return cls(words, n, width)

    @property
    def width(self) -> int:
        return self._width

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError("index out of bounds")
        if self._width == 0:
            return 0
        bitpos = i * self._width
        w0, off = bitpos >> 6, bitpos & 63
        window = int(self._words[w0]) >> off
        if off + self._width > 64:
            window |= int(self._words[w0 + 1]) << (64 - off)
        return window & ((1 << self._width) - 1)

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

    def bits(self) -> int:
        return len(self._words) * 64

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

    The value ``v_i`` splits into ``lower_width`` low bits, stored
    verbatim, and a high part stored as a 1-bit at position
    ``i + (v_i >> lower_width)`` of the upper bit vector.  Access is one
    select1 plus one packed-array fetch.  Total payload stays within
    ``2n + n*ceil(log2(universe/n))`` bits plus the select overhead.
    """

    upper: BitVector
    lower: PackedIntArray
    n: int
    universe: int
    lower_width: int

    @classmethod
    def encode(cls, values) -> "EliasFanoSeq":
        values = np.asarray(values, dtype=np.int64)
        n = len(values)
        if n and int(values.min()) < 0:
            raise ValueError("sequence not monotone (negative values)")
        if n and np.any(np.diff(values) < 0):
            raise ValueError("sequence not monotone")
        universe = int(values[-1]) if n else 0
        width = _ef_lower_width(universe, n)
        highs = (values >> width) if n else values
        positions = np.arange(n, dtype=np.int64) + highs
        length = n + (universe >> width) + 1
        upper = BitVector.from_positions(positions, length)
        lower = PackedIntArray.pack(
            values.astype(np.uint64) & np.uint64((1 << width) - 1 if width else 0),
            width,
        )
        return cls(upper, lower, n, universe, width)

    def __len__(self) -> int:
        return self.n

    def access(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError("index out of bounds")
        high = self.upper.select1(i) - i
        return (high << self.lower_width) | self.lower[i]

    def to_array(self) -> np.ndarray:
        highs = self.upper.all_positions() - np.arange(self.n, dtype=np.int64)
        return (highs.astype(np.uint64) << np.uint64(self.lower_width)) | (
            self.lower.to_array()
        )

    def bits(self) -> int:
        return self.upper.bits() + self.lower.bits()

    def aux_bits(self) -> int:
        return self.upper.aux_bits()

    def write(self, w: Writer) -> None:
        w.magic(_EF_MAGIC)
        w.u64(self.n)
        w.u64(self.universe)
        w.u8(self.lower_width)
        self.upper.write(w)
        self.lower.write(w)

    @classmethod
    def read(cls, r: Reader) -> "EliasFanoSeq":
        r.magic(_EF_MAGIC)
        n = r.u64()
        universe = r.u64()
        width = r.u8()
        upper = BitVector.read(r)
        lower = PackedIntArray.read(r)
        if upper.popcount != n or lower.n != n or lower.width != width:
            raise DeserializationError("Elias-Fano: parts disagree with n or lower_width")
        if width != _ef_lower_width(universe, n):
            raise DeserializationError("Elias-Fano: lower_width does not fit universe and n")
        last = 0
        if n:
            # the last value's high part is the top 1-bit's position minus n-1
            words = upper.words
            w = int(np.flatnonzero(words)[-1])
            top = (w << 6) + int(words[w]).bit_length() - 1
            last = ((top - (n - 1)) << width) | lower[n - 1]
        if last != universe:
            raise DeserializationError("Elias-Fano: universe differs from the last value")
        return cls(upper, lower, n, universe, width)


def _ef_lower_width(universe: int, n: int) -> int:
    """Low-bit width :meth:`EliasFanoSeq.encode` picks: the smallest with
    ``universe >> width <= n`` (0 for an empty sequence)."""
    width = 0
    while n and (universe >> width) > n:
        width += 1
    return width


def ef_encode(values) -> EliasFanoSeq:
    return EliasFanoSeq.encode(values)


@dataclass
class GolombRiceSeq(Codec):
    """Non-negative integer sequence, Rice coded with divisor 2**k_log.

    Element ``x`` is the quotient ``x >> k_log`` in unary (terminated by
    a 1-bit) plus ``k_log`` binary remainder bits.  Near-optimal for
    geometrically distributed data such as retry counters.
    """

    k_log: int
    unary: BitVector
    remainders: PackedIntArray
    n: int

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
        return cls(k_log, unary, PackedIntArray.pack(rem, k_log), n)

    def __len__(self) -> int:
        return self.n

    def access(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError("index out of bounds")
        end = self.unary.select1(i)
        prev_end = self.unary.select1(i - 1) if i else -1
        q = end - prev_end - 1
        return (q << self.k_log) | self.remainders[i]

    def to_array(self) -> np.ndarray:
        ends = self.unary.all_positions()
        q = np.diff(np.concatenate([[-1], ends])) - 1
        return (q.astype(np.uint64) << np.uint64(self.k_log)) | (
            self.remainders.to_array()
        )

    def bits(self) -> int:
        return self.unary.bits() + self.remainders.bits()

    def write(self, w: Writer) -> None:
        w.magic(_GR_MAGIC)
        w.u64(self.n)
        w.u8(self.k_log)
        self.unary.write(w)
        self.remainders.write(w)

    @classmethod
    def read(cls, r: Reader) -> "GolombRiceSeq":
        r.magic(_GR_MAGIC)
        n = r.u64()
        k_log = r.u8()
        unary = BitVector.read(r)
        rem = PackedIntArray.read(r)
        if unary.popcount != n or rem.n != n or rem.width != k_log:
            raise DeserializationError("Golomb-Rice: parts disagree with n or k_log")
        return cls(k_log, unary, rem, n)


def gr_encode(values, k_log: int) -> GolombRiceSeq:
    return GolombRiceSeq.encode(values, k_log)


def rice_parameter(values) -> int:
    """k_log choice for geometric-looking data: floor(log2(mean + 1))."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return 0
    mean = float(values.mean())
    return max(0, int(np.floor(np.log2(mean + 1.0))))
