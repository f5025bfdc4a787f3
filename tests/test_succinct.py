import dataclasses
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sichash import _native
from sichash._wire import Reader
from sichash.cli import generate_keys
from sichash.errors import DeserializationError
from sichash.phf import PhfConfig, SicHashPhf, build
from sichash.succinct import (
    BitVector,
    EliasFanoSeq,
    GolombRiceSeq,
    PackedIntArray,
    rice_parameter,
)


def _reference_pack(values, width):
    """Words of a packed array by ``np.bitwise_or.at``: the packer the
    single-helper packer replaced, kept to compare against."""
    values = np.asarray(values, dtype=np.uint64)
    n = len(values)
    if width == 0:
        return np.empty(0, dtype=np.uint64)
    nwords = (n * width + 63) // 64 + 1
    words = np.zeros(nwords, dtype=np.uint64)
    bitpos = np.arange(n, dtype=np.uint64) * np.uint64(width)
    w0 = (bitpos >> np.uint64(6)).astype(np.int64)
    off = bitpos & np.uint64(63)
    np.bitwise_or.at(words, w0, values << off)
    spill = off > np.uint64(64 - width) if width < 64 else off > np.uint64(0)
    if spill.any():
        np.bitwise_or.at(words, w0[spill] + 1, values[spill] >> (np.uint64(64) - off[spill]))
    return words


def _reference_positions(positions, length):
    """Words of a bit vector with 1-bits at ``positions``, by ``np.bitwise_or.at``."""
    positions = np.asarray(positions, dtype=np.int64)
    words = np.zeros((length + 63) // 64, dtype=np.uint64)
    np.bitwise_or.at(words, positions >> 6, np.uint64(1) << (positions & 63).astype(np.uint64))
    return words


@pytest.mark.parametrize("width", range(65))
def test_pack_matches_reference(width):
    rng = np.random.default_rng(width)
    for n in [0, 1, 2, 63, 64, 65, 300, *rng.integers(0, 301, size=20)]:
        values = rng.integers(0, 2**width - 1, size=n, dtype=np.uint64, endpoint=True)
        got = PackedIntArray.pack(values, width)
        assert np.array_equal(got._words, _reference_pack(values, width))


def test_from_positions_matches_reference():
    rng = np.random.default_rng(11)
    for _ in range(300):
        length = int(rng.integers(0, 2000))
        count = int(rng.integers(0, length + 1))
        positions = np.sort(rng.choice(length, size=count, replace=False))
        got = BitVector.from_positions(positions, length)
        assert np.array_equal(got.words, _reference_positions(positions, length))


class TestBitVector:
    def test_hand_case(self):
        bv = BitVector.from_bits(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        assert bv.popcount == 3
        assert bv.all_positions().tolist() == [0, 2, 3]

    def test_all_positions_against_linear_scan(self):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            n = int(rng.integers(1, 400))
            density = rng.uniform(0.02, 0.98)
            bits = (rng.random(n) < density).astype(np.uint8)
            bv = BitVector.from_bits(bits)
            ones = np.flatnonzero(bits)
            assert bv.popcount == len(ones)
            assert np.array_equal(bv.all_positions(), ones)

    def test_all_positions_large_dense(self):
        rng = np.random.default_rng(7)
        bits = (rng.random(200_000) < 0.5).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        assert np.array_equal(bv.all_positions(), np.flatnonzero(bits))

    def test_aux_overhead_budget(self):
        rng = np.random.default_rng(3)
        bits = (rng.random(100_000) < 0.9).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        # no select index: the blob is the words behind a fixed header of
        # magic, bit length and word count
        assert 8 * len(bv.to_bytes()) == 64 * len(bv.words) + 3 * 64

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(5)
        bits = (rng.random(777) < 0.3).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        bv2 = BitVector.from_bytes(bv.to_bytes())
        assert len(bv2) == len(bv)
        assert np.array_equal(bv2.words, bv.words)

    def test_bad_magic(self):
        with pytest.raises(DeserializationError, match="bad magic"):
            BitVector.from_bytes(b"XXXXXXXX" + b"\0" * 16)

    def test_truncated(self):
        blob = BitVector.from_bits(np.ones(100, dtype=np.uint8)).to_bytes()
        with pytest.raises(DeserializationError, match="truncated"):
            BitVector.from_bytes(blob[:-3])

    def test_length_disagreeing_with_word_count(self):
        # the upper bit vector's length field follows its magic
        blob = bytearray(EliasFanoSeq.encode([0, 5, 5, 9, 100, 4096]).to_bytes())
        at = blob.index(b"SHBV0001") + 8
        struct.pack_into("<Q", blob, at, struct.unpack_from("<Q", blob, at)[0] + 64)
        with pytest.raises(DeserializationError, match="word count"):
            EliasFanoSeq.from_bytes(bytes(blob))


class TestPackedIntArray:
    @given(
        st.lists(st.integers(0, 2**17 - 1), max_size=200),
        st.integers(17, 64),
    )
    def test_roundtrip(self, values, width):
        arr = PackedIntArray.pack(np.array(values, dtype=np.uint64), width)
        assert np.array_equal(arr.to_array(), np.array(values, dtype=np.uint64))

    def test_width_zero(self):
        arr = PackedIntArray.pack(np.zeros(5, dtype=np.uint64), 0)
        assert np.array_equal(arr.to_array(), np.zeros(5, dtype=np.uint64))

    def test_width_64(self):
        vals = np.array([2**64 - 1, 0, 123456789123456789], dtype=np.uint64)
        arr = PackedIntArray.pack(vals, 64)
        assert np.array_equal(arr.to_array(), vals)

    def test_value_too_wide(self):
        with pytest.raises(ValueError):
            PackedIntArray.pack(np.array([8], dtype=np.uint64), 3)

    def test_huge_width_zero_array_in_codecs(self):
        # n >= 2**63 does not fit a Python length
        huge = PackedIntArray(np.empty(0, dtype=np.uint64), 2**63, 0)
        ef = dataclasses.replace(EliasFanoSeq.encode([0, 1, 2]), lower=huge)
        gr = dataclasses.replace(GolombRiceSeq.encode([1, 2], 0), remainders=huge)
        with pytest.raises(DeserializationError, match="Elias-Fano"):
            EliasFanoSeq.from_bytes(ef.to_bytes())
        with pytest.raises(DeserializationError, match="Golomb-Rice"):
            GolombRiceSeq.from_bytes(gr.to_bytes())

    def test_huge_width_zero_array_in_phf_blob(self):
        # the first packed array is the bucket seeds' Golomb-Rice remainders
        phf = build(generate_keys(2000, seed=3), PhfConfig(alpha=0.9, compressed_metadata=True))
        body = bytearray(phf.to_bytes()[:-4])
        at = body.index(b"SHPA0001") + 8
        assert body[at + 8] == 0  # width 0: every seed is below 2
        struct.pack_into("<Q", body, at, 2**63)
        body += zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(DeserializationError):
            SicHashPhf.from_bytes(bytes(body))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_word_count_checked_on_load(self, extra):
        nwords = (100 * 7 + 63) // 64 + 1
        bad = PackedIntArray(np.zeros(nwords + extra, dtype=np.uint64), 100, 7)
        with pytest.raises(DeserializationError, match="word count"):
            PackedIntArray.from_bytes(bad.to_bytes())

    @pytest.mark.parametrize("width", [0, 9, 64])
    def test_serialization_roundtrip(self, width):
        rng = np.random.default_rng(width)
        vals = rng.integers(0, 2**width - 1, size=100, dtype=np.uint64, endpoint=True)
        arr = PackedIntArray.from_bytes(PackedIntArray.pack(vals, width).to_bytes())
        assert (arr.n, arr.width) == (100, width)
        assert np.array_equal(arr.to_array(), vals)


class TestEliasFano:
    def test_empty(self):
        seq = EliasFanoSeq.encode([])
        assert len(seq) == 0
        with pytest.raises(IndexError):
            seq.access(0)

    def test_all_zero(self):
        seq = EliasFanoSeq.encode([0, 0, 0])
        assert [seq.access(i) for i in range(3)] == [0, 0, 0]

    def test_hand_case(self):
        seq = EliasFanoSeq.encode([3, 7, 20])
        assert seq.access(1) == 7

    def test_range(self):
        seq = EliasFanoSeq.encode(list(range(1000)))
        assert seq.access(500) == 500

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            EliasFanoSeq.encode([3, 2])
        with pytest.raises(ValueError, match="monotone"):
            EliasFanoSeq.encode([-1, 2])

    def test_out_of_bounds(self):
        seq = EliasFanoSeq.encode([1, 2, 3])
        with pytest.raises(IndexError, match="out of bounds"):
            seq.access(3)

    @given(
        st.lists(st.integers(0, 2**40), min_size=0, max_size=300).map(sorted)
    )
    def test_roundtrip(self, values):
        seq = EliasFanoSeq.encode(values)
        assert np.array_equal(seq.to_array(), np.array(values, dtype=np.uint64))
        for i in range(0, len(values), 7):
            assert seq.access(i) == values[i]

    def test_space_bound(self):
        rng = np.random.default_rng(11)
        values = np.sort(rng.integers(0, 10**6, size=10_000))
        seq = EliasFanoSeq.encode(values)
        n, u = len(values), int(values[-1])
        bound = 2 * n + n * int(np.ceil(np.log2(u / n)))
        # the payload is the blob less its fixed header; allow word padding
        assert 8 * len(seq.to_bytes()) - SEQ_HEADER_BITS <= bound + 192

    def test_serialization_roundtrip(self):
        values = [0, 5, 5, 9, 100, 4096]
        seq = EliasFanoSeq.from_bytes(EliasFanoSeq.encode(values).to_bytes())
        assert [seq.access(i) for i in range(len(values))] == values

    @pytest.mark.parametrize("field, delta", [("n", 1), ("n", -1)])
    def test_inconsistent_header_rejected(self, field, delta):
        # n is the packed array's: one low part more or fewer than 1-bits
        seq = EliasFanoSeq.encode([0, 5, 5, 9, 100, 4096])
        lows = seq.lower.to_array()
        lows = np.append(lows, 0) if delta > 0 else lows[:delta]
        bad = dataclasses.replace(seq, lower=PackedIntArray.pack(lows, seq.lower.width))
        with pytest.raises(DeserializationError, match="Elias-Fano"):
            EliasFanoSeq.from_bytes(bad.to_bytes())

    @given(
        st.lists(st.integers(0, 2**63 - 1), min_size=0, max_size=200).map(sorted)
    )
    def test_every_encoding_loads(self, values):
        seq = EliasFanoSeq.from_bytes(EliasFanoSeq.encode(values).to_bytes())
        assert seq.to_array().tolist() == values


def _decode_each_path(seq):
    """``seq.to_array()`` on the kernel, then on the numpy path; each the
    array, or the type of the exception it raised."""
    out = []
    for lib in (_native.lib, None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "lib", lib)
            try:
                out.append(seq.to_array())
            except Exception as exc:  # noqa: BLE001 - compared between paths
                out.append(type(exc))
    return out


def _random_parts(rng, nwords, density, width):
    """An Elias-Fano sequence of ``nwords`` random upper words, with 1-bits
    past the bit length in the last word too, and one random
    ``width``-bit low part per 1-bit."""
    bits = (rng.random(64 * nwords) < density).astype(np.uint8)
    length = int(rng.integers(64 * nwords - 63, 64 * nwords + 1)) if nwords else 0
    upper = BitVector(BitVector.from_bits(bits).words, length)
    lows = rng.integers(0, 2**width, size=upper.popcount, dtype=np.uint64)
    return EliasFanoSeq(upper, PackedIntArray.pack(lows, width))


@pytest.mark.skipif(_native.lib is None, reason="native library not loaded")
class TestEliasFanoKernel:
    """``ef_decode`` against the numpy decode, which runs when
    ``_native.lib`` is None."""

    @pytest.mark.parametrize("width", range(65))
    def test_random_sequences(self, width):
        rng = np.random.default_rng(width)
        for nwords in (0, 1, 2, 3, 16):
            for density in (0.0, 0.1, 0.5, 1.0):
                seq = _random_parts(rng, nwords, density, width)
                kernel, numpy_path = _decode_each_path(seq)
                assert kernel.dtype == np.uint64
                assert np.array_equal(kernel, numpy_path)

    @pytest.mark.parametrize("values", [[], [0], [2**63 - 1], [5, 5, 2**40]])
    def test_encoded_sequences(self, values):
        kernel, numpy_path = _decode_each_path(EliasFanoSeq.encode(values))
        assert kernel.tolist() == numpy_path.tolist() == values

    def test_ones_past_the_bit_length(self):
        # bits 3 and 60 lie past the 3-bit length, in the one word
        upper = BitVector(np.array([0b101 | 1 << 60], dtype=np.uint64), 3)
        seq = EliasFanoSeq(upper, PackedIntArray.pack(np.array([1, 2, 3], np.uint64), 2))
        kernel, numpy_path = _decode_each_path(seq)
        assert kernel.tolist() == numpy_path.tolist() == [1, (1 << 2) | 2, (58 << 2) | 3]

    def test_width_64_blob_with_high_parts(self):
        # encode never picks width 64 with high parts, but a blob may hold them
        upper = BitVector.from_positions(np.array([0, 5, 9, 70]), 71)
        lows = np.array([1, 2**64 - 1, 0, 2**63], dtype=np.uint64)
        blob = EliasFanoSeq(upper, PackedIntArray.pack(lows, 64)).to_bytes()
        # the high parts shift out, as numpy's << 64 does
        kernel, numpy_path = _decode_each_path(EliasFanoSeq.from_bytes(blob))
        assert kernel.tolist() == numpy_path.tolist() == lows.tolist()

    def test_popcount_differing_from_n(self):
        seq = EliasFanoSeq.encode([0, 5, 9])
        for lows in ([1, 2], [1, 2, 3, 0]):
            bad = EliasFanoSeq(seq.upper, PackedIntArray.pack(np.array(lows, np.uint64), 2))
            kernel, numpy_path = _decode_each_path(bad)
            assert kernel is numpy_path is ValueError

    def test_argument_checks(self):
        seq = EliasFanoSeq.encode(np.arange(0, 3000, 7))
        upper, lower, width = seq.upper.words, seq.lower.words, seq.lower.width
        n = len(seq)
        ef_decode = _native.lib.ef_decode
        with pytest.raises(ValueError, match="lower"):
            ef_decode(upper, lower[: n * width // 64], width, np.empty(n, np.uint64))
        with pytest.raises(ValueError, match="width"):
            ef_decode(upper, lower, 65, np.empty(n, np.uint64))
        with pytest.raises(ValueError, match="width"):
            ef_decode(upper, lower, -1, np.empty(n, np.uint64))
        with pytest.raises(TypeError):
            ef_decode(upper, lower, width, np.empty(n, np.uint32))
        # a short out: the kernel stops at its end and raises
        big = np.full(n, 12345, dtype=np.uint64)
        with pytest.raises(ValueError, match="1-bits"):
            ef_decode(upper, lower, width, big[: n - 1])
        assert big[n - 1] == 12345
        # the shortest lower it accepts, n * width / 64 + 1 words
        out = np.empty(n, np.uint64)
        ef_decode(upper, lower[: n * width // 64 + 1], width, out)
        assert np.array_equal(out, seq.to_array())


class TestGolombRice:
    def test_zeros_k0(self):
        seq = GolombRiceSeq.encode([0, 0, 0], 0)
        assert seq.unary.popcount == 3  # three unary terminators
        assert seq.to_array().tolist() == [0, 0, 0]

    def test_hand_case_five(self):
        # 5 = quotient 1, remainder 1 at k_log=2
        seq = GolombRiceSeq.encode([5], 2)
        assert seq.unary.popcount == 1
        assert seq.unary.all_positions().tolist() == [1]  # one zero bit, then the terminator
        assert seq.remainders.to_array().tolist() == [1]
        assert seq.to_array().tolist() == [5]

    def test_empty(self):
        seq = GolombRiceSeq.encode([], 3)
        assert len(seq) == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            GolombRiceSeq.encode([1], -1)
        with pytest.raises(ValueError):
            GolombRiceSeq.encode([1], 64)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GolombRiceSeq.encode([-2], 1)

    @given(
        st.lists(st.integers(0, 5000), max_size=300),
        st.integers(0, 12),
    )
    def test_roundtrip(self, values, k_log):
        seq = GolombRiceSeq.encode(values, k_log)
        assert np.array_equal(seq.to_array(), np.array(values, dtype=np.uint64))

    def test_geometric_bulk_roundtrip(self):
        rng = np.random.default_rng(13)
        values = (rng.geometric(0.5, size=10_000) - 1).astype(np.uint64)
        k = rice_parameter(values)
        seq = GolombRiceSeq.encode(values, k)
        assert np.array_equal(seq.to_array(), values)

    def test_serialization_roundtrip(self):
        values = [0, 1, 7, 0, 300]
        seq = GolombRiceSeq.from_bytes(GolombRiceSeq.encode(values, 2).to_bytes())
        assert seq.to_array().tolist() == values

    @pytest.mark.parametrize("field, delta", [("n", 1), ("n", -1)])
    def test_inconsistent_header_rejected(self, field, delta):
        # n is the remainder array's: one remainder more or fewer than codes
        seq = GolombRiceSeq.encode([0, 1, 7, 0, 300], 2)
        rems = seq.remainders.to_array()
        rems = np.append(rems, 0) if delta > 0 else rems[:delta]
        bad = dataclasses.replace(seq, remainders=PackedIntArray.pack(rems, 2))
        with pytest.raises(DeserializationError, match="Golomb-Rice"):
            GolombRiceSeq.from_bytes(bad.to_bytes())

    def test_k_log_above_63_rejected(self):
        # quotient 1 and remainder 5 at k_log 64, every part agreeing: it
        # would decode 2**64 + 5, which to_array() wraps to [5]
        unary = BitVector.from_positions(np.array([1]), 2)
        rem = PackedIntArray.pack(np.array([5], dtype=np.uint64), 64)
        with pytest.raises(DeserializationError, match="k_log"):
            GolombRiceSeq.from_bytes(GolombRiceSeq(unary, rem).to_bytes())


@st.composite
def _bits_and_packed(draw, max_width):
    """Any bit vector (bits past its length too) of up to 5 words, and a
    packed array of one value per 1-bit at any width up to ``max_width``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    nwords = draw(st.integers(0, 5))
    raw = rng.random(64 * nwords) < draw(st.floats(0, 1))
    length = draw(st.integers(64 * nwords - 63, 64 * nwords)) if nwords else 0
    bits = BitVector(BitVector.from_bits(raw.astype(np.uint8)).words, length)
    width = draw(st.integers(0, max_width))
    values = rng.integers(0, 2**width, size=bits.popcount, dtype=np.uint64)
    return bits, PackedIntArray.pack(values, width)


@pytest.mark.parametrize("cls, max_width", [(EliasFanoSeq, 64), (GolombRiceSeq, 63)])
@given(data=st.data())
def test_any_parts_with_matching_popcount_load(cls, max_width, data):
    # the two parts are the whole sequence: whatever they hold, it loads,
    # decodes and writes back the bytes it was read from
    bits, packed = data.draw(_bits_and_packed(max_width))
    blob = cls(bits, packed).to_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = cls.from_bytes(blob)
        assert len(seq) == len(seq.to_array()) == packed.n
    assert seq.to_bytes() == blob


def test_rice_parameter():
    assert rice_parameter([]) == 0
    assert rice_parameter([0, 0, 0]) == 0
    assert rice_parameter([7, 7, 7]) == 3


def test_reader_words_length_bounded_before_allocation():
    with pytest.raises(DeserializationError, match="truncated"):
        Reader(struct.pack("<Q", 2**61) + b"\0" * 64).words()


@pytest.mark.parametrize(
    "cls, seq",
    [
        (EliasFanoSeq, EliasFanoSeq.encode([0, 5, 9])),
        (GolombRiceSeq, GolombRiceSeq.encode([1, 2, 3], 1)),
    ],
)
def test_codec_alone_rejects_packed_width_65(cls, seq):
    # the packed array is the last part; its word count fits width 65, so
    # only the array's constructor refuses the width
    blob = seq.to_bytes()
    at = blob.index(b"SHPA0001") + 8
    (n,) = struct.unpack_from("<Q", blob, at)
    nwords = (n * 65 + 63) // 64 + 1
    bad = blob[:at] + struct.pack("<QBQ", n, 65, nwords) + bytes(8 * nwords)
    with pytest.raises(DeserializationError, match="width"):
        cls.from_bytes(bad)


#: bits of an Elias-Fano or Golomb-Rice blob that are not words: its magic
#: and the headers of its bit vector (192) and packed array (200)
SEQ_HEADER_BITS = 64 + 192 + 200


def _words_held(codec):
    if isinstance(codec, BitVector):
        return len(codec.words)
    if isinstance(codec, PackedIntArray):
        return len(codec._words)
    if isinstance(codec, EliasFanoSeq):
        return _words_held(codec.upper) + _words_held(codec.lower)
    return _words_held(codec.unary) + _words_held(codec.remainders)


@pytest.mark.parametrize(
    "codec, header_bits",
    [
        (BitVector.from_bits(np.array([1, 0, 0] * 100, dtype=np.uint8)), 192),
        (BitVector.from_bits(np.empty(0, dtype=np.uint8)), 192),
        (PackedIntArray.pack(np.arange(100, dtype=np.uint64), 7), 200),
        (PackedIntArray.pack(np.zeros(10, dtype=np.uint64), 0), 200),
        (EliasFanoSeq.encode([0, 5, 5, 9, 100, 4096]), SEQ_HEADER_BITS),
        (EliasFanoSeq.encode([]), SEQ_HEADER_BITS),
        (GolombRiceSeq.encode([0, 1, 7, 0, 300], 2), SEQ_HEADER_BITS),
        (GolombRiceSeq.encode([], 3), SEQ_HEADER_BITS),
    ],
    ids=["bv", "bv-empty", "pa", "pa-width0", "ef", "ef-empty", "gr", "gr-empty"],
)
def test_bits_is_payload_words(codec, header_bits):
    # the blob is the words a codec holds behind a fixed header
    assert 8 * len(codec.to_bytes()) == 64 * _words_held(codec) + header_bits
