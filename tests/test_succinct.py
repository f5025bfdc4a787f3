import dataclasses
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sichash._wire import Reader, Writer
from sichash.cli import generate_keys
from sichash.errors import DeserializationError
from sichash.phf import PhfConfig, SicHashPhf, build
from sichash.succinct import (
    BitVector,
    EliasFanoSeq,
    GolombRiceSeq,
    PackedIntArray,
    ef_encode,
    gr_encode,
    rice_parameter,
)


class TestBitVector:
    def test_hand_case(self):
        bv = BitVector.from_bits(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        assert bv.popcount == 3
        assert bv.select1(0) == 0
        assert bv.select1(1) == 2
        assert bv.select1(2) == 3

    def test_rank_exceeds_popcount(self):
        bv = BitVector.from_bits(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        with pytest.raises(ValueError, match="rank exceeds popcount"):
            bv.select1(3)

    def test_select_against_linear_scan(self):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            n = int(rng.integers(1, 400))
            density = rng.uniform(0.02, 0.98)
            bits = (rng.random(n) < density).astype(np.uint8)
            bv = BitVector.from_bits(bits)
            ones = np.flatnonzero(bits)
            assert bv.popcount == len(ones)
            for i in range(len(ones)):
                assert bv.select1(i) == ones[i]

    def test_select_large_dense_crosses_samples(self):
        rng = np.random.default_rng(7)
        bits = (rng.random(200_000) < 0.5).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        ones = np.flatnonzero(bits)
        probe = np.concatenate(
            [np.arange(0, len(ones), 997), [0, 4095, 4096, 4097, len(ones) - 1]]
        )
        for i in probe:
            assert bv.select1(int(i)) == ones[int(i)]
        assert np.array_equal(bv.all_positions(), ones)

    def test_aux_overhead_budget(self):
        rng = np.random.default_rng(3)
        bits = (rng.random(100_000) < 0.9).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        assert bv.aux_bits() <= 0.25 * bv.bits()

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
        # the upper bit vector's length field sits after the EF header
        blob = bytearray(ef_encode([0, 5, 5, 9, 100, 4096]).to_bytes())
        at = 25 + 8
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
        for i, v in enumerate(values):
            assert arr[i] == v

    def test_width_zero(self):
        arr = PackedIntArray.pack(np.zeros(5, dtype=np.uint64), 0)
        assert arr[3] == 0
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
        ef = dataclasses.replace(ef_encode([0, 1, 2]), lower=huge)
        gr = dataclasses.replace(gr_encode([1, 2], 0), remainders=huge)
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
        w = Writer()
        bad.write(w)
        with pytest.raises(DeserializationError, match="word count"):
            PackedIntArray.read(Reader(w.getvalue()))


class TestEliasFano:
    def test_empty(self):
        seq = ef_encode([])
        assert len(seq) == 0
        with pytest.raises(IndexError):
            seq.access(0)

    def test_all_zero(self):
        seq = ef_encode([0, 0, 0])
        assert [seq.access(i) for i in range(3)] == [0, 0, 0]

    def test_hand_case(self):
        seq = ef_encode([3, 7, 20])
        assert seq.access(1) == 7

    def test_range(self):
        seq = ef_encode(list(range(1000)))
        assert seq.access(500) == 500

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            ef_encode([3, 2])
        with pytest.raises(ValueError, match="monotone"):
            ef_encode([-1, 2])

    def test_out_of_bounds(self):
        seq = ef_encode([1, 2, 3])
        with pytest.raises(IndexError, match="out of bounds"):
            seq.access(3)

    @given(
        st.lists(st.integers(0, 2**40), min_size=0, max_size=300).map(sorted)
    )
    def test_roundtrip(self, values):
        seq = ef_encode(values)
        assert np.array_equal(seq.to_array(), np.array(values, dtype=np.uint64))
        for i in range(0, len(values), 7):
            assert seq.access(i) == values[i]

    def test_space_bound(self):
        rng = np.random.default_rng(11)
        values = np.sort(rng.integers(0, 10**6, size=10_000))
        seq = ef_encode(values)
        n, u = len(values), int(values[-1])
        bound = 2 * n + n * int(np.ceil(np.log2(u / n)))
        # allow the select index plus padding/constants
        assert seq.bits() <= bound + seq.aux_bits() + 192

    def test_serialization_roundtrip(self):
        values = [0, 5, 5, 9, 100, 4096]
        seq = EliasFanoSeq.from_bytes(ef_encode(values).to_bytes())
        assert [seq.access(i) for i in range(len(values))] == values

    @pytest.mark.parametrize("field, delta", [("n", 1), ("n", -1), ("lower_width", 1)])
    def test_inconsistent_header_rejected(self, field, delta):
        seq = ef_encode([0, 5, 5, 9, 100, 4096])
        bad = dataclasses.replace(seq, **{field: getattr(seq, field) + delta})
        with pytest.raises(DeserializationError, match="Elias-Fano"):
            EliasFanoSeq.from_bytes(bad.to_bytes())


    @pytest.mark.parametrize(
        "values, universe",
        [
            ([0, 5, 5, 9, 100, 4096], 4095),
            ([0, 5, 5, 9, 100, 4096], 4097),
            ([0, 5, 5, 9, 100, 4096], 2**40),
            ([7], 6),
            ([], 1),
        ],
        ids=["below-last", "above-last", "far-above", "single", "empty"],
    )
    def test_universe_other_than_last_value_rejected(self, values, universe):
        # every other field is the encoder's, so only universe is wrong
        bad = dataclasses.replace(ef_encode(values), universe=universe)
        with pytest.raises(DeserializationError, match="Elias-Fano"):
            EliasFanoSeq.from_bytes(bad.to_bytes())

    @pytest.mark.parametrize("delta", [1, -1])
    def test_lower_width_other_than_encoders_rejected(self, delta):
        # the lower array is re-packed at the mutated width, so n, the
        # popcount and the lower array's width all agree with the header
        seq = ef_encode([0, 5, 5, 9, 100, 4096])
        width = seq.lower_width + delta
        lows = np.array([0, 5, 5, 9, 100, 4096], dtype=np.uint64) & np.uint64((1 << width) - 1)
        bad = dataclasses.replace(
            seq, lower_width=width, lower=PackedIntArray.pack(lows, width)
        )
        with pytest.raises(DeserializationError, match="lower_width"):
            EliasFanoSeq.from_bytes(bad.to_bytes())

    @given(
        st.lists(st.integers(0, 2**63 - 1), min_size=0, max_size=200).map(sorted)
    )
    def test_every_encoding_loads(self, values):
        seq = EliasFanoSeq.from_bytes(ef_encode(values).to_bytes())
        assert seq.to_array().tolist() == values


class TestGolombRice:
    def test_zeros_k0(self):
        seq = gr_encode([0, 0, 0], 0)
        assert seq.unary.bits() >= 3  # three unary terminators, word-padded
        assert seq.unary.popcount == 3
        assert [seq.access(i) for i in range(3)] == [0, 0, 0]

    def test_hand_case_five(self):
        # 5 = quotient 1, remainder 1 at k_log=2
        seq = gr_encode([5], 2)
        assert seq.unary.popcount == 1
        assert seq.unary.select1(0) == 1  # one zero bit, then the terminator
        assert seq.remainders[0] == 1
        assert seq.access(0) == 5

    def test_empty(self):
        seq = gr_encode([], 3)
        assert len(seq) == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            gr_encode([1], -1)
        with pytest.raises(ValueError):
            gr_encode([1], 64)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gr_encode([-2], 1)

    @given(
        st.lists(st.integers(0, 5000), max_size=300),
        st.integers(0, 12),
    )
    def test_roundtrip(self, values, k_log):
        seq = gr_encode(values, k_log)
        assert np.array_equal(seq.to_array(), np.array(values, dtype=np.uint64))
        for i in range(0, len(values), 5):
            assert seq.access(i) == values[i]

    def test_geometric_bulk_roundtrip(self):
        rng = np.random.default_rng(13)
        values = (rng.geometric(0.5, size=10_000) - 1).astype(np.uint64)
        k = rice_parameter(values)
        seq = gr_encode(values, k)
        assert np.array_equal(seq.to_array(), values)

    def test_serialization_roundtrip(self):
        values = [0, 1, 7, 0, 300]
        seq = GolombRiceSeq.from_bytes(gr_encode(values, 2).to_bytes())
        assert [seq.access(i) for i in range(len(values))] == values

    @pytest.mark.parametrize("field, delta", [("n", 1), ("n", -1), ("k_log", 1)])
    def test_inconsistent_header_rejected(self, field, delta):
        seq = gr_encode([0, 1, 7, 0, 300], 2)
        bad = dataclasses.replace(seq, **{field: getattr(seq, field) + delta})
        with pytest.raises(DeserializationError, match="Golomb-Rice"):
            GolombRiceSeq.from_bytes(bad.to_bytes())


def test_rice_parameter():
    assert rice_parameter([]) == 0
    assert rice_parameter([0, 0, 0]) == 0
    assert rice_parameter([7, 7, 7]) == 3


def test_reader_words_length_bounded_before_allocation():
    with pytest.raises(DeserializationError, match="truncated"):
        Reader(struct.pack("<Q", 2**61) + b"\0" * 64).words()


@pytest.mark.parametrize(
    "cls, seq", [(EliasFanoSeq, ef_encode([0, 5, 9])), (GolombRiceSeq, gr_encode([1, 2, 3], 1))]
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
