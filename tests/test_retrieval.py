import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sichash.cli import generate_keys
from sichash.errors import DeserializationError
from sichash.hashing import MASK64, MasterHash, mix64
from sichash.phf import PhfConfig, SicHashPhf, build, build_from_hashes
from sichash.retrieval import RetrievalStore, _rows_many, _solve


def _random_hashes(rng, n):
    hi = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    lo = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    return hi, lo


def test_empty_store():
    st_ = RetrievalStore.build((np.empty(0, np.uint64), np.empty(0, np.uint64)), [], r=2)
    v = st_.query(MasterHash(123, 456))
    assert 0 <= v < 4
    assert st_.query(MasterHash(123, 456)) == v


def test_single_pair():
    st_ = RetrievalStore.build(([11], [22]), [5], r=3)
    assert st_.query(MasterHash(11, 22)) == 5


def test_duplicate_hash_rejected():
    with pytest.raises(ValueError, match="duplicate key"):
        RetrievalStore.build(([1, 1], [2, 2]), [1, 0], r=1)


def test_value_out_of_range_rejected():
    with pytest.raises(ValueError, match="fit"):
        RetrievalStore.build(([1], [2]), [4], r=2)


def test_bad_r():
    with pytest.raises(ValueError):
        RetrievalStore.build(([1], [2]), [0], r=4)


def test_hash_sequence_rejected():
    # a list of two master hashes must not be read as (hi, lo)
    with pytest.raises(TypeError, match="tuple"):
        RetrievalStore.build([MasterHash(1, 2), MasterHash(3, 4)], [0, 1], r=1)


def test_bulk_query_back_and_space():
    rng = np.random.default_rng(100)
    n = 100_000
    hi, lo = _random_hashes(rng, n)
    values = rng.integers(0, 4, size=n, dtype=np.uint64)
    store = RetrievalStore.build((hi, lo), values, r=2)
    got = store.query_many(hi, lo)
    assert np.array_equal(got.astype(np.uint64), values)
    assert store.bits() <= 2 * n * 1.10 + 2048


def test_unseen_keys_deterministic_in_range():
    rng = np.random.default_rng(4)
    hi, lo = _random_hashes(rng, 500)
    store = RetrievalStore.build((hi, lo), rng.integers(0, 2, size=500), r=1)
    probe = MasterHash(999999, 888888)
    first = store.query(probe)
    assert 0 <= first < 2
    assert store.query(probe) == first


def test_scalar_matches_batch():
    rng = np.random.default_rng(8)
    hi, lo = _random_hashes(rng, 2000)
    values = rng.integers(0, 8, size=2000, dtype=np.uint64)
    store = RetrievalStore.build((hi, lo), values, r=3)
    batch = store.query_many(hi, lo)
    for i in range(0, 2000, 37):
        assert store.query(MasterHash(int(hi[i]), int(lo[i]))) == int(batch[i])


def test_serialization_roundtrip_exact_answers():
    rng = np.random.default_rng(21)
    hi, lo = _random_hashes(rng, 5000)
    values = rng.integers(0, 8, size=5000, dtype=np.uint64)
    store = RetrievalStore.build((hi, lo), values, r=3)
    store2 = RetrievalStore.from_bytes(store.to_bytes())
    assert np.array_equal(store2.query_many(hi, lo), store.query_many(hi, lo))
    assert store2.seed == store.seed
    assert store2.num_slots == store.num_slots


def test_serialization_errors():
    store = RetrievalStore.build(([5], [6]), [1], r=1)
    blob = store.to_bytes()
    with pytest.raises(DeserializationError):
        RetrievalStore.from_bytes(blob[:-1])
    with pytest.raises(DeserializationError):
        RetrievalStore.from_bytes(b"BADMAGIC" + blob[8:])


def _planes(store, words):
    return [np.zeros(words, dtype=np.uint64)] * store.r


def _replaced(store, **fields):
    return dataclasses.replace(store, **fields).to_bytes()


def _band(store, width):
    # the u32 band field follows the magic, r, num_slots and seed
    blob = store.to_bytes()
    return blob[:25] + struct.pack("<I", width) + blob[29:]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: _replaced(s, r=0, planes=[]),
        lambda s: _replaced(s, r=4, planes=s.planes * 2),
        lambda s: _band(s, 0),
        lambda s: _band(s, 32),
        lambda s: _band(s, 65),
        lambda s: _replaced(s, num_slots=63),
        lambda s: _replaced(s, planes=_planes(s, 3)),
        lambda s: _replaced(s, planes=_planes(s, len(s.planes[0]) + 1)),
        lambda s: _replaced(s, num_slots=0),
    ],
    ids=[
        "r0", "r4", "band0", "band32", "band65", "short-slots", "plane3", "plane-long",
        "empty-planes",
    ],
)
def test_bad_header_fields_rejected(mutate):
    # every other field is encoded consistently, so only one value is wrong
    rng = np.random.default_rng(41)
    hi, lo = _random_hashes(rng, 1000)
    store = RetrievalStore.build((hi, lo), rng.integers(0, 4, size=1000), r=2)
    assert store.to_bytes()[25:29] == struct.pack("<I", 64)
    with pytest.raises(DeserializationError):
        RetrievalStore.from_bytes(mutate(store))


def test_bad_store_rejected_inside_phf():
    phf = build(generate_keys(2000, seed=3), PhfConfig(alpha=0.9))
    phf.stores[2] = dataclasses.replace(phf.stores[2], r=0, planes=[])
    with pytest.raises(DeserializationError):
        SicHashPhf.from_bytes(phf.to_bytes())


@settings(max_examples=40)
@given(
    st.integers(1, 3),
    st.lists(
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
        min_size=1,
        max_size=120,
        unique=True,
    ),
    st.randoms(use_true_random=False),
)
def test_query_back_property(r, pairs, rnd):
    hi = np.array([p[0] for p in pairs], dtype=np.uint64)
    lo = np.array([p[1] for p in pairs], dtype=np.uint64)
    values = np.array([rnd.randrange(2**r) for _ in pairs], dtype=np.uint64)
    store = RetrievalStore.build((hi, lo), values, r=r)
    assert np.array_equal(store.query_many(hi, lo).astype(np.uint64), values)


def test_keys_sharing_one_half_are_separable():
    # regression: identical low halves (or identical high halves) must
    # still produce distinct equations in a minimum-size store
    hi = np.arange(8, dtype=np.uint64)
    lo = np.zeros(8, dtype=np.uint64)
    values = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint64)
    store = RetrievalStore.build((hi, lo), values, r=1)
    assert np.array_equal(store.query_many(hi, lo).astype(np.uint64), values)

    store2 = RetrievalStore.build((lo, hi), values, r=1)
    assert np.array_equal(store2.query_many(lo, hi).astype(np.uint64), values)


# -- solver reference -------------------------------------------------------
# The elimination and back-substitution as first written: the pivot search
# shifts before every table lookup, and each pivot reads its solution
# window from two words of a Python word list.


def _reference_solve(hi, lo, values, r, seed, num_slots):
    starts, coeffs = _rows_many(hi, lo, seed, num_slots)
    order = np.argsort(starts, kind="stable")
    row_coeff = [0] * num_slots
    row_value = [0] * num_slots
    for s, c, v in zip(starts[order].tolist(), coeffs[order].tolist(), values[order].tolist()):
        while c:
            tz = (c & -c).bit_length() - 1
            s += tz
            c >>= tz
            rc = row_coeff[s]
            if rc == 0:
                row_coeff[s] = c
                row_value[s] = v
                break
            c ^= rc
            v ^= row_value[s]
        else:
            if v:
                return None

    nwords = num_slots // 64 + 2
    sols = [[0] * nwords for _ in range(r)]
    for p in range(num_slots - 1, -1, -1):
        c = row_coeff[p]
        if c == 0:
            continue
        v = row_value[p]
        w0, off = p >> 6, p & 63
        for k in range(r):
            sk = sols[k]
            window = ((sk[w0] >> off) | (sk[w0 + 1] << (64 - off))) & MASK64
            if ((window & c).bit_count() ^ (v >> k)) & 1:
                sk[w0] |= 1 << off
    return [np.array(s, dtype=np.uint64) for s in sols]


def test_solve_matches_reference():
    # Half the systems repeat an eighth of their keys, which gives
    # identical equations.  Random values make most such systems
    # inconsistent; values derived from the row give identical rows
    # identical values, so they stay solvable with dependent rows.
    rng = np.random.default_rng(57)
    unsolvable = dependent = 0
    for case in range(400):
        n = int(rng.integers(0, 401))
        r = int(rng.integers(1, 4))
        epsilon = 0.1 * rng.random()
        num_slots = max(64, int(np.ceil(n * (1 + epsilon))))
        hi, lo = _random_hashes(rng, n)
        if case % 4 < 2:
            k = n // 8
            hi[:k], lo[:k] = hi[n - k :], lo[n - k :]
        seed = int(rng.integers(0, 4))
        starts, coeffs = _rows_many(hi, lo, seed, num_slots)
        rows = list(zip(starts.tolist(), coeffs.tolist()))
        if case % 2:
            values = rng.integers(0, 2**r, size=n, dtype=np.uint64)
        else:
            values = np.array(
                [mix64(s * 0x9E3779B97F4A7C15 ^ c) >> (64 - r) for s, c in rows],
                dtype=np.uint64,
            )
        want = _reference_solve(hi, lo, values, r, seed, num_slots)
        got = _solve(hi, lo, values, r, seed, num_slots)
        if want is None:
            unsolvable += 1
            assert got is None
            continue
        dependent += len(set(rows)) < n
        assert len(got) == r
        for g, w in zip(got, want):
            assert g.dtype == np.uint64 and len(g) == num_slots // 64 + 2
            assert np.array_equal(g, w)
    assert unsolvable and dependent


# -- distinctness check -----------------------------------------------------


def _shared_high_halves(n):
    # pairs of keys share a high half and differ in the low half
    rng = np.random.default_rng(61)
    hi, lo = _random_hashes(rng, n)
    hi[1::2] = hi[0::2]
    return hi, lo


def test_store_accepts_shared_high_halves():
    hi, lo = _shared_high_halves(2000)
    values = np.random.default_rng(62).integers(0, 4, size=2000, dtype=np.uint64)
    store = RetrievalStore.build((hi, lo), values, r=2)
    assert np.array_equal(store.query_many(hi, lo).astype(np.uint64), values)


def test_store_rejects_equal_pair_behind_shared_high_halves():
    hi, lo = _shared_high_halves(2000)
    lo[1001] = lo[1000]
    with pytest.raises(ValueError, match="duplicate keys"):
        RetrievalStore.build((hi, lo), np.zeros(2000, dtype=np.uint64), r=1)


def test_build_from_hashes_accepts_shared_high_halves():
    hi, lo = _shared_high_halves(4000)
    phf = build_from_hashes(hi, lo, PhfConfig(alpha=0.9, bucket_size=1000))
    values = phf.evaluate_hashes(hi, lo)
    assert len(np.unique(values)) == 4000 and values.max() < phf.m_total


def test_build_from_hashes_rejects_equal_pair_behind_shared_high_halves():
    hi, lo = _shared_high_halves(4000)
    lo[3999] = lo[3998]
    with pytest.raises(ValueError, match="duplicate keys"):
        build_from_hashes(hi, lo, PhfConfig(alpha=0.9, bucket_size=1000))
