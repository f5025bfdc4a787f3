import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sichash.cli import generate_keys
from sichash.errors import DeserializationError
from sichash.hashing import MasterHash
from sichash.phf import PhfConfig, SicHashPhf, build
from sichash.retrieval import RetrievalStore


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


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: {"r": 0, "planes": []},
        lambda s: {"r": 4, "planes": s.planes * 2},
        lambda s: {"band_width": 0},
        lambda s: {"band_width": 65},
        lambda s: {"num_slots": s.band_width - 1},
        lambda s: {"planes": _planes(s, 3)},
        lambda s: {"planes": _planes(s, len(s.planes[0]) + 1)},
        lambda s: {"num_slots": 0},
    ],
    ids=["r0", "r4", "band0", "band65", "short-slots", "plane3", "plane-long", "empty-planes"],
)
def test_bad_header_fields_rejected(mutate):
    # every field is re-encoded consistently, so only the value is wrong
    rng = np.random.default_rng(41)
    hi, lo = _random_hashes(rng, 1000)
    store = RetrievalStore.build((hi, lo), rng.integers(0, 4, size=1000), r=2)
    bad = dataclasses.replace(store, **mutate(store))
    with pytest.raises(DeserializationError):
        RetrievalStore.from_bytes(bad.to_bytes())


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


def test_small_band_width():
    rng = np.random.default_rng(31)
    hi, lo = _random_hashes(rng, 800)
    values = rng.integers(0, 4, size=800, dtype=np.uint64)
    store = RetrievalStore.build((hi, lo), values, r=2, band_width=32, epsilon=0.25)
    assert np.array_equal(store.query_many(hi, lo).astype(np.uint64), values)
