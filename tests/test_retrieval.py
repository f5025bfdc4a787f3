import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sichash.cli import generate_keys
from sichash import _native, retrieval
from sichash.errors import ConstructionError, DeserializationError
from sichash.hashing import MASK64, MasterHash, mix64, row_keys
from sichash.phf import PhfConfig, SicHashPhf, build, build_from_hashes
from sichash.retrieval import MAX_SEED_RETRIES, RetrievalStore, _rows_many, _solve


def _random_hashes(rng, n):
    hi = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    lo = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    return hi, lo


def test_empty_store():
    st_ = RetrievalStore.build((np.empty(0, np.uint64), np.empty(0, np.uint64)), [], r=2)
    v = st_.query(MasterHash(123, 456))
    assert 0 <= v < 4
    assert st_.query(MasterHash(123, 456)) == v


def _empty(r):
    return RetrievalStore.build((np.empty(0, np.uint64), np.empty(0, np.uint64)), [], r=r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_empty_store_is_one_zero_band(r):
    store = _empty(r)
    assert store.num_keys == 0 and store.num_slots == 64
    assert len(store.planes) == r
    assert all(np.array_equal(p, np.zeros(3, np.uint64)) for p in store.planes)
    back = RetrievalStore.from_bytes(store.to_bytes())
    assert (back.r, back.num_slots, back.seed, back.num_keys) == (r, 64, 0, 0)
    assert all(np.array_equal(p, np.zeros(3, np.uint64)) for p in back.planes)
    assert back.to_bytes() == store.to_bytes()
    hi, lo = _random_hashes(np.random.default_rng(r), 1000)
    for s in (store, back):
        assert s.query(MasterHash(123, 456)) == 0
        assert not s.query_many(hi, lo).any()


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("words", [3, 1], ids=["one-band-planes", "zero-slot-layout"])
def test_empty_store_without_slots_rejected(r, words):
    # words=1 is the zero-slot layout that empty stores were once written in
    store = _empty(r)
    blob = _replaced(store, num_slots=0, planes=_planes(store, words))
    with pytest.raises(DeserializationError, match="band"):
        RetrievalStore.from_bytes(blob)


def test_single_pair():
    st_ = RetrievalStore.build(([11], [22]), [5], r=3)
    assert st_.query(MasterHash(11, 22)) == 5


def _duplicate_cases():
    """(r, library, equal values) for every store width, both paths, and
    values that make the repeated row dependent or inconsistent."""
    return itertools.product((1, 2, 3), (_native.lib, None), (True, False))


def test_duplicate_hash_rejected(monkeypatch):
    for r, lib, equal in _duplicate_cases():
        monkeypatch.setattr(_native, "lib", lib)
        with pytest.raises(ValueError, match="duplicate key"):
            RetrievalStore.build(([1, 1], [2, 2]), [1, 1 if equal else 0], r=r)


@pytest.mark.parametrize("hashes, values", [(([1, 2], [3]), [0, 1]), (([1], [2]), [0, 1])])
def test_lengths_must_match(hashes, values):
    with pytest.raises(ValueError, match="equal length"):
        RetrievalStore.build(hashes, values, r=1)


def test_value_out_of_range_rejected(monkeypatch):
    # checked before the values are narrowed to one byte, which would
    # store 256 as 0, 1.9 as 1 and -1 as 255
    for lib in (_native.lib, None):
        monkeypatch.setattr(_native, "lib", lib)
        for values in ([4], [256], [1.9], [-1], np.array([-1]), [3, -1]):
            hashes = (np.arange(len(values)), np.full(len(values), 2))
            with pytest.raises(ValueError, match="values must be integers that fit in r=2 bits"):
                RetrievalStore.build(hashes, values, r=2)


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
    assert 8 * len(store.to_bytes()) <= 2 * n * 1.10 + 2048


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
    """Blob of a store with fields set after construction, which refuses
    a bad shape."""
    bad = copy.copy(store)
    vars(bad).update(fields)
    return bad.to_bytes()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: _replaced(s, r=0, planes=[]),
        lambda s: _replaced(s, r=4, planes=s.planes * 2),
        lambda s: _replaced(s, num_slots=63),
        lambda s: _replaced(s, planes=_planes(s, 3)),
        lambda s: _replaced(s, planes=_planes(s, len(s.planes[0]) + 1)),
        lambda s: _replaced(s, num_slots=0),
    ],
    ids=[
        "r0", "r4", "short-slots", "plane3", "plane-long", "empty-planes",
    ],
)
def test_bad_header_fields_rejected(mutate):
    # every other field is encoded consistently, so only one value is wrong
    rng = np.random.default_rng(41)
    hi, lo = _random_hashes(rng, 1000)
    store = RetrievalStore.build((hi, lo), rng.integers(0, 4, size=1000), r=2)
    with pytest.raises(DeserializationError):
        RetrievalStore.from_bytes(mutate(store))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_blob_is_header_and_planes(r):
    # magic, r, num_slots, seed and num_keys, then each plane's word count
    # and words: the band width, always 64, is not stored
    store = RetrievalStore.build(_random_hashes(np.random.default_rng(r), 300), [0] * 300, r)
    nwords = store.num_slots // 64 + 2
    assert len(store.to_bytes()) == 8 + 1 + 3 * 8 + r * (8 + 8 * nwords)


def test_bad_store_rejected_inside_phf():
    phf = build(generate_keys(2000, seed=3), PhfConfig(alpha=0.9))
    phf.stores[2] = copy.copy(phf.stores[2])
    vars(phf.stores[2]).update(r=0, planes=[])
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


@pytest.mark.xfail(strict=True, raises=ConstructionError,
                   reason="a row's coefficient derives from fold_hash before the seed")
@pytest.mark.parametrize("lib", [_native.lib, None], ids=["kernel", "python"])
def test_hashes_with_one_fold_are_separable(monkeypatch, lib):
    # (2, 0) and (2**63 - 2, 2**63 - 4) share fold_hash, so in a 64-slot
    # store, where every row starts at slot 0, they get one equation under
    # every seed, and two different values fail all of them
    monkeypatch.setattr(_native, "lib", lib)
    hi = np.array([2, 2**63 - 2], dtype=np.uint64)
    lo = np.array([0, 2**63 - 4], dtype=np.uint64)
    values = np.array([0, 1], dtype=np.uint64)
    store = RetrievalStore.build((hi, lo), values, r=1)
    assert np.array_equal(store.query_many(hi, lo).astype(np.uint64), values)


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
            values = rng.integers(0, 2**r, size=n, dtype=np.uint8)
        else:
            values = np.array(
                [mix64(s * 0x9E3779B97F4A7C15 ^ c) >> (64 - r) for s, c in rows],
                dtype=np.uint8,
            )
        want = _reference_solve(hi, lo, values, r, seed, num_slots)
        status, got = _solve(hi, lo, values, r, seed, num_slots)
        if want is None:
            unsolvable += 1
            assert status == -1
            continue
        # each repeat of a row reduces to zero against its first copy
        assert status >= n - len(set(rows))
        dependent += len(set(rows)) < n
        assert len(got) == r
        for g, w in zip(got, want):
            assert g.dtype == np.uint64 and len(g) == num_slots // 64 + 2
            assert np.array_equal(g, w)
    assert unsolvable and dependent


# -- the native solve against the Python loop, its reference and fallback ---

native = pytest.mark.skipif(_native.lib is None, reason="native library not loaded")


def _python_path(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the native library switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "lib", None)
        return fn(*args, **kwargs)


@native
@pytest.mark.parametrize("epsilon", [0.0, 0.02, 0.1])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_kernel_matches_python_solve(r, epsilon):
    # n = 0 is the empty one-band store; at epsilon 0 the larger systems
    # are past the ribbon's threshold and so unsolvable; repeating the
    # first k rows' keys and values at the end gives k dependent rows
    rng = np.random.default_rng(100 * r + int(100 * epsilon))
    unsolvable = dependent = 0
    for n, k in itertools.product((0, 1, 63, 64, 65, 500, 3000), (0, 4)):
        num_slots = max(64, math.ceil(n * (1 + epsilon)))
        hi, lo = _random_hashes(rng, n)
        values = rng.integers(0, 2**r, size=n, dtype=np.uint8)
        k = min(k, n // 2)
        for x in (hi, lo, values):
            x[n - k :] = x[:k]
        for seed in (0, 1):
            want_status, want = _python_path(_solve, hi, lo, values, r, seed, num_slots)
            status, got = _solve(hi, lo, values, r, seed, num_slots)
            assert status == want_status
            if status == -1:
                unsolvable += 1
                continue
            assert status >= k
            dependent += status > 0
            assert len(got) == len(want) == r
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.uint64
                assert np.array_equal(g, w)
    assert dependent
    if epsilon == 0:
        assert unsolvable


@native
def test_kernel_matches_python_on_a_functions_stores(monkeypatch):
    # the three stores of a 100k-key function, rebuilt from the rows and
    # values each received, on the Python path
    received = {}
    store_build = RetrievalStore.build.__func__

    def spy(cls, hashes, values, r, **kwargs):
        received[r] = (hashes, values, kwargs)
        return store_build(cls, hashes, values, r, **kwargs)

    monkeypatch.setattr(RetrievalStore, "build", classmethod(spy))
    phf = build(generate_keys(100_000, seed=9), PhfConfig(alpha=0.9))
    monkeypatch.undo()
    assert sorted(received) == [1, 2, 3]
    for store in phf.stores.values():
        hashes, values, kwargs = received[store.r]
        want = _python_path(RetrievalStore.build, hashes, values, store.r, **kwargs)
        assert (store.seed, store.num_slots, store.num_keys) == (
            want.seed, want.num_slots, want.num_keys
        )
        assert all(np.array_equal(p, q) for p, q in zip(store.planes, want.planes))


@native
class TestSolveArguments:
    """The build kernel checks its arrays, r and the slot count before it
    runs."""

    @staticmethod
    def _build(hi=None, lo=None, values=None, num_slots=64, r=1, planes=None):
        hi = np.array([5, 5], dtype=np.uint64) if hi is None else hi
        lo = np.array([7, 8], dtype=np.uint64) if lo is None else lo
        values = np.array([1, 0], dtype=np.uint8) if values is None else values
        planes = np.empty((r, num_slots // 64 + 2), dtype=np.uint64) if planes is None else planes
        return _native.lib.ribbon_build(hi, lo, values, num_slots, r, *row_keys(0), planes)

    def test_valid_rows_solve(self):
        assert self._build() == 0
        # the same equation with another value is inconsistent, and with
        # the same value dependent
        assert self._build(lo=np.array([7, 7], dtype=np.uint64)) == -1
        ones = np.ones(2, dtype=np.uint8)
        assert self._build(lo=np.array([7, 7], dtype=np.uint64), values=ones) == 1

    def test_wrong_dtype(self):
        with pytest.raises(TypeError, match="hi: need items of 8 bytes"):
            self._build(hi=np.zeros(2, dtype=np.uint32))
        with pytest.raises(TypeError, match="values: need items of 1 bytes"):
            self._build(values=np.ones(2, dtype=np.uint64))
        with pytest.raises(TypeError, match="planes: need items of 8 bytes"):
            self._build(planes=np.empty(24, dtype=np.uint8))

    def test_short_output(self):
        with pytest.raises(ValueError, match="planes: need 6 items, got 5"):
            self._build(r=2, planes=np.empty(5, dtype=np.uint64))
        with pytest.raises(ValueError, match="planes: need 6 items, got 3"):
            self._build(r=2, planes=np.empty((1, 3), dtype=np.uint64))
        with pytest.raises(ValueError, match="lo: need 2 items, got 1"):
            self._build(lo=np.ones(1, dtype=np.uint64))
        with pytest.raises(ValueError, match="values: need 2 items, got 3"):
            self._build(values=np.ones(3, dtype=np.uint8))

    @pytest.mark.parametrize("r, num_slots", [(0, 64), (4, 64), (1, 63)])
    def test_bad_shape(self, r, num_slots):
        with pytest.raises(ValueError, match="need 1 <= r <= 3"):
            self._build(r=r, num_slots=num_slots, planes=np.empty((1, 3), dtype=np.uint64))

    def test_starts_beyond_32_bits(self):
        # the counting sort keeps row positions and starts in 32 bits; the
        # largest slot count it takes goes on to the planes' length check
        planes = np.empty((1, 3), dtype=np.uint64)
        with pytest.raises(ValueError, match=r"num_slots <= 2\*\*32 \+ 63"):
            self._build(num_slots=2**32 + 64, planes=planes)
        with pytest.raises(ValueError, match="planes: need"):
            self._build(num_slots=2**32 + 63, planes=planes)


def test_build_takes_the_same_seed_on_both_paths(monkeypatch):
    # a tight slack makes seed retries common
    monkeypatch.setattr(retrieval, "EPSILON", 0.03)
    rng = np.random.default_rng(71)
    retried = 0
    for base_seed in range(6):
        hi, lo = _random_hashes(rng, 2000)
        values = rng.integers(0, 8, size=2000, dtype=np.uint64)
        args = ((hi, lo), values, 3)
        kw = {"base_seed": base_seed}
        store = RetrievalStore.build(*args, **kw)
        assert store.to_bytes() == _python_path(RetrievalStore.build, *args, **kw).to_bytes()
        retried += store.seed > base_seed
    assert retried


def test_seed_retry_wraps_past_2_to_the_64():
    # the r2 store of this function fails its base seed 2**64 - 1 once
    keys = generate_keys(150, 158)
    phf = build(keys, PhfConfig(alpha=0.9, global_seed=2**64 - 1))
    assert phf.stores[4].seed == 0
    assert phf.build_stats.stores[2]["seed_retries"] == 1
    back = SicHashPhf.from_bytes(phf.to_bytes())
    assert back.stores[4].seed == 0
    assert np.array_equal(back.evaluate_many(keys), phf.evaluate_many(keys))


@pytest.mark.parametrize("base_seed", [-1, 2**64])
def test_base_seed_outside_64_bits_rejected(base_seed):
    with pytest.raises(ValueError, match="base_seed"):
        RetrievalStore.build(([1], [2]), [1], 1, base_seed=base_seed)


def test_build_fails_the_same_way_on_both_paths(monkeypatch):
    monkeypatch.setattr(retrieval, "EPSILON", 0.0)
    rng = np.random.default_rng(72)
    hi, lo = _random_hashes(rng, 3000)
    values = rng.integers(0, 4, size=3000, dtype=np.uint64)
    message = f"after {MAX_SEED_RETRIES} seeds"
    with pytest.raises(ConstructionError, match=message):
        RetrievalStore.build((hi, lo), values, 2)
    with pytest.raises(ConstructionError, match=message):
        _python_path(RetrievalStore.build, (hi, lo), values, 2)


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


def test_store_rejects_equal_pair_behind_shared_high_halves(monkeypatch):
    hi, lo = _shared_high_halves(2000)
    lo[1001] = lo[1000]
    for r, lib, equal in _duplicate_cases():
        monkeypatch.setattr(_native, "lib", lib)
        values = np.random.default_rng(r).integers(0, 2**r, size=2000, dtype=np.uint64)
        values[1001] = values[1000] if equal else values[1000] ^ 1
        with pytest.raises(ValueError, match="duplicate keys"):
            RetrievalStore.build((hi, lo), values, r=r)


@pytest.mark.parametrize("lib", [_native.lib, None], ids=["kernel", "python"])
def test_distinctness_checked_only_after_a_dependent_row(monkeypatch, lib):
    # a clean solve skips the sort of check_distinct; a repeated row runs it
    calls = []
    check = retrieval.check_distinct

    def spy(hi, lo):
        calls.append(len(hi))
        check(hi, lo)

    monkeypatch.setattr(retrieval, "check_distinct", spy)
    monkeypatch.setattr(_native, "lib", lib)
    hi, lo = _random_hashes(np.random.default_rng(63), 5000)
    values = np.random.default_rng(64).integers(0, 4, size=5000, dtype=np.uint64)
    store = RetrievalStore.build((hi, lo), values, r=2)
    assert calls == [] and store.seed == 0
    hi, lo = (np.append(x, x[0]) for x in (hi, lo))
    with pytest.raises(ValueError, match="duplicate keys"):
        RetrievalStore.build((hi, lo), np.append(values, np.uint64(0)), r=2)
    assert calls == [5001]


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
