import contextlib
import copy
import dataclasses
import functools
import gc
import hashlib
import json
import pickle
import random
import struct
import sys
import threading
import time
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sichash import _native, cuckoo, retrieval
from sichash import phf as phf_module
from sichash.cli import generate_keys
from sichash.cuckoo import BucketInput, build_bucket
from sichash.errors import ConstructionError, DeserializationError
from sichash.hashing import (
    bucket_of_many,
    class_of_many,
    class_thresholds,
    master_hash,
    master_hash_many,
    row_keys,
    seed_lanes,
)
from sichash.phf import (
    BucketMetaArray,
    PhfConfig,
    SicHashPhf,
    _attach_remap,
    build,
    build_from_hashes,
    class_fractions,
    injectivity_failure,
)
from sichash.retrieval import EPSILON, RetrievalStore
from sichash._wire import Writer
from sichash.succinct import EliasFanoSeq
from sichash.thresholds import ClassMix, solve_threshold
from tests.test_golden import GOLDEN, GOLDEN_KEY_SEED
from tests.test_hashing import (
    BAD_KEYS, FORM_KEYS, KEY_BLOCK, KEY_FORMS, KEY_LENGTHS, NOT_FLAT_KEYS, BytesKey,
)


@pytest.fixture(scope="module")
def keys_20k():
    return generate_keys(20_000, seed=99)


@pytest.fixture(scope="module")
def phf_20k(keys_20k):
    return build(keys_20k, PhfConfig(alpha=0.9, beta=2.0, x=0.5, global_seed=5))


#: the native query kernel, then the Python path (evaluate_hash and numpy)
LIBRARIES = pytest.mark.parametrize("lib", [_native.lib, None], ids=["kernel", "python"])
native = pytest.mark.skipif(_native.lib is None, reason="native library not loaded")


@contextlib.contextmanager
def _library(lib):
    """Run the block with ``_native.lib`` set to ``lib``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "lib", lib)
        yield


def _values_on_each_path(phf, keys) -> list[list[int]]:
    """Scalar and batch values of the keys, on the kernel and on the
    Python path, each as a list."""
    out = []
    for lib in (_native.lib, None):
        with _library(lib):
            out.append([phf.evaluate(k) for k in keys])
            out.append(phf.evaluate_many(keys).tolist())
    return out


class TestClassFractions:
    def test_budget_identity_on_grid(self):
        betas = np.linspace(1.0, 3.0, 101)
        xs = np.linspace(0.0, 1.0, 101)
        for beta in betas:
            for x in xs:
                p1, p2, p3 = class_fractions(float(beta), float(x))
                assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0 and 0.0 <= p3 <= 1.0
                assert p1 + p2 + p3 == pytest.approx(1.0, abs=1e-9)
                assert p1 + 2 * p2 + 3 * p3 == pytest.approx(beta, abs=1e-9)

    @given(st.floats(1.0, 3.0), st.floats(0.0, 1.0))
    def test_budget_identity_property(self, beta, x):
        p1, p2, p3 = class_fractions(beta, x)
        assert p1 + 2 * p2 + 3 * p3 == pytest.approx(beta, abs=1e-9)

    def test_extremes(self):
        assert class_fractions(1.0, 0.0) == pytest.approx((1.0, 0.0, 0.0))
        assert class_fractions(3.0, 1.0) == pytest.approx((0.0, 0.0, 1.0))
        assert class_fractions(2.0, 0.0) == pytest.approx((0.0, 1.0, 0.0))
        assert class_fractions(2.0, 1.0) == pytest.approx((0.5, 0.0, 0.5))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            class_fractions(0.9, 0.5)
        with pytest.raises(ValueError):
            class_fractions(3.1, 0.5)
        with pytest.raises(ValueError):
            class_fractions(2.0, 1.5)


class TestPhfConfig:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            PhfConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PhfConfig(alpha=1.2)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="global_seed"):
            PhfConfig(alpha=0.9, global_seed=seed)

    @pytest.mark.parametrize("bucket_size", [0, -1, 2**64, 10**20])
    def test_bucket_size_outside_64_bits_rejected(self, bucket_size):
        # the header stores it as a u64
        with pytest.raises(ValueError, match="bucket_size must lie in"):
            PhfConfig(alpha=0.9, bucket_size=bucket_size)

    def test_bucket_size_at_64_bit_limit_round_trips(self, keys_20k):
        phf = build(keys_20k[:100], PhfConfig(alpha=0.9, bucket_size=2**64 - 1))
        assert SicHashPhf.from_bytes(phf.to_bytes()).config.bucket_size == 2**64 - 1

    def test_seed_at_64_bit_limits_round_trips(self, keys_20k):
        for seed in (0, 2**64 - 1):
            phf = build(keys_20k[:100], PhfConfig(alpha=0.9, global_seed=seed))
            assert SicHashPhf.from_bytes(phf.to_bytes()).config.global_seed == seed

    def test_non_integer_bucket_size_rejected(self):
        # a float used to build in full and then fail in to_bytes
        with pytest.raises(ValueError, match="bucket_size must be an integer"):
            PhfConfig(alpha=0.9, bucket_size=500.5)

    def test_non_integer_seed_rejected(self):
        # a float used to fail with TypeError inside the build's hashing
        with pytest.raises(ValueError, match="global_seed must be an integer"):
            PhfConfig(alpha=0.9, global_seed=1.5)

    def test_fraction_properties(self):
        cfg = PhfConfig(alpha=0.9, beta=1.8, x=0.725)
        assert cfg.fractions[0] == pytest.approx(0.49)
        assert cfg.fractions[1] == pytest.approx(0.22)
        assert cfg.fractions[2] == pytest.approx(0.29)


class TestBuild:
    def test_single_key_alpha_one(self):
        phf = build([b"only key"], PhfConfig(alpha=1.0))
        assert phf.m_total == 1
        assert phf.evaluate(b"only key") == 0

    def test_perfect_on_construction_keys(self, keys_20k, phf_20k):
        values = phf_20k.evaluate_many(keys_20k)
        assert int(values.max()) < phf_20k.m_total
        assert len(np.unique(values)) == len(keys_20k)

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            build([], PhfConfig(alpha=0.9))

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate keys"):
            build([b"k1", b"k2", b"k1"], PhfConfig(alpha=0.9))

    def test_scalar_matches_batch(self, keys_20k, phf_20k):
        values = phf_20k.evaluate_many(keys_20k[:100])
        for k, v in zip(keys_20k[:100], values):
            assert phf_20k.evaluate(k) == int(v)

    def test_unseen_keys_in_range_and_deterministic(self, phf_20k):
        probe = [b"never seen %d" % i for i in range(500)]
        a = phf_20k.evaluate_many(probe)
        b = phf_20k.evaluate_many(probe)
        assert np.array_equal(a, b)
        assert int(a.max()) < phf_20k.m_total

    def test_deterministic_blob(self, keys_20k):
        cfg = PhfConfig(alpha=0.9, beta=2.0, x=0.3, global_seed=11)
        assert build(keys_20k, cfg).to_bytes() == build(keys_20k, cfg).to_bytes()

    def test_offsets_consistent(self, phf_20k):
        offs = phf_20k.meta.offsets.astype(np.int64)
        sizes = np.diff(offs)
        assert offs[0] == 0
        assert (sizes >= 0).all()
        assert offs[-1] == phf_20k.m_total

    def test_alpha_too_aggressive(self):
        keys = generate_keys(120, seed=4)
        with pytest.raises(ConstructionError, match="alpha too aggressive"):
            build(keys, PhfConfig(alpha=0.999, beta=1.0), max_bucket_seeds=32)

    @pytest.mark.parametrize("minimal", [False, True], ids=["plain", "minimal"])
    def test_non_member_in_empty_last_bucket(self, minimal):
        # the first of a series of 6-key sets whose last bucket is empty,
        # so that the test holds whatever the master hash
        config = PhfConfig(alpha=0.9, bucket_size=1, minimal=minimal)
        phf = next(f for f in (build(generate_keys(6, seed), config) for seed in range(1000))
                   if f.meta.offsets[-2] == f.meta.offsets[-1])
        offs = phf.meta.offsets.tolist()
        assert offs[-2] == offs[-1] == phf.m_total  # the last bucket is empty
        probes = [b"probe %d" % i for i in range(2000)]
        got = [phf.evaluate(k) for k in probes]
        assert all(type(v) is int and 0 <= v < phf.output_range for v in got)
        assert got == phf.evaluate_many(probes).tolist()

    def test_global_seed_changes_function(self, keys_20k):
        a = build(keys_20k[:3000], PhfConfig(alpha=0.9, global_seed=1))
        b = build(keys_20k[:3000], PhfConfig(alpha=0.9, global_seed=2))
        assert a.to_bytes() != b.to_bytes()


_STAGES = [
    "hash", "partition", "cuckoo",
    "retrieval", "retrieval_r1", "retrieval_r2", "retrieval_r3", "verify",
]


class TestBuildStats:
    def test_plain_build(self, phf_20k):
        stats = phf_20k.build_stats
        assert list(stats.stages) == _STAGES
        assert all(t >= 0 for t in stats.stages.values())
        # the stores' own times overlap inside the stage's wall time
        assert stats.stages["retrieval"] >= max(stats.stages[f"retrieval_r{r}"] for r in (1, 2, 3))
        assert stats.workers == min(phf_module._WORKERS, 4)  # 4 buckets
        seeds = phf_20k.meta.seeds
        assert stats.bucket_seeds == {
            int(k): int(v) for k, v in zip(*np.unique(seeds, return_counts=True))
        }
        assert sum(stats.bucket_seeds.values()) == phf_20k.meta.num_buckets
        assert stats.displacements > 0
        assert set(stats.stores) == {1, 2, 3}
        for store in phf_20k.stores.values():
            assert stats.stores[store.r] == {
                "seed": store.seed,
                "seed_retries": store.seed - 5,
                "epsilon": 0.10,
            }

    def test_retries_report_is_json(self, phf_20k):
        report = json.loads(json.dumps(phf_20k.build_stats.retries()))
        assert set(report) == {"displacements", "bucket_seeds", "retrieval"}
        assert set(report["retrieval"]) == {"r1", "r2", "r3"}

    def test_minimal_build_times_the_remap(self, keys_20k):
        phf = build(keys_20k[:3000], PhfConfig(alpha=0.97, minimal=True))
        assert list(phf.build_stats.stages) == _STAGES + ["remap"]

    def test_from_hashes_has_no_hash_stage(self):
        rng = np.random.default_rng(3)
        hi = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
        lo = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
        config = PhfConfig(alpha=0.9)
        phf = build_from_hashes(hi, lo, config)
        assert list(phf.build_stats.stages) == _STAGES[1:]
        # 3000 keys make one bucket: its placement is the whole count
        degrees = class_of_many(lo, *class_thresholds(*config.fractions[:2]))
        placed = build_bucket(BucketInput(hi, lo, degrees, round(3000 / 0.9)))
        assert phf.build_stats.displacements == placed.displacements > 0

    def test_seed_retries_counted(self):
        # tiny buckets near load 1 need bucket seeds above 0
        keys = generate_keys(2000, seed=8)
        phf = build(keys, PhfConfig(alpha=1.0, beta=2.0, bucket_size=8))
        hist = phf.build_stats.bucket_seeds
        assert max(hist) > 0
        assert max(hist) == int(phf.meta.seeds.max())

    def test_not_serialized(self, phf_20k):
        assert SicHashPhf.from_bytes(phf_20k.to_bytes()).build_stats is None


@pytest.mark.parametrize("minimal", [False, True], ids=["plain", "minimal"])
def test_each_store_is_built_from_its_masked_rows(keys_20k, monkeypatch, minimal):
    """The class split hands each store the rows, and their values, that a
    mask of its degree selects from the bucket-ordered keys, in that order;
    tests/test_golden.py pins the blobs built from them."""
    received = {}
    solve = RetrievalStore.build.__func__

    def spy(cls, hashes, values, r, **kwargs):
        received[r] = (*hashes, values)
        return solve(cls, hashes, values, r, **kwargs)

    monkeypatch.setattr(RetrievalStore, "build", classmethod(spy))
    config = PhfConfig(alpha=0.9, minimal=minimal, global_seed=5)
    phf = build(keys_20k, config)
    hi, lo = master_hash_many(keys_20k, config.global_seed)
    buckets = bucket_of_many(hi, phf.meta.num_buckets).astype(np.int64)
    order = np.argsort(buckets, kind="stable")
    hi, lo = hi[order], lo[order]
    degrees = class_of_many(lo, *class_thresholds(*config.fractions[:2]))
    bounds = np.searchsorted(buckets[order], np.arange(phf.meta.num_buckets + 1)).tolist()
    sizes = np.diff(phf.meta.offsets).tolist()
    placed = [
        build_bucket(BucketInput(hi[a:z], lo[a:z], degrees[a:z], m))
        for a, z, m in zip(bounds, bounds[1:], sizes)
    ]
    assert [p.seed for p in placed] == phf.meta.seeds.tolist()
    fn_values = np.concatenate([p.assignments for p in placed])
    for degree, store in phf.stores.items():
        mask = degrees == degree
        rows = (hi[mask], lo[mask], fn_values[mask])
        assert all(np.array_equal(x, y) for x, y in zip(received[store.r], rows))
        want = RetrievalStore.build(rows[:2], rows[2], store.r, base_seed=config.global_seed)
        assert (store.seed, store.num_slots, store.num_keys) == (
            want.seed, want.num_slots, want.num_keys
        )
        assert all(np.array_equal(p, q) for p, q in zip(store.planes, want.planes))


def _partition_on_each_path(hi, lo, num_buckets, t1, t2):
    """:func:`phf._partition` by the kernel and by numpy."""
    got = phf_module._partition(hi, lo, num_buckets, t1, t2)
    with _library(None):
        want = phf_module._partition(hi, lo, num_buckets, t1, t2)
    return got, want


def _assert_same_partition(got, want):
    for name, a, b in zip(want._fields, got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def _partition_cases():
    rng = np.random.default_rng(70)
    hi = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    lo = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    t1, t2 = class_thresholds(0.3, 0.4)
    edges = np.array([0, 1, t1 - 1, t1, t1 + 1, t2 - 1, t2, t2 + 1, 2**64 - 1], dtype=np.uint64)
    top = np.full(len(edges), 2**64 - 1, dtype=np.uint64)
    return {
        "random": (hi, lo, 7, t1, t2),
        "one bucket": (hi, lo, 1, t1, t2),
        "more buckets than keys": (hi[:40], lo[:40], 100, t1, t2),
        "all of class 8": (hi, lo, 9, 0, 0),
        "all of class 2": (hi, lo, 9, 2**64 - 1, 2**64 - 1),
        "lo at the thresholds": (np.concatenate([top, hi[:9]]), np.tile(edges, 2), 3, t1, t2),
        "one key": (hi[:1], lo[:1], 1, t1, t2),
    }


@native
class TestPartition:
    """The partition kernel gives the arrays of the numpy path."""

    @pytest.mark.parametrize("case", list(_partition_cases()))
    def test_kernel_matches_numpy(self, case):
        hi, lo, num_buckets, t1, t2 = _partition_cases()[case]
        got, want = _partition_on_each_path(hi, lo, num_buckets, t1, t2)
        _assert_same_partition(got, want)
        assert want.bounds[-1] == want.class_bounds[-1] == len(hi)
        assert np.array_equal(want.class_hi[want.class_pos], want.hi)

    def test_classes_stay_in_bucket_order(self):
        hi, lo, num_buckets, t1, t2 = _partition_cases()["random"]
        part, _ = _partition_on_each_path(hi, lo, num_buckets, t1, t2)
        for r, degree in enumerate((2, 4, 8), 1):
            a, z = part.class_bounds[r - 1], part.class_bounds[r]
            mask = part.degrees == degree
            assert np.array_equal(part.class_hi[a:z], part.hi[mask])
            assert np.array_equal(part.class_lo[a:z], part.lo[mask])

    @staticmethod
    def _arrays(n=3, num_buckets=2):
        return dict(hi=np.arange(n, dtype=np.uint64), lo=np.arange(n, dtype=np.uint64),
                    hi_b=np.empty(n, dtype=np.uint64), lo_b=np.empty(n, dtype=np.uint64),
                    deg_b=np.empty(n, dtype=np.uint8), counts=np.empty(num_buckets, dtype=np.int64),
                    hi_c=np.empty(n, dtype=np.uint64), lo_c=np.empty(n, dtype=np.uint64),
                    class_pos=np.empty(n, dtype=np.uint32))

    def _partition(self, t1=0, t2=0, **changes):
        a = {**self._arrays(), **changes}
        return _native.lib.partition(a["hi"], a["lo"], t1, t2, a["hi_b"], a["lo_b"], a["deg_b"],
                                     a["counts"], a["hi_c"], a["lo_c"], a["class_pos"])

    def test_valid_arrays(self):
        assert self._partition(t1=1, t2=2) == (1, 1, 1)

    def test_wrong_item_size(self):
        for name, dtype, size in (("hi", np.uint32, 8), ("lo", np.int16, 8),
                                  ("hi_b", np.uint8, 8), ("deg_b", np.int64, 1),
                                  ("counts", np.int32, 8), ("class_pos", np.int64, 4)):
            wrong = self._arrays()[name].astype(dtype)
            with pytest.raises(TypeError, match=f"{name}: need items of {size} bytes"):
                self._partition(**{name: wrong})

    def test_length_mismatch(self):
        for name in ("lo", "hi_b", "lo_b", "deg_b", "hi_c", "lo_c", "class_pos"):
            with pytest.raises(ValueError, match=f"{name}: need 3 items, got 2"):
                self._partition(**{name: self._arrays()[name][:2]})

    def test_no_bucket(self):
        with pytest.raises(ValueError, match="counts: need at least one bucket"):
            self._partition(counts=np.empty(0, dtype=np.int64))

    @pytest.mark.parametrize("t", [-1, 2**64])
    def test_threshold_outside_64_bits(self, t):
        with pytest.raises(OverflowError):
            self._partition(t1=t)

    def test_read_only_output(self):
        frozen = np.empty(3, dtype=np.uint64)
        frozen.flags.writeable = False
        with pytest.raises((BufferError, TypeError)):
            self._partition(hi_c=frozen)


def _tripled(degree: int, config: PhfConfig, n: int = 1000):
    """Master hashes of n random keys, then twice more one of the given
    degree under the config's class fractions."""
    rng = np.random.default_rng(degree)
    hi = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    lo = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    degrees = class_of_many(lo, *class_thresholds(*config.fractions[:2]))
    i = int(np.flatnonzero(degrees == degree)[0])
    return np.append(hi, [hi[i]] * 2), np.append(lo, [lo[i]] * 2)


@LIBRARIES
@pytest.mark.parametrize("degree", [2, 4, 8])
def test_tripled_key_rejected_quickly(lib, degree):
    # three copies of a degree-2 key fit no seed's cells: the check after
    # the first failed seed spares the other 65 535
    config = PhfConfig(alpha=0.9)
    hi, lo = _tripled(degree, config)
    with _library(lib):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="duplicate keys"):
            build_from_hashes(hi, lo, config)
        assert time.perf_counter() - t0 < 1.0


def _pool_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("sichash-build")]


class TestParallelBuild:
    """The buckets and the stores are built on a pool of
    ``phf._WORKERS`` threads (capped at the task count); its size changes
    no output and no error."""

    @LIBRARIES
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("config, blob_sha", [g[:2] for g in GOLDEN],
                             ids=["plain-a90", "minimal-compressed-a97", "plain-x066"])
    def test_same_blobs_for_any_worker_count(self, monkeypatch, lib, workers, config, blob_sha):
        monkeypatch.setattr(phf_module, "_WORKERS", workers)
        with _library(lib):
            phf = build(generate_keys(20_000, seed=GOLDEN_KEY_SEED), config)
        assert hashlib.sha256(phf.to_bytes()).hexdigest() == blob_sha
        assert phf.build_stats.workers == workers
        assert _pool_threads() == []

    def test_workers_capped_at_the_task_count(self, monkeypatch, keys_20k):
        monkeypatch.setattr(phf_module, "_WORKERS", 64)
        # 4 buckets, 3 stores
        assert build(keys_20k, PhfConfig(alpha=0.9)).build_stats.workers == 4
        assert build(keys_20k[:3000], PhfConfig(alpha=0.9)).build_stats.workers == 3

    @LIBRARIES
    @pytest.mark.parametrize("workers", [1, 3])
    def test_every_bucket_failing_names_bucket_0(self, monkeypatch, lib, workers):
        # all of degree 2 at load 1: no bucket places under seed 0
        config = PhfConfig(alpha=1.0, beta=1.0, bucket_size=100)
        keys = generate_keys(2000, seed=3)
        first = _first_bucket(keys, config)
        place = phf_module.build_bucket
        started = []

        def counted(inp, **kwargs):
            started.append(len(inp))
            if inp.hi[0] == first[0][0]:
                # bucket 0 fails last, after the buckets running beside it
                time.sleep(0.05)
            return place(inp, **kwargs)

        monkeypatch.setattr(phf_module, "_WORKERS", workers)
        monkeypatch.setattr(phf_module, "build_bucket", counted)
        with _library(lib):
            with pytest.raises(ConstructionError) as raised:
                build(keys, config, max_bucket_seeds=1)
            with pytest.raises(ConstructionError) as alone:
                place(BucketInput(*first), max_seeds=1)
        assert str(raised.value) == (
            f"construction failed: alpha too aggressive (bucket 0: {alone.value})"
        )
        # bucket 0, and at most the buckets already running beside it
        assert 1 <= len(started) <= 1 + workers
        assert _pool_threads() == []

    @LIBRARIES
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("degree", [2, 8])
    def test_duplicate_keys_still_rejected(self, monkeypatch, lib, workers, degree):
        # a tripled degree-2 hash fails its bucket, a degree-8 one its store
        config = PhfConfig(alpha=0.9, bucket_size=100)
        monkeypatch.setattr(phf_module, "_WORKERS", workers)
        with _library(lib), pytest.raises(ValueError, match="duplicate keys"):
            build_from_hashes(*_tripled(degree, config), config)
        assert _pool_threads() == []

    def test_user_threads_build_at_once(self, monkeypatch, keys_20k):
        configs = [PhfConfig(alpha=0.9),
                   PhfConfig(alpha=0.97, minimal=True, compressed_metadata=True)]
        with monkeypatch.context() as m:
            m.setattr(phf_module, "_WORKERS", 1)
            want = [build(keys_20k, c).to_bytes() for c in configs]
        # six threads on fewer cores, switching often
        monkeypatch.setattr(phf_module, "_WORKERS", 3)
        start = threading.Barrier(len(configs))

        def run(config):
            start.wait(timeout=60)
            return build(keys_20k, config).to_bytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(configs)) as users:
                got = list(users.map(run, configs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert _pool_threads() == []


def _first_bucket(keys, config):
    """Bucket 0's hashes, degrees and table size, as the build gives them."""
    hi, lo = master_hash_many(keys, config.global_seed)
    num_buckets = round(len(keys) / config.bucket_size)
    mask = bucket_of_many(hi, num_buckets) == 0
    degrees = class_of_many(lo[mask], *class_thresholds(*config.fractions[:2]))
    n = int(mask.sum())
    return hi[mask], lo[mask], degrees, max(n, round(n / config.alpha))


@native
def test_clean_build_never_checks_distinctness(monkeypatch):
    calls = []
    monkeypatch.setattr(cuckoo, "check_distinct", lambda hi, lo: calls.append(len(hi)))
    monkeypatch.setattr(retrieval, "check_distinct", lambda hi, lo: calls.append(len(hi)))
    assert "check_distinct" not in vars(phf_module)
    keys = generate_keys(100_000, seed=71)
    build(keys, PhfConfig(alpha=0.9))
    assert calls == []


class TestBuildCheck:
    """A build queries its finished function over every key and raises
    unless the values are distinct and in range."""

    @LIBRARIES
    @pytest.mark.parametrize("minimal", [False, True], ids=["plain", "minimal"])
    def test_zeroed_r1_store_is_caught(self, keys_20k, monkeypatch, lib, minimal):
        solve = retrieval._solve

        def zeroed(hi, lo, values, r, seed, num_slots):
            status, planes = solve(hi, lo, values, r, seed, num_slots)
            if r == 1:
                planes = [np.zeros_like(p) for p in planes]
            return status, planes

        monkeypatch.setattr(_native, "lib", lib)
        monkeypatch.setattr(retrieval, "_solve", zeroed)
        with pytest.raises(ConstructionError, match="not perfect"):
            build(keys_20k[:3000], PhfConfig(alpha=0.9, minimal=minimal))

    @LIBRARIES
    @pytest.mark.parametrize("minimal", [False, True], ids=["plain", "minimal"])
    def test_zeroed_placement_is_caught(self, keys_20k, monkeypatch, lib, minimal):
        place = phf_module.build_bucket

        def zeroed(inp, **kwargs):
            result = place(inp, **kwargs)
            return dataclasses.replace(
                result, assignments=np.zeros_like(result.assignments)
            )

        monkeypatch.setattr(_native, "lib", lib)
        monkeypatch.setattr(phf_module, "build_bucket", zeroed)
        with pytest.raises(ConstructionError, match="not perfect"):
            build(keys_20k[:3000], PhfConfig(alpha=0.9, minimal=minimal))


class TestInjectivityFailure:
    def test_permutation_passes(self):
        values = np.random.default_rng(1).permutation(1000).astype(np.uint64)
        assert injectivity_failure(values, 1000) is None

    def test_value_at_limit_names_its_key(self):
        values = np.array([0, 2, 5, 1], dtype=np.uint64)
        assert injectivity_failure(values, 5) == "key 2 maps to 5 >= 5"

    def test_collision_names_the_lower_pair(self):
        values = np.array([4, 7, 0, 7, 7], dtype=np.uint64)
        assert injectivity_failure(values, 8) == "keys 1 and 3 collide at value 7"

    def test_top_of_the_64_bit_range(self):
        top = 2**64 - 1
        values = np.array([top - 1, top - 3, 5, top - 2], dtype=np.uint64)
        tracemalloc.start()
        try:
            assert injectivity_failure(values, top) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # nothing sized by the range


class TestSerialization:
    def test_roundtrip_values(self, keys_20k, phf_20k):
        restored = SicHashPhf.from_bytes(phf_20k.to_bytes())
        assert np.array_equal(
            restored.evaluate_many(keys_20k), phf_20k.evaluate_many(keys_20k)
        )

    def test_corrupted_byte_detected(self, phf_20k):
        blob = bytearray(phf_20k.to_bytes())
        blob[len(blob) // 2] ^= 0x10
        with pytest.raises(DeserializationError, match="checksum"):
            SicHashPhf.from_bytes(bytes(blob))

    def test_truncation_detected(self, phf_20k):
        blob = phf_20k.to_bytes()
        with pytest.raises(DeserializationError):
            SicHashPhf.from_bytes(blob[: len(blob) // 2])
        with pytest.raises(DeserializationError):
            SicHashPhf.from_bytes(b"")

    def test_bad_magic(self, phf_20k):
        blob = bytearray(phf_20k.to_bytes())
        blob[0:8] = b"NOTSICPH"
        import zlib

        body = bytes(blob[:-4])
        fixed = body + zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(DeserializationError, match=r"found b'NOTSICPH'"):
            SicHashPhf.from_bytes(fixed)

    @LIBRARIES
    def test_load_copies_from_a_bytearray(self, keys_20k, lib):
        # the loaded function keeps no view of the buffer: overwriting and
        # resizing it changes no value
        mphf = build(keys_20k, PhfConfig(alpha=0.95, minimal=True, compressed_metadata=True))
        want = mphf.evaluate_many(keys_20k)
        buf = bytearray(mphf.to_bytes())
        with _library(lib):
            loaded = SicHashPhf.from_bytes(buf)
            buf[:] = bytes(len(buf))
            buf.clear()  # raises BufferError while a view is exported
            assert np.array_equal(loaded.evaluate_many(keys_20k), want)
            assert [loaded.evaluate(k) for k in keys_20k[:500]] == want[:500].tolist()

    @pytest.mark.parametrize("minimal", [False, True], ids=["plain", "minimal"])
    def test_loaded_arrays_equal_on_each_path(self, keys_20k, minimal):
        config = PhfConfig(alpha=0.95, minimal=minimal, compressed_metadata=minimal)
        blob = build(keys_20k, config).to_bytes()
        loads = []
        for lib in (_native.lib, None):
            with _library(lib):
                loads.append(SicHashPhf.from_bytes(blob))
        kernel, python = loads
        assert np.array_equal(kernel._remap_values, python._remap_values)
        assert np.array_equal(kernel.meta.seeds, python.meta.seeds)
        assert np.array_equal(kernel.meta.offsets, python.meta.offsets)
        for got in (kernel, python):
            assert got._remap_values.dtype == got.meta.offsets.dtype == np.uint64
            assert got.to_bytes() == blob

    @LIBRARIES
    def test_flipped_bit_rejected(self, phf_20k, lib):
        # the first and last payload bytes, each side of a 64-byte fold
        # boundary, at the start and in the middle, and each trailer byte
        blob = phf_20k.to_bytes()
        payload = len(blob) - 4
        middle = payload // 2 // 64 * 64
        spots = [0, 63, 64, middle - 1, middle, payload - 1, *range(payload, len(blob))]
        with _library(lib):
            for at in spots:
                for bit in (0x01, 0x80):
                    bad = bytearray(blob)
                    bad[at] ^= bit
                    with pytest.raises(DeserializationError, match="checksum"):
                        SicHashPhf.from_bytes(bad)
            assert SicHashPhf.from_bytes(blob).to_bytes() == blob

    def test_first_format_rejected(self, phf_20k):
        body = b"SICPHF01" + phf_20k.to_bytes()[8:-4]
        with pytest.raises(DeserializationError, match="magic"):
            SicHashPhf.from_bytes(_reseal(body))

    def test_second_format_rejected(self, phf_20k):
        # its layout is this one's, but its keys were hashed with BLAKE2b:
        # loaded, it would answer every query through the wrong hash
        body = b"SICPHF02" + phf_20k.to_bytes()[8:-4]
        with pytest.raises(DeserializationError, match="magic"):
            SicHashPhf.from_bytes(_reseal(body))

    def test_third_format_rejected(self, phf_20k):
        # its sections repeated facts that this layout stores once
        body = b"SICPHF03" + phf_20k.to_bytes()[8:-4]
        with pytest.raises(DeserializationError, match="magic"):
            SicHashPhf.from_bytes(_reseal(body))

    def test_container_overhead_constant(self, keys_20k):
        a = build(keys_20k[:2000], PhfConfig(alpha=0.9))
        b = build(keys_20k[:11000], PhfConfig(alpha=0.9))
        overhead_a = len(a.to_bytes()) * 8 - a.space_breakdown().total_bits
        overhead_b = len(b.to_bytes()) * 8 - b.space_breakdown().total_bits
        assert overhead_a == overhead_b

    def test_compressed_metadata_same_values(self, keys_20k):
        plain = build(keys_20k, PhfConfig(alpha=0.9, global_seed=5))
        comp = build(
            keys_20k, PhfConfig(alpha=0.9, global_seed=5, compressed_metadata=True)
        )
        assert np.array_equal(
            plain.evaluate_many(keys_20k), comp.evaluate_many(keys_20k)
        )
        restored = SicHashPhf.from_bytes(comp.to_bytes())
        assert np.array_equal(
            restored.evaluate_many(keys_20k), plain.evaluate_many(keys_20k)
        )
        assert restored.config.compressed_metadata


@pytest.mark.parametrize("minimal", [False, True], ids=["plain", "minimal"])
@LIBRARIES
def test_pickle_and_copy_roundtrip(lib, minimal):
    keys = generate_keys(3000, seed=12)
    with _library(lib):
        phf = build(keys, PhfConfig(alpha=0.9, minimal=minimal, compressed_metadata=minimal))
        blob = phf.to_bytes()
        values = phf.evaluate_many(keys).tolist()
        for copied in (pickle.loads(pickle.dumps(phf)), copy.deepcopy(phf), copy.copy(phf)):
            assert copied is not phf
            assert copied.build_stats is None
            assert copied.to_bytes() == blob
            assert copied.evaluate_many(keys).tolist() == values
            assert [copied.evaluate(k) for k in keys[:200]] == values[:200]


class TestMinimal:
    def test_alpha_one_identity(self, keys_20k):
        # exact fit: every table cell used, so minimal mode has no work.
        # beta=3 keeps the load-1.0 per-bucket searches cheap (8 choices
        # per key); degree-2-heavy mixes are hopeless at exact fit.
        keys = keys_20k[:192]
        config = PhfConfig(alpha=1.0, beta=3.0, x=0.0, bucket_size=48)
        raw = build(keys, config).evaluate_many(keys)
        mphf = build(keys, dataclasses.replace(config, minimal=True))
        assert mphf.m_total == len(keys)
        assert np.array_equal(mphf.evaluate_many(keys), raw)
        assert mphf.space_breakdown().remap_bits <= 1024  # empty sequence, headers only

    def test_bijectivity(self, keys_20k):
        mphf = build(keys_20k, PhfConfig(alpha=0.95, minimal=True))
        values = np.sort(mphf.evaluate_many(keys_20k))
        assert np.array_equal(values, np.arange(len(keys_20k), dtype=values.dtype))

    def test_build_flag_equivalent(self, keys_20k):
        direct = build(keys_20k, PhfConfig(alpha=0.95, minimal=True))
        values = np.sort(direct.evaluate_many(keys_20k))
        assert np.array_equal(values, np.arange(len(keys_20k), dtype=values.dtype))
        # the same blob as remapping a plain build by its values on the keys
        plain = build(keys_20k, PhfConfig(alpha=0.95))
        seen = np.zeros(plain.m_total, dtype=bool)
        seen[plain.evaluate_many(keys_20k)] = True
        remapped = _attach_remap(plain, seen)
        assert remapped.to_bytes() == direct.to_bytes()

    def test_from_hashes_minimal_matches_build(self, keys_20k):
        keys = keys_20k[:3000]
        config = PhfConfig(alpha=0.97, global_seed=4, minimal=True)
        hi, lo = master_hash_many(keys, config.global_seed)
        mphf = build_from_hashes(hi, lo, config)
        assert mphf.config.minimal and mphf.output_range == len(keys)
        values = np.sort(mphf.evaluate_hashes(hi, lo))
        assert np.array_equal(values, np.arange(len(keys), dtype=values.dtype))
        assert mphf.to_bytes() == build(keys, config).to_bytes()

    def test_overflow_keys_land_in_holes(self, keys_20k):
        keys = keys_20k[:9000]
        raw = build(keys, PhfConfig(alpha=0.9)).evaluate_many(keys)
        mphf = build(keys, PhfConfig(alpha=0.9, minimal=True))
        mapped = mphf.evaluate_many(keys)
        n = len(keys)
        over = raw >= n
        assert np.array_equal(mapped[~over], raw[~over])
        holes = np.setdiff1d(np.arange(n), raw[raw < n])
        assert set(mapped[over].tolist()) == set(holes.tolist())

    def test_remap_size_formula(self):
        keys = generate_keys(100_000, seed=12)
        mphf = build(keys, PhfConfig(alpha=0.95, minimal=True))
        m, n = mphf.m_total, len(keys)
        formula = (m - n) * (2 + np.ceil(np.log2(n / (m - n))))
        breakdown = mphf.space_breakdown()
        assert breakdown.remap_bits <= formula + 512

    def test_serialization_roundtrip(self, keys_20k):
        mphf = build(keys_20k, PhfConfig(alpha=0.95, minimal=True))
        restored = SicHashPhf.from_bytes(mphf.to_bytes())
        assert restored.config.minimal
        assert np.array_equal(
            restored.evaluate_many(keys_20k), mphf.evaluate_many(keys_20k)
        )


class TestSpaceAccounting:
    def test_breakdown_sums(self, phf_20k):
        b = phf_20k.space_breakdown()
        assert b.total_bits == b.retrieval_bits + b.metadata_bits + b.remap_bits

    def test_metadata_under_budget_at_scale(self, keys_100k):
        phf = build(keys_100k, PhfConfig(alpha=0.9))
        assert phf.space_breakdown().metadata_bits / len(keys_100k) <= 0.04

    def test_retrieval_component_within_slack(self, keys_100k):
        cfg = PhfConfig(alpha=0.9, beta=2.0, x=0.5)
        phf = build(keys_100k, cfg)
        per_obj = phf.space_breakdown().retrieval_bits / len(keys_100k)
        assert 2.0 <= per_obj <= 2.0 * (1 + EPSILON) + 0.05


#: offsets that fall from 2**64 - 1 to 5, and whose int64 differences do not
WRAPPED_OFFSETS = [0, 2**62, 2**63, 3 * 2**62, 2**64 - 1, 5, 2000]


class TestBucketMetaArray:
    def test_validation(self):
        with pytest.raises(ValueError):
            BucketMetaArray(np.array([1]), np.array([0, 5, 3]))
        with pytest.raises(ValueError):
            BucketMetaArray(np.array([1]), np.array([1, 5]))

    def test_offsets_compared_without_wrapping(self):
        # an int64 difference wraps above 2**63, and took these for sorted
        with pytest.raises(ValueError, match="non-decreasing"):
            BucketMetaArray(np.zeros(6), np.array(WRAPPED_OFFSETS, dtype=np.uint64))
        meta = BucketMetaArray(np.zeros(1), np.array([0, 2**63 + 1], dtype=np.uint64))
        assert meta.m_total == 2**63 + 1

    def test_plain_roundtrip(self):
        meta = BucketMetaArray(np.array([0, 3, 1]), np.array([0, 10, 25, 30]))
        back = BucketMetaArray.from_bytes(meta.to_bytes())
        assert np.array_equal(back.seeds, meta.seeds)
        assert np.array_equal(back.offsets, meta.offsets)

    def test_unknown_encoding_rejected(self):
        blob = bytearray(BucketMetaArray(np.array([1]), np.array([0, 5])).to_bytes())
        blob[0] = 2  # the tag byte: 0 = plain, 1 = compressed
        with pytest.raises(DeserializationError, match="metadata encoding"):
            BucketMetaArray.from_bytes(bytes(blob))

    def test_compressed_roundtrip(self):
        meta = BucketMetaArray(
            np.array([0, 3, 1, 7]), np.array([0, 10, 25, 30, 44]), compressed=True
        )
        back = BucketMetaArray.from_bytes(meta.to_bytes())
        assert back.compressed
        assert np.array_equal(back.seeds, meta.seeds)
        assert np.array_equal(back.offsets, meta.offsets)


class TestScalarPlan:
    # The three golden configs, then beta=1 (only degree-2 keys) and
    # beta=3 (only degree-8 keys), where two retrieval stores are empty.
    @pytest.mark.parametrize(
        "config",
        [
            PhfConfig(alpha=0.90),
            PhfConfig(alpha=0.97, minimal=True, compressed_metadata=True),
            PhfConfig(alpha=0.90, x=0.66),
            PhfConfig(alpha=0.40, beta=1.0),
            PhfConfig(alpha=0.90, beta=3.0),
        ],
        ids=["plain-a90", "minimal-compressed-a97", "plain-x066", "beta1", "beta3"],
    )
    def test_scalar_equals_batch(self, keys_20k, config):
        built = build(keys_20k, config)
        loaded = SicHashPhf.from_bytes(built.to_bytes())
        if config.minimal:
            assert built.m_total > built.n  # some keys go through the remap
        if config.beta in (1.0, 3.0):
            assert sum(s.num_keys == 0 for s in built.stores.values()) == 2
        keys = keys_20k + [b"not a key %d" % i for i in range(2000)]
        with _library(None):  # the Python path is the reference
            want = built.evaluate_many(keys).tolist()
        for phf in (built, loaded):
            scalar, batch, python_scalar, python_batch = _values_on_each_path(phf, keys)
            assert all(type(v) is int for v in scalar + python_scalar)
            assert scalar == batch == python_scalar == python_batch == want


class TestNativeQuery:
    """The query kernel against the Python path, which runs when
    ``_native.lib`` is None."""

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_block_boundary_keys(self, seed):
        rng = np.random.default_rng(seed % 997)
        keys = [rng.integers(0, 256, n, dtype=np.uint8).tobytes() for n in KEY_LENGTHS]
        keys += [bytes(n) for n in KEY_LENGTHS]  # the empty key among them
        phf = build(generate_keys(2000, seed=3), PhfConfig(alpha=0.9, global_seed=seed))
        first, *others = _values_on_each_path(phf, keys)
        assert all(got == first for got in others)

    def test_evaluate_hashes_inputs(self, phf_20k):
        rng = np.random.default_rng(8)
        pairs = rng.integers(0, 2**64, size=(3000, 2), dtype=np.uint64)
        hi, lo = pairs[:, 0], pairs[:, 1]  # strided columns
        inputs = [
            (hi, lo),
            (hi[::3], lo[1::3]),
            (hi[:50].tolist(), lo[:50].tolist()),
            (hi[:0], lo[:0]),
            ([], []),
        ]
        for h, l in inputs:
            scalar = [phf_20k.evaluate_hash((int(a), int(b))) for a, b in zip(h, l)]
            for lib in (_native.lib, None):
                with _library(lib):
                    got = phf_20k.evaluate_hashes(h, l)
                assert got.dtype == np.uint64
                assert got.tolist() == scalar

    def test_numpy_scalar_halves(self, phf_20k):
        rng = np.random.default_rng(9)
        hi, lo = rng.integers(0, 2**64, size=(2, 200), dtype=np.uint64)
        hi[:2], lo[2:4] = 2**64 - 1, 2**64 - 1
        want = phf_20k.evaluate_hashes(hi, lo).tolist()
        for lib in (_native.lib, None):
            with _library(lib):
                assert [phf_20k.evaluate_hash((a, b)) for a, b in zip(hi, lo)] == want
                assert phf_20k.evaluate_hashes(hi, lo).tolist() == want

    @LIBRARIES
    @pytest.mark.parametrize("pair", [(2**64, 0), (-1, 0), (0, 2**64)])
    def test_halves_outside_64_bits(self, phf_20k, lib, pair):
        with _library(lib):
            with pytest.raises(OverflowError):
                phf_20k.evaluate_hash(pair)
            with pytest.raises(OverflowError):
                phf_20k.evaluate_hashes([pair[0]], [pair[1]])

    @LIBRARIES
    def test_evaluate_hashes_rejects_unequal_lengths(self, phf_20k, lib):
        hi = np.zeros(3, dtype=np.uint64)
        with _library(lib), pytest.raises(ValueError, match="equal length"):
            phf_20k.evaluate_hashes(hi, hi[:2])

    def test_library_switched_off_after_construction(self, keys_20k, phf_20k):
        keys = keys_20k[:500] + [b"stranger %d" % i for i in range(500)]
        want = phf_20k.evaluate_many(keys).tolist()
        calls = []
        reference = SicHashPhf.evaluate_hash
        with _library(None), pytest.MonkeyPatch.context() as mp:
            mp.setattr(SicHashPhf, "evaluate_hash",
                       lambda self, h: calls.append(h) or reference(self, h))
            assert [phf_20k.evaluate(k) for k in keys] == want
            assert phf_20k.evaluate_many(keys).tolist() == want
            # one built without the library answers alike once it is back
            plain = build(keys_20k, phf_20k.config)
        assert len(calls) == len(keys)
        assert [plain.evaluate(k) for k in keys] == want

    @LIBRARIES
    @pytest.mark.parametrize("form", KEY_FORMS.values(), ids=KEY_FORMS)
    def test_key_forms_agree_with_hashlib(self, phf_20k, lib, form):
        # a key is read as hashlib reads it: the bytes of its buffer,
        # whatever its item size
        with _library(None):  # the Python hash and query: the reference
            want = phf_20k.evaluate_many(FORM_KEYS).tolist()
        keys = [form(k) for k in FORM_KEYS]
        assert [hashlib.blake2b(k).digest() for k in keys] == [
            hashlib.blake2b(k).digest() for k in FORM_KEYS]
        with _library(lib):
            assert [phf_20k.evaluate(k) for k in keys] == want
            assert phf_20k.evaluate_many(keys).tolist() == want
            assert phf_20k.evaluate_many(form(k) for k in FORM_KEYS).tolist() == want

    @LIBRARIES
    def test_bytes_subclass_keys(self, keys_20k, phf_20k, lib):
        # bytes, but not exact bytes: the kernel reads them through their
        # buffer, not by pointer
        keys = keys_20k[:600] + [b"stranger %d" % i for i in range(100)]
        with _library(None):
            want = phf_20k.evaluate_many(keys).tolist()
        with _library(lib):
            assert [phf_20k.evaluate(BytesKey(k)) for k in keys] == want
            assert phf_20k.evaluate_many([BytesKey(k) for k in keys]).tolist() == want

    @LIBRARIES
    @BAD_KEYS
    def test_rejects_what_hashlib_rejects(self, phf_20k, lib, bad, error):
        with pytest.raises(error):
            hashlib.blake2b(bad)
        with _library(lib):
            with pytest.raises(error):
                phf_20k.evaluate(bad)
            with pytest.raises(error):
                phf_20k.evaluate_many([b"a key", bad])

    @LIBRARIES
    @NOT_FLAT_KEYS
    def test_rejects_keys_not_flat(self, phf_20k, lib, bad):
        with _library(lib):
            with pytest.raises(BufferError):
                phf_20k.evaluate(bad)
            with pytest.raises(BufferError):
                phf_20k.evaluate_many([b"a key", bad])

    @native
    def test_plan_outlives_its_function(self, keys_20k):
        phf = build(keys_20k[:3000], PhfConfig(alpha=0.97, minimal=True, global_seed=4))
        keys = keys_20k[:3000] + [b"stranger %d" % i for i in range(500)]
        want = phf.evaluate_many(keys).tolist()
        hi, lo = master_hash_many(keys, phf.config.global_seed)
        plan = phf._query
        del phf
        gc.collect()
        # reuse freed memory, so that a plan reading it would see other values
        junk = [np.full(1000, 2**64 - 1, dtype=np.uint64) for _ in range(100)]
        assert [plan.query(k) for k in keys] == want
        values = np.empty(len(keys), dtype=np.uint64)
        plan.query_hashes(hi, lo, values)
        assert values.tolist() == want
        del junk

    @LIBRARIES
    def test_threads_share_one_function(self, phf_20k, lib):
        rng = np.random.default_rng(12)
        hi, lo = rng.integers(0, 2**64, size=(2, 50_000), dtype=np.uint64)
        with _library(lib):
            want = phf_20k.evaluate_hashes(hi, lo)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(4) as pool:
                    futures = [pool.submit(phf_20k.evaluate_hashes, hi, lo) for _ in range(16)]
                    results = [f.result(timeout=120) for f in futures]
            finally:
                sys.setswitchinterval(interval)
        assert all(np.array_equal(got, want) for got in results)


class TestEvaluateMany:
    """``evaluate_many``: one ``plan.query_keys`` call on the native path,
    ``master_hash_many`` and ``evaluate_hashes`` on the Python path."""

    @LIBRARIES
    def test_inputs_agree_with_the_scalar_reference(self, keys_20k, phf_20k, lib):
        rng = np.random.default_rng(14)
        keys = keys_20k[:1500] + [b"stranger %d" % i for i in range(500)]
        shuffled = [keys[i] for i in rng.permutation(len(keys))]
        repeated = [keys[i] for i in rng.integers(0, 40, 1000)]  # 40 objects, reused
        with _library(None):  # the scalar Python path is the reference
            seed = phf_20k.config.global_seed
            want = [phf_20k.evaluate_hash(master_hash(k, seed)) for k in shuffled]
            want_repeated = [phf_20k.evaluate_hash(master_hash(k, seed)) for k in repeated]
        mixed = [f(k) for f, k in zip([bytes, bytearray, memoryview] * len(shuffled), shuffled)]
        inputs = {
            "shuffled": (shuffled, want),
            "repeated": (repeated, want_repeated),
            "tuple": (tuple(shuffled), want),
            "bytearray": ([bytearray(k) for k in shuffled], want),
            "memoryview": ([memoryview(k) for k in shuffled], want),
            "bytes-subclass": ([BytesKey(k) for k in shuffled], want),
            "mixed": (mixed, want),
            "empty": ([], []),
        }
        with _library(lib):
            for name, (ks, expected) in inputs.items():
                got = phf_20k.evaluate_many(ks)
                assert got.dtype == np.uint64 and got.tolist() == expected, name
            assert phf_20k.evaluate_many(k for k in shuffled).tolist() == want
            assert phf_20k.evaluate_many(iter([])).tolist() == []

    @LIBRARIES
    @BAD_KEYS
    def test_bad_key_in_a_later_block(self, phf_20k, lib, bad, error):
        keys = [b"a key %d" % i for i in range(KEY_BLOCK + 3)] + [bad]
        with _library(lib), pytest.raises(error):
            phf_20k.evaluate_many(keys)

    @LIBRARIES
    @NOT_FLAT_KEYS
    def test_key_not_flat_in_a_later_block(self, phf_20k, lib, bad):
        keys = [b"a key %d" % i for i in range(KEY_BLOCK + 3)] + [bad]
        with _library(lib), pytest.raises(BufferError):
            phf_20k.evaluate_many(keys)

    @native
    def test_native_path_hashes_in_the_plan(self, keys_20k, phf_20k, monkeypatch):
        want = phf_20k.evaluate_hashes(*master_hash_many(keys_20k, 5))
        monkeypatch.setattr(phf_module, "master_hash_many", None)
        assert np.array_equal(phf_20k.evaluate_many(keys_20k), want)

    @LIBRARIES
    def test_keys_replaced_while_answered(self, phf_20k, lib):
        # a key that another thread replaces meanwhile gives the old key's
        # value or the new one's, as the batch hash does
        count = 20_000

        def key(i, tag):  # a fresh object on each call
            return b"%s key %d" % (tag, i)

        keys = [key(i, b"old") for i in range(count)]
        old = phf_20k.evaluate_many(keys)
        new = phf_20k.evaluate_many([key(i, b"new") for i in range(count)])
        assert np.count_nonzero(old != new) > count // 2
        done = threading.Event()

        def replace(seed):
            rng = random.Random(seed)
            while not done.is_set():
                i = rng.randrange(count)
                keys[i] = key(i, rng.choice((b"old", b"new")))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        replacers = [threading.Thread(target=replace, args=(seed,)) for seed in (5, 6)]
        for replacer in replacers:
            replacer.start()
        try:
            with _library(lib):
                for _ in range(100 if lib is not None else 3):
                    got = phf_20k.evaluate_many(keys)
                    assert np.all((got == old) | (got == new))
        finally:
            done.set()
            for replacer in replacers:
                replacer.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(replacer.is_alive() for replacer in replacers)


def _plan_args(phf: SicHashPhf) -> list:
    """The positional arguments of ``lib.Plan`` for a function."""
    stores = tuple(
        (*row_keys(s.seed), s.num_slots, *s.planes) for s in map(phf.stores.get, (2, 4, 8))
    )
    return [*seed_lanes(phf.config.global_seed), *phf._thresholds, phf._limit, phf._starts,
            phf._sizes,
            phf.meta.seeds, phf._remap_values, stores]


@native
class TestPlanArguments:
    """``lib.Plan`` and ``query_hashes`` check their arrays, and every
    bucket's range, before they read them."""

    def _plan(self, phf, **changes):
        args = _plan_args(phf)
        names = ["a", "b", "t1", "t2", "limit", "starts", "sizes", "seeds", "remap", "stores"]
        for name, value in changes.items():
            args[names.index(name)] = value
        return _native.lib.Plan(*args)

    def test_valid_arguments_answer_alike(self, keys_20k, phf_20k):
        plan = self._plan(phf_20k)
        assert [plan.query(k) for k in keys_20k[:500]] == phf_20k.evaluate_many(keys_20k[:500]).tolist()

    def test_query_hashes_wrong_dtype(self, phf_20k):
        hi = np.zeros(4, dtype=np.uint64)
        with pytest.raises(TypeError, match="lo: need items of 8 bytes"):
            phf_20k._query.query_hashes(hi, hi.view(np.uint32), np.empty(4, dtype=np.uint64))

    def test_query_hashes_short_output(self, phf_20k):
        hi = np.zeros(4, dtype=np.uint64)
        with pytest.raises(ValueError, match="out: need 4 items, got 3"):
            phf_20k._query.query_hashes(hi, hi, np.empty(3, dtype=np.uint64))

    def test_wrong_dtype(self, phf_20k):
        with pytest.raises(TypeError, match="starts: need items of 8 bytes"):
            self._plan(phf_20k, starts=phf_20k._starts.astype(np.uint32))

    def test_short_arrays(self, phf_20k):
        with pytest.raises(ValueError, match="seeds: need"):
            self._plan(phf_20k, seeds=phf_20k.meta.seeds[:-1].copy())
        stores = list(_plan_args(phf_20k)[-1])
        *head, last_plane = stores[2]
        stores[2] = (*head, last_plane[:-1].copy())
        with pytest.raises(ValueError, match="plane: need"):
            self._plan(phf_20k, stores=tuple(stores))
        with pytest.raises(ValueError, match="need three stores"):
            self._plan(phf_20k, stores=tuple(stores[:2]))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_integers_outside_64_bits(self, phf_20k, seed):
        # a wrapping parse would read -1 as 2**64 - 1 and 2**64 + 5 as 5
        with pytest.raises(OverflowError):
            self._plan(phf_20k, a=seed)
        with pytest.raises(OverflowError):
            self._plan(phf_20k, t1=seed)
        stores = list(_plan_args(phf_20k)[-1])
        stores[0] = (seed, *stores[0][1:])
        with pytest.raises(OverflowError):
            self._plan(phf_20k, stores=tuple(stores))

    def test_bucket_past_the_value_range(self, phf_20k):
        sizes = phf_20k._sizes.copy()
        sizes[-1] += 1
        with pytest.raises(ValueError, match="a bucket's cells reach past"):
            self._plan(phf_20k, sizes=sizes)


@native
@pytest.mark.parametrize("keyword", [{"m1": 1}, {"cell_salt": 0}, {"stores": ()}])
def test_kernels_take_no_keyword_arguments(phf_20k, keyword):
    # the derivation constants are compiled in, and every argument is
    # positional: a keyword, an old constant's or an argument's own name,
    # is a TypeError, not silently ignored
    lib = _native.lib
    words = np.zeros(2, dtype=np.uint64)
    planes = np.empty((1, 3), dtype=np.uint64)
    mask = np.ones(2, dtype=np.uint8)
    calls = [
        (lib.master_hash_batch, ([b"a", b"b"], 0, 0, words, words.copy())),
        (lib.ribbon_build, (words, words, np.zeros(2, dtype=np.uint8), 64, 1, 0, 0, planes)),
        (lib.rattle_place, (words, words, mask, 0, 100, 3, mask.copy())),
        (lib.Plan, tuple(_plan_args(phf_20k))),
    ]
    for kernel, args in calls:
        kernel(*args)
        with pytest.raises(TypeError, match="keyword"):
            kernel(*args, **keyword)


def _reseal(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "little")


def _small(minimal: bool = False) -> SicHashPhf:
    return build(generate_keys(2000, seed=3), PhfConfig(alpha=0.9, minimal=minimal))


# magic, flags, alpha, beta, x, bucket_size, global_seed
_HEADER_BYTES = 8 + 1 + 5 * 8


def _split(phf: SicHashPhf) -> tuple[bytes, list[bytes]]:
    """A blob's fixed header and its length-prefixed sections, prefixes
    included, without the checksum."""
    body = phf.to_bytes()[:-4]
    sections, at = [], _HEADER_BYTES
    while at < len(body):
        end = at + 8 + int.from_bytes(body[at : at + 8], "little")
        sections.append(body[at:end])
        at = end
    return body[:_HEADER_BYTES], sections


class TestLoadChecks:
    """Blobs with a valid checksum whose parts do not fit together."""

    def test_missing_store_rejected(self):
        header, (meta, r1, r2, r3) = _split(_small())
        with pytest.raises(DeserializationError, match="truncated"):
            SicHashPhf.from_bytes(_reseal(header + meta + r1 + r3))

    def test_stores_out_of_order_rejected(self):
        header, (meta, r1, r2, r3) = _split(_small())
        with pytest.raises(DeserializationError, match="one retrieval store per class"):
            SicHashPhf.from_bytes(_reseal(header + meta + r2 + r1 + r3))

    def test_duplicate_store_rejected(self):
        phf = _small()
        stores = {**phf.stores, 16: phf.stores[4]}  # a second store with r=2
        with pytest.raises(ValueError, match="one retrieval store per class"):
            SicHashPhf(phf.config, phf.meta, stores)

    def test_trailing_section_rejected(self):
        header, sections = _split(_small())
        remap = _split(_small(minimal=True))[1][-1]
        with pytest.raises(DeserializationError, match="trailing"):
            SicHashPhf.from_bytes(_reseal(header + b"".join(sections) + remap))

    def test_minimal_without_remap_rejected(self):
        header, sections = _split(_small(minimal=True))
        with pytest.raises(DeserializationError, match="truncated"):
            SicHashPhf.from_bytes(_reseal(header + b"".join(sections[:-1])))

    def test_store_key_counts_must_sum_to_n(self):
        # n is not stored: in minimal mode the remap length pins it, and one
        # key more in a store leaves one remap value too many
        phf = _small(minimal=True)
        phf.stores[4] = dataclasses.replace(
            phf.stores[4], num_keys=phf.stores[4].num_keys + 1
        )
        with pytest.raises(DeserializationError, match="remap"):
            SicHashPhf.from_bytes(phf.to_bytes())

    def test_empty_bucket_table_rejected(self):
        phf = _small()
        phf.meta = BucketMetaArray(np.empty(0), np.zeros(1))
        with pytest.raises(DeserializationError, match="bucket"):
            SicHashPhf.from_bytes(phf.to_bytes())

    @pytest.mark.parametrize("minimal", [False, True])
    def test_no_keys_rejected(self, minimal):
        # every part agrees with n = 0: empty stores, one empty bucket and,
        # when minimal, an empty remap; queries on it raised IndexError
        phf = _small(minimal)
        phf.meta = BucketMetaArray(np.zeros(1), np.zeros(2))
        none = (np.empty(0, dtype=np.uint64),) * 2
        phf.stores = {d: RetrievalStore.build(none, [], s.r) for d, s in phf.stores.items()}
        if minimal:
            phf.remap = EliasFanoSeq.encode([])
        with pytest.raises(DeserializationError, match="m_total"):
            SicHashPhf.from_bytes(phf.to_bytes())

    @LIBRARIES
    def test_decreasing_offsets_rejected(self, lib):
        # the Python path loaded these offsets and its queries raised IndexError
        header, (_, *stores) = _split(_small())
        w = Writer()
        w.u8(0)  # plain metadata
        w.words(np.zeros(len(WRAPPED_OFFSETS) - 1))
        w.words(np.array(WRAPPED_OFFSETS, dtype=np.uint64))
        meta = w.getvalue()
        body = header + len(meta).to_bytes(8, "little") + meta + b"".join(stores)
        with _library(lib), pytest.raises(DeserializationError, match="non-decreasing"):
            SicHashPhf.from_bytes(_reseal(body))

    def test_more_keys_than_cells_rejected(self):
        phf = _small()
        extra = phf.m_total - phf.n + 1
        phf.stores[2] = dataclasses.replace(
            phf.stores[2], num_keys=phf.stores[2].num_keys + extra
        )
        with pytest.raises(DeserializationError, match="m_total"):
            SicHashPhf.from_bytes(phf.to_bytes())

    # byte offsets after the 8-byte magic and the flags byte
    @pytest.mark.parametrize(
        "offset, fmt, value",
        [
            (9, "<d", 0.0),
            (9, "<d", 1.5),
            (17, "<d", 0.5),
            (25, "<d", 1.5),
            (33, "<Q", 0),
        ],
        ids=["alpha0", "alpha1.5", "beta0.5", "x1.5", "bucket_size0"],
    )
    def test_config_out_of_range_rejected(self, offset, fmt, value):
        body = bytearray(_small().to_bytes()[:-4])
        struct.pack_into(fmt, body, offset, value)
        with pytest.raises(DeserializationError):
            SicHashPhf.from_bytes(_reseal(bytes(body)))

    # the flags byte follows the 8-byte magic: 1 = minimal
    @pytest.mark.parametrize("flag", [0x04, 0x80])
    def test_unknown_flag_bits_rejected(self, flag):
        body = bytearray(_small().to_bytes()[:-4])
        body[8] |= flag
        with pytest.raises(DeserializationError, match="flags"):
            SicHashPhf.from_bytes(_reseal(bytes(body)))

    @pytest.mark.parametrize("compressed", [False, True])
    def test_compressed_flag_must_match_metadata(self, compressed):
        # the metadata section's own tag is the flag: the header has none,
        # and bit 2, where the first format kept one, is refused
        phf = build(
            generate_keys(2000, seed=3),
            PhfConfig(alpha=0.9, compressed_metadata=compressed),
        )
        body = bytearray(phf.to_bytes()[:-4])
        assert SicHashPhf.from_bytes(_reseal(bytes(body))).config == phf.config
        body[8] |= 2
        with pytest.raises(DeserializationError, match="flags"):
            SicHashPhf.from_bytes(_reseal(bytes(body)))

    def test_constructor_rejects_metadata_encoding_mismatch(self):
        phf = _small()
        config = dataclasses.replace(phf.config, compressed_metadata=True)
        with pytest.raises(ValueError, match="metadata encoding"):
            SicHashPhf(config, phf.meta, phf.stores)

    def test_remap_of_wrong_length_rejected(self):
        phf = _small(minimal=True)
        phf.remap = EliasFanoSeq.encode(phf.remap.to_array()[:-1].astype(np.int64))
        with pytest.raises(DeserializationError, match="remap"):
            SicHashPhf.from_bytes(phf.to_bytes())

    def test_remap_value_out_of_range_rejected(self):
        phf = _small(minimal=True)
        values = phf.remap.to_array().astype(np.int64)
        values[-1] = phf.n  # still monotone: every other value is below n
        phf.remap = EliasFanoSeq.encode(values)
        with pytest.raises(DeserializationError, match="remap"):
            SicHashPhf.from_bytes(phf.to_bytes())

    @pytest.mark.parametrize(
        "fields",
        [
            lambda s: dict(planes=[np.zeros(1, dtype=np.uint64)] * s.r),
            lambda s: dict(planes=s.planes[:-1]),
            lambda s: dict(planes=[np.stack([p, p]) for p in s.planes]),
            lambda s: dict(num_slots=0, planes=[np.zeros(2, dtype=np.uint64)] * s.r),
        ],
        ids=["truncated-planes", "plane-missing", "2d-planes", "fewer-slots-than-a-band"],
    )
    def test_constructor_checks_store_planes(self, fields):
        # a store assembled by hand is checked as it is made, so no
        # function can hold one whose queries read past its planes
        store = _small().stores[8]
        with pytest.raises(ValueError, match="planes"):
            dataclasses.replace(store, **fields(store))

    @pytest.mark.parametrize("minimal", [True, False], ids=["minimal-none", "plain-some"])
    def test_remap_presence_must_match_mode(self, minimal):
        phf = _small(minimal)
        remap = None if minimal else EliasFanoSeq.encode(np.arange(3))
        with pytest.raises(ValueError, match="remap"):
            SicHashPhf(phf.config, phf.meta, phf.stores, remap)


FUZZ_KEYS = generate_keys(400, seed=12)
FUZZ_PROBES = FUZZ_KEYS[:200] + [b"stranger %d" % i for i in range(200)]
FUZZ_BLOBS = {
    "plain": (FUZZ_KEYS, PhfConfig(alpha=0.9, bucket_size=100)),
    "minimal-compressed": (
        FUZZ_KEYS,
        PhfConfig(alpha=0.97, bucket_size=100, minimal=True, compressed_metadata=True),
    ),
    "empty-last-bucket": (generate_keys(6, 0), PhfConfig(alpha=0.9, bucket_size=1)),
    # only degree-8 keys: the r=1 and r=2 stores are empty one-band stores
    "beta3-empty-stores": (FUZZ_KEYS, PhfConfig(alpha=0.9, beta=3.0, bucket_size=100)),
}


@functools.cache
def _fuzz_body(name: str) -> bytes:
    keys, config = FUZZ_BLOBS[name]
    return build(keys, config).to_bytes()[:-4]


def test_beta3_fuzz_blob_has_two_empty_one_band_stores():
    phf = SicHashPhf.from_bytes(_reseal(_fuzz_body("beta3-empty-stores")))
    empty = [s for s in phf.stores.values() if s.num_keys == 0]
    assert [s.num_slots for s in empty] == [64, 64]


@pytest.mark.parametrize("name", list(FUZZ_BLOBS))
@settings(max_examples=800, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_blob_rejected_or_total(name, data):
    # 1-3 bytes changed under a fresh checksum: loading either raises
    # DeserializationError or gives a function defined on every key
    body = bytearray(_fuzz_body(name))
    for _ in range(data.draw(st.integers(1, 3))):
        body[data.draw(st.integers(0, len(body) - 1))] ^= data.draw(st.integers(1, 255))
    try:
        phf = SicHashPhf.from_bytes(_reseal(bytes(body)))
    except DeserializationError:
        return
    # scalar and batch, on the kernel and on the Python path
    got, *others = _values_on_each_path(phf, FUZZ_PROBES)
    assert all(type(v) is int and 0 <= v < phf.output_range for v in got)
    assert all(other == got for other in others)


# -- end-to-end property ----------------------------------------------------


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 3000),
    load=st.floats(0.5, 0.97),
    beta=st.floats(1.0, 3.0),
    x=st.floats(0.0, 1.0),
    bucket_size=st.integers(1, 3000),
    minimal=st.booleans(),
    compressed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_config_end_to_end(n, load, beta, x, bucket_size, minimal, compressed, seed):
    # alpha is a share of the mix's load threshold, so every build succeeds
    c_star = solve_threshold(ClassMix(*class_fractions(beta, x))).c_star
    config = PhfConfig(
        alpha=min(1.0, load * c_star),
        beta=beta,
        x=x,
        bucket_size=bucket_size,
        global_seed=seed,
        minimal=minimal,
        compressed_metadata=compressed,
    )
    keys = generate_keys(n + 300, seed=seed)
    members, strangers = keys[:n], keys[n:]
    phf = build(members, config)

    values = phf.evaluate_many(members)
    if minimal:
        assert np.array_equal(np.sort(values), np.arange(n, dtype=np.uint64))
    else:
        assert len(np.unique(values)) == n and values.max() < phf.output_range
    batch = phf.evaluate_many(keys)
    assert np.array_equal(batch[:n], values)
    assert batch[n:].max() < phf.output_range
    assert [phf.evaluate(k) for k in keys] == batch.tolist()
    loaded = SicHashPhf.from_bytes(phf.to_bytes())
    assert np.array_equal(loaded.evaluate_many(keys), batch)
    assert [loaded.evaluate(k) for k in keys] == batch.tolist()
