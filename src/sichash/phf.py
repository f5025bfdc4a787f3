"""Perfect hash functions built from bucketed, overloaded, irregular
cuckoo tables plus per-class retrieval stores.

Construction pipeline: master-hash every key, partition into buckets of
expected size ``bucket_size``, build one small cuckoo table per bucket
(table size ``max(n_i, round(n_i / alpha))``), then store each key's
winning hash-function index in one of three retrieval stores (1, 2, or
3 bits depending on the key's class).  A query re-derives bucket and
class from the master hash, fetches the stored index, and evaluates the
corresponding candidate cell plus the bucket's offset.

Space budget algebra: with retrieval budget ``beta`` bits per key, the
class fractions interpolate between

    p1_min = max(0, 2 - beta),  p1_max = (3 - beta) / 2,
    p1 = p1_min + x * (p1_max - p1_min),  p2 = 3 - 2*p1 - beta,

which keeps ``1*p1 + 2*p2 + 3*p3 = beta`` for all x in [0, 1].

Minimal mode ("minimal perfect") re-maps values >= n onto the unused
values below n ("holes") through an Elias-Fano coded array of length
``m_total - n`` indexed by ``value - n``.

Top-level blob layout (little-endian, crc32 trailer):

    SICPHF04 | u8 flags (1 = minimal) | f64 alpha,beta,x |
    u64 bucket_size,global_seed | meta blob | r1,r2,r3 store blobs |
    [remap blob iff minimal] | u32 crc32

Each fact is stored once: n is the stores' key count, m_total the
metadata's last offset and the metadata encoding its own tag byte; the
sections store theirs once too (:mod:`sichash.succinct`,
:mod:`sichash.retrieval`).
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import _native
from ._wire import Codec, Reader, Writer, crc32
from .cuckoo import (
    DEFAULT_MAX_BUCKET_SEEDS,
    BucketInput,
    build_bucket,
)
from .errors import ConstructionError, DeserializationError
from .hashing import (
    CLASS_DEGREES,
    MASK64,
    MasterHash,
    _key_bytes,
    bucket_of,
    bucket_of_many,
    cell_of,
    cell_of_many,
    class_of,
    class_of_many,
    class_thresholds,
    master_hash,
    master_hash_many,
    row_keys,
    seed_lanes,
)
from .retrieval import EPSILON, RetrievalStore
from .succinct import EliasFanoSeq, GolombRiceSeq, rice_parameter

_MAGIC = b"SICPHF04"

_R_BY_DEGREE = {d: r for r, d in enumerate(CLASS_DEGREES, 1)}

#: the CPUs this process may run on: the threads of a build's pool, which
#: has no more than its larger stage has tasks
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def class_fractions(beta: float, x: float) -> tuple[float, float, float]:
    """Class fractions (p1, p2, p3) for a space budget and interpolation."""
    if not 1.0 <= beta <= 3.0:
        raise ValueError("beta must lie in [1, 3]")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    p1_min = max(0.0, 2.0 - beta)
    p1_max = (3.0 - beta) / 2.0
    p1 = p1_min + x * (p1_max - p1_min)
    p2 = 3.0 - 2.0 * p1 - beta
    p1 = min(max(p1, 0.0), 1.0)
    p2 = min(max(p2, 0.0), 1.0)
    p3 = min(max(1.0 - p1 - p2, 0.0), 1.0)
    return p1, p2, p3


@dataclass(frozen=True)
class PhfConfig:
    """Construction parameters.

    ``alpha`` is the load factor n/m, ``beta`` the retrieval budget in
    bits per key, ``x`` interpolates among the equal-budget class
    mixes.  ``bucket_size`` and ``global_seed`` are integers stored as
    64-bit words, so both must lie below ``2**64``.
    ``compressed_metadata`` switches bucket metadata serialization from
    plain arrays to Elias-Fano offsets plus Golomb-Rice seeds.
    """

    alpha: float
    beta: float = 2.0
    x: float = 0.5
    bucket_size: int = 5000
    global_seed: int = 0
    minimal: bool = False
    compressed_metadata: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 1 <= _integer("bucket_size", self.bucket_size) <= MASK64:
            raise ValueError("bucket_size must lie in [1, 2**64)")
        if not 0 <= _integer("global_seed", self.global_seed) <= MASK64:
            raise ValueError("global_seed must lie in [0, 2**64)")
        class_fractions(self.beta, self.x)  # validates beta and x

    @property
    def fractions(self) -> tuple[float, float, float]:
        return class_fractions(self.beta, self.x)


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


@dataclass
class BucketMetaArray(Codec):
    """Per-bucket seeds and the exclusive prefix sum of table sizes."""

    seeds: np.ndarray  # uint64, one per bucket
    offsets: np.ndarray  # uint64, num_buckets + 1 entries, offsets[0] == 0
    compressed: bool = False

    def __post_init__(self) -> None:
        self.seeds = np.asarray(self.seeds, dtype=np.uint64)
        self.offsets = np.asarray(self.offsets, dtype=np.uint64)
        if len(self.offsets) != len(self.seeds) + 1:
            raise ValueError("offsets must have one more entry than seeds")
        if len(self.offsets) and int(self.offsets[0]) != 0:
            raise ValueError("offsets must start at 0")
        if np.any(self.offsets[1:] < self.offsets[:-1]):
            raise ValueError("offsets must be non-decreasing")

    @property
    def num_buckets(self) -> int:
        return len(self.seeds)

    @property
    def m_total(self) -> int:
        return int(self.offsets[-1])

    def write(self, w: Writer) -> None:
        w.u8(1 if self.compressed else 0)
        if self.compressed:
            gr = GolombRiceSeq.encode(self.seeds, rice_parameter(self.seeds))
            ef = EliasFanoSeq.encode(self.offsets.astype(np.int64))
            gr.write(w)
            ef.write(w)
        else:
            w.words(self.seeds)
            w.words(self.offsets)

    @classmethod
    def read(cls, r: Reader) -> "BucketMetaArray":
        tag = r.u8()  # the one record of the encoding
        if tag > 1:
            raise ValueError(f"unknown metadata encoding {tag}")
        if tag:
            gr = GolombRiceSeq.read(r)
            ef = EliasFanoSeq.read(r)
            return cls(gr.to_array(), ef.to_array(), compressed=True)
        seeds = r.words()
        offsets = r.words()
        return cls(seeds, offsets, compressed=False)


@dataclass
class SpaceBreakdown:
    """Serialized section sizes by component, in bits, headers included."""

    retrieval_bits: int
    metadata_bits: int
    remap_bits: int
    n: int

    @property
    def total_bits(self) -> int:
        return self.retrieval_bits + self.metadata_bits + self.remap_bits

    @property
    def per_object(self) -> float:
        return self.total_bits / self.n

    def as_dict(self) -> dict[str, float]:
        return {
            "retrieval": self.retrieval_bits / self.n,
            "metadata": self.metadata_bits / self.n,
            "remap": self.remap_bits / self.n,
            "total": self.per_object,
        }


@dataclass
class BuildStats:
    """Where a build's time went and how hard the instance was.

    Attached by :func:`build` and :func:`build_from_hashes` as
    :attr:`SicHashPhf.build_stats`; never serialized.  ``stages`` holds
    wall seconds per stage: ``hash`` (master hashing, :func:`build` only),
    ``partition`` (the keys put in the build's one order: by class, then
    bucket), ``cuckoo`` (every bucket's placement, its hash-function indices
    written back into that order), ``retrieval`` (the three stores' builds),
    ``retrieval_r1`` .. ``retrieval_r3`` (each store's build only),
    ``verify`` (the batch query and check of every key) and, in minimal
    mode, ``remap``.  The buckets, and the stores, are built in parallel on
    ``workers`` threads, so the per-store times overlap: ``retrieval`` is
    the stage's wall time, not their sum.
    """

    stages: dict[str, float]
    #: rattle-kicking displacements of the winning seeds, summed over buckets
    displacements: int
    #: bucket seed -> number of buckets placed with it
    bucket_seeds: dict[int, int]
    #: per retrieval store, keyed by r: its seed, the seeds it skipped
    #: and the slot slack epsilon it was built with
    stores: dict[int, dict]
    #: threads of the build's pool
    workers: int

    def retries(self) -> dict:
        """Seed retries and displacements as a JSON-ready dict."""
        return {
            "displacements": self.displacements,
            "bucket_seeds": {str(k): v for k, v in self.bucket_seeds.items()},
            "retrieval": {f"r{r}": info for r, info in self.stores.items()},
        }


class SicHashPhf:
    """An assembled perfect hash function.

    The constructor checks that the parts fit together, decodes the
    minimal-mode remap and derives the per-bucket start and size arrays.
    When the native module is loaded it packs those arrays, the master
    hash's seed lanes, the thresholds, the bucket seeds and each store's
    row keys and planes into a ``_native.lib.Plan``, whose methods answer
    :meth:`evaluate`, :meth:`evaluate_many` and :meth:`evaluate_hashes` in
    one call each.  The plan reads exact ``bytes`` keys only; when a key is
    not one, the plan raises :class:`TypeError` and is called again on the
    keys as :func:`~sichash.hashing._key_bytes` reads them, so both paths
    accept the same keys and raise the same errors.
    Otherwise :meth:`evaluate` composes :func:`~sichash.hashing.master_hash`
    and :meth:`evaluate_hash`, :meth:`evaluate_hashes` runs the same
    derivation in numpy and :meth:`evaluate_many` hashes the keys with
    :func:`~sichash.hashing.master_hash_many` for it; all read the same
    arrays as the native plan,
    and :meth:`evaluate_hash` is the reference the others are tested
    against.
    Nothing is written after that, so any number of threads may query one
    instance.  An empty bucket answers from offset 0 on every path, so a
    non-member key that lands in an empty last bucket stays below
    ``m_total``.

    A freshly built function carries its :class:`BuildStats` as
    ``build_stats``; a loaded, unpickled, copied or hand-assembled one has
    ``None``.
    """

    build_stats: Optional[BuildStats] = None

    def __init__(
        self,
        config: PhfConfig,
        meta: BucketMetaArray,
        stores: dict[int, RetrievalStore],
        remap: Optional[EliasFanoSeq] = None,
    ):
        if {d: s.r for d, s in stores.items()} != _R_BY_DEGREE:
            raise ValueError("need one retrieval store per class, with r = 1, 2, 3")
        n = sum(s.num_keys for s in stores.values())
        if meta.num_buckets < 1:
            raise ValueError("need at least one bucket")
        if not 1 <= n <= meta.m_total:
            raise ValueError("need 1 <= n <= m_total")
        if config.compressed_metadata != meta.compressed:
            raise ValueError("metadata encoding differs from compressed_metadata")
        if config.minimal != (remap is not None):
            raise ValueError("a minimal function needs a remap, a plain one has none")
        self.config = config
        self.meta = meta
        self.stores = stores  # keyed by degree: 2, 4, 8
        self.n = n
        self.remap = remap
        m_total = meta.m_total
        # values at or above the limit are remapped; plain values stay below it
        self._limit = n if config.minimal else m_total
        self._remap_values = (
            remap.to_array() if remap is not None else np.empty(0, dtype=np.uint64)
        )
        if len(self._remap_values) != m_total - self._limit or (
            len(self._remap_values) and int(self._remap_values.max()) >= n
        ):
            raise ValueError("remap must map each value in [n, m_total) below n")
        self._thresholds = class_thresholds(*config.fractions[:2])
        self._sizes = np.diff(meta.offsets)
        self._starts = np.where(self._sizes > 0, meta.offsets[:-1], np.uint64(0))
        lib = _native.lib
        self._query = None if lib is None else self._native_plan(lib)

    def _native_plan(self, lib):
        """The arrays :meth:`evaluate_hash` reads, packed into a ``lib.Plan``,
        which holds its own buffer on every array it reads."""

        def words(a):
            return np.ascontiguousarray(a, dtype=np.uint64)

        stores = [self.stores[d] for d in CLASS_DEGREES]
        return lib.Plan(
            *seed_lanes(self.config.global_seed),
            *self._thresholds,
            self._limit,
            self._starts,
            self._sizes,
            words(self.meta.seeds),
            self._remap_values,
            tuple((*row_keys(s.seed), s.num_slots, *map(words, s.planes)) for s in stores),
        )

    @property
    def m_total(self) -> int:
        return self.meta.m_total

    @property
    def output_range(self) -> int:
        """Size of the value range: n in minimal mode, m_total otherwise."""
        return self._limit

    # -- evaluation -------------------------------------------------------

    def evaluate(self, key: bytes) -> int:
        if self._query is not None and _native.lib is not None:
            try:
                return self._query.query(key)
            except TypeError:  # not exact bytes
                pass
            return self._query.query(_key_bytes(key))
        return self.evaluate_hash(master_hash(key, self.config.global_seed))

    def evaluate_hash(self, h: MasterHash) -> int:
        """Value of a master hash, given as a MasterHash or a (hi, lo) pair
        of integers in ``[0, 2**64)``; other halves raise
        :class:`OverflowError`, as in :meth:`evaluate_hashes`.

        The scalar reference of every query path: bucket, class, the
        class's retrieval store, the cell and the remap.
        """
        hi, lo = map(operator.index, h)
        if (hi | lo) >> 64:  # negative, or wider than 64 bits
            raise OverflowError("master hash halves must lie in [0, 2**64)")
        h = (hi, lo)
        b = bucket_of(h, self.meta.num_buckets)
        fn_index = self.stores[class_of(lo, *self._thresholds)].query(h)
        value = int(self._starts[b]) + cell_of(
            h, int(self.meta.seeds[b]), fn_index, int(self._sizes[b])
        )
        if value >= self._limit:
            return int(self._remap_values[value - self._limit])
        return value

    def evaluate_many(self, keys: Iterable[bytes]) -> np.ndarray:
        """Values of an iterable of bytes-like keys, read once.  The native
        plan hashes and answers them in one call; the Python path is
        :func:`~sichash.hashing.master_hash_many` then
        :meth:`evaluate_hashes`."""
        if self._query is not None and _native.lib is not None:
            if not isinstance(keys, (list, tuple)):
                keys = list(keys)
            values = np.empty(len(keys), dtype=np.uint64)
            try:
                self._query.query_keys(keys, values)
                return values
            except TypeError:  # a key that is not exact bytes
                pass
            self._query.query_keys([_key_bytes(key) for key in keys], values)
            return values
        hi, lo = master_hash_many(keys, self.config.global_seed)
        return self.evaluate_hashes(hi, lo)

    def evaluate_hashes(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Values of master hashes given as arrays (or sequences) of halves."""
        hi = np.ascontiguousarray(hi, dtype=np.uint64)
        lo = np.ascontiguousarray(lo, dtype=np.uint64)
        if hi.ndim != 1 or hi.shape != lo.shape:
            raise ValueError("hi and lo must be 1-d and of equal length")
        if self._query is not None and _native.lib is not None:
            values = np.empty(len(hi), dtype=np.uint64)
            self._query.query_hashes(hi, lo, values)
            return values
        t1, t2 = self._thresholds
        degrees = class_of_many(lo, t1, t2)
        b = bucket_of_many(hi, self.meta.num_buckets).astype(np.int64)
        fn = np.zeros(len(hi), dtype=np.uint64)
        for degree, store in self.stores.items():
            mask = degrees == degree
            if mask.any():
                fn[mask] = store.query_many(hi[mask], lo[mask])
        m_b = self._sizes[b]
        values = self._starts[b] + cell_of_many(hi, lo, self.meta.seeds[b], fn, m_b)
        limit = np.uint64(self._limit)
        over = values >= limit
        if over.any():
            values[over] = self._remap_values[(values[over] - limit).astype(np.int64)]
        return values

    # -- space accounting -------------------------------------------------

    def _sections(self) -> tuple[bytes, list[bytes], bytes]:
        meta = self.meta.to_bytes()
        stores = [self.stores[d].to_bytes() for d in CLASS_DEGREES]
        remap = self.remap.to_bytes() if self.remap is not None else b""
        return meta, stores, remap

    def space_breakdown(self) -> SpaceBreakdown:
        meta, stores, remap = self._sections()
        return SpaceBreakdown(
            retrieval_bits=8 * sum(len(s) for s in stores),
            metadata_bits=8 * len(meta),
            remap_bits=8 * len(remap),
            n=self.n,
        )

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        w = Writer()
        w.magic(_MAGIC)
        cfg = self.config
        w.u8(1 if cfg.minimal else 0)
        w.f64(cfg.alpha)
        w.f64(cfg.beta)
        w.f64(cfg.x)
        w.u64(cfg.bucket_size)
        w.u64(cfg.global_seed)
        meta, stores, remap = self._sections()
        for section in (meta, *stores):
            w.blob(section)
        if cfg.minimal:
            w.blob(remap)
        payload = w.getvalue()
        return payload + crc32(payload).to_bytes(4, "little")

    def __reduce__(self):
        """Pickle and copy through the blob: an unpickled or copied function
        is ``from_bytes(to_bytes())``, which gives the same values on every
        path.  Its ``build_stats`` is None, as on any loaded function."""
        return self.from_bytes, (self.to_bytes(),)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SicHashPhf":
        """Load a blob from any bytes-like object.  The checksum and the
        sections are read through views of ``data``; only the word arrays
        are copied, so the function keeps no reference to ``data``."""
        view = memoryview(data).cast("B")
        if len(view) < 12:
            raise DeserializationError("truncated blob")
        payload, crc = view[:-4], view[-4:]
        if crc32(payload) != int.from_bytes(crc, "little"):
            raise DeserializationError("checksum mismatch")
        r = Reader(payload)
        r.magic(_MAGIC)
        flags = r.u8()
        if flags & ~1:
            raise DeserializationError(f"unknown header flags {flags:#04x}")
        minimal = bool(flags)
        try:
            alpha, beta, x = r.f64(), r.f64(), r.f64()
            bucket_size, global_seed = r.u64(), r.u64()
            meta = BucketMetaArray.from_bytes(r.blob())
            stores = {d: RetrievalStore.from_bytes(r.blob()) for d in CLASS_DEGREES}
            remap = EliasFanoSeq.from_bytes(r.blob()) if minimal else None
            r.expect_end()
            config = PhfConfig(
                alpha, beta, x, bucket_size, global_seed,
                minimal=minimal, compressed_metadata=meta.compressed,
            )
            return cls(config, meta, stores, remap)
        except ValueError as exc:
            raise DeserializationError(f"invalid blob: {exc}") from exc


def injectivity_failure(values: np.ndarray, limit: int) -> str | None:
    """Why ``values`` are not distinct values in ``[0, limit)``, or None.
    With n values and ``limit == n`` they then form a permutation.
    One sort decides, whatever ``limit``; the ``argsort`` that names the
    colliding keys runs only on failure."""
    bad = np.flatnonzero(values >= limit)
    if len(bad):
        i = int(bad[0])
        return f"key {i} maps to {int(values[i])} >= {limit}"
    ordered = np.sort(values)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    order = np.argsort(values, kind="stable")
    dup = np.flatnonzero(values[order][1:] == values[order][:-1])
    i, j = int(order[dup[0]]), int(order[dup[0] + 1])
    return f"keys {i} and {j} collide at value {int(values[i])}"


def build(
    keys: Sequence[bytes],
    config: PhfConfig,
    *,
    max_bucket_seeds: int = DEFAULT_MAX_BUCKET_SEEDS,
) -> SicHashPhf:
    """Build a perfect hash function over a non-empty set of distinct keys.

    Raises as :func:`build_from_hashes` does.
    """
    t0 = time.perf_counter()
    hi, lo = master_hash_many(keys, config.global_seed)
    hash_s = time.perf_counter() - t0
    phf = build_from_hashes(hi, lo, config, max_bucket_seeds=max_bucket_seeds)
    phf.build_stats.stages = {"hash": hash_s, **phf.build_stats.stages}
    return phf


def build_from_hashes(
    hi: np.ndarray,
    lo: np.ndarray,
    config: PhfConfig,
    *,
    max_bucket_seeds: int = DEFAULT_MAX_BUCKET_SEEDS,
) -> SicHashPhf:
    """Build from precomputed master hashes, in either mode.

    The function is assembled plain and queried once over every key, as
    users query it; a minimal function's remap is chosen from those values.
    Raises :class:`ValueError` for an empty or repeated key set, and
    :class:`ConstructionError` when a bucket cannot be placed at this load
    factor or the values are not distinct values below ``m_total``.
    Repeats are looked for only where they show: after a bucket's first
    failed seed, and after a retrieval solve with a dependent row.
    The buckets, then the three stores, are built on a pool of
    ``_WORKERS`` threads at most, shut down before this returns or
    raises; the function and any error are those of a build on one thread.
    """
    # a function of its own, so that the plain assembly's per-key arrays are
    # freed before the batch query (held, they cost ~20 MB of peak RSS in
    # repeated 1e6-key minimal builds)
    phf = _build_plain(hi, lo, config, max_bucket_seeds)
    stages = phf.build_stats.stages
    t0 = time.perf_counter()
    values = phf.evaluate_hashes(hi, lo)
    # the values' occupancy map: perfect when all are below the limit and
    # the map holds one mark per key; injectivity_failure names the keys
    limit = phf.output_range
    seen = np.zeros(limit, dtype=bool)
    if int(values.max()) < limit:
        seen[values] = True
    if np.count_nonzero(seen) != len(values):
        failure = injectivity_failure(values, limit)
        raise ConstructionError(f"internal error: built function is not perfect: {failure}")
    t1 = time.perf_counter()
    stages["verify"] = t1 - t0
    if config.minimal:
        phf = _attach_remap(phf, seen)
        stages["remap"] = time.perf_counter() - t1
    return phf


class _Partition(NamedTuple):
    """The build's master hashes in its one order: by class, then bucket,
    then input order."""

    hi: np.ndarray
    lo: np.ndarray
    #: the entries of class index c (degree ``2 << c``) in bucket b are
    #: bounds[k] .. bounds[k + 1] - 1, with k = c * num_buckets + b
    bounds: list[int]


def _partition(hi: np.ndarray, lo: np.ndarray, num_buckets: int, t1: int, t2: int) -> _Partition:
    """The master hashes by class (:func:`class_of_many` under thresholds
    ``t1 <= t2``), then bucket (:func:`bucket_of_many`), then input order:
    each class is one run, its store's rows, and each bucket's entries of a
    class are one run within it.

    One call of the native kernel ``partition`` counting-sorts them; when
    :data:`sichash._native.lib` is None, one stable numpy sort by the same
    key gives the same arrays, as fallback and as the reference the tests
    compare the kernel against.
    """
    hi, lo = (np.ascontiguousarray(a, dtype=np.uint64) for a in (hi, lo))
    num_keys = len(CLASS_DEGREES) * num_buckets
    lib = _native.lib
    if lib is not None:
        hi_out, lo_out = np.empty_like(hi), np.empty_like(lo)
        counts = np.empty(num_keys, dtype=np.int64)
        lib.partition(hi, lo, t1, t2, hi_out, lo_out, counts)
    else:
        # degree >> 2 is the class index; one narrowest-dtype key serves the
        # sort and the bincount, and its stable sort is a radix sort
        key = bucket_of_many(hi, num_buckets)
        key += (class_of_many(lo, t1, t2) >> 2) * np.uint64(num_buckets)
        key = key.astype(np.min_scalar_type(num_keys - 1))
        order = np.argsort(key, kind="stable")
        hi_out, lo_out = hi[order], lo[order]
        counts = np.bincount(key, minlength=num_keys)
    return _Partition(hi_out, lo_out, [0, *np.cumsum(counts).tolist()])


def _build_plain(
    hi: np.ndarray, lo: np.ndarray, config: PhfConfig, max_bucket_seeds: int
) -> SicHashPhf:
    n = len(hi)
    if n < 1:
        raise ValueError("key set must be non-empty")
    t0 = time.perf_counter()
    num_buckets = max(1, round(n / config.bucket_size))
    part = _partition(hi, lo, num_buckets, *class_thresholds(*config.fractions[:2]))
    t1 = time.perf_counter()
    stages = {"partition": t1 - t0}
    workers = min(_WORKERS, max(num_buckets, len(CLASS_DEGREES)))
    # pending tasks are cancelled when a stage raises; running ones finish
    # before the build returns or raises
    pool = ThreadPoolExecutor(workers, thread_name_prefix="sichash-build")
    try:
        fn, seeds, offsets, displacements = _place_buckets(
            pool, part, config.alpha, max_bucket_seeds
        )
        t0 = time.perf_counter()
        stages["cuckoo"] = t0 - t1
        # the store of r holds entries class_bounds[r - 1] .. class_bounds[r] - 1
        class_bounds = part.bounds[::num_buckets]

        def solve(r):
            t = time.perf_counter()
            rows = slice(class_bounds[r - 1], class_bounds[r])
            store = RetrievalStore.build(
                (part.hi[rows], part.lo[rows]), fn[rows], r, base_seed=config.global_seed
            )
            return store, time.perf_counter() - t

        # submitted largest first, read in r order: the lowest failing r raises
        rs = _R_BY_DEGREE.values()
        largest_first = sorted(rs, key=lambda r: class_bounds[r - 1] - class_bounds[r])
        futures = {r: pool.submit(solve, r) for r in largest_first}
        solved = {r: futures[r].result() for r in rs}
    finally:
        pool.shutdown(cancel_futures=True)
    stages["retrieval"] = time.perf_counter() - t0
    stores: dict[int, RetrievalStore] = {}
    store_stats: dict[int, dict] = {}
    for degree, r in _R_BY_DEGREE.items():
        store, stages[f"retrieval_r{r}"] = solved[r]
        stores[degree] = store
        store_stats[r] = {
            "seed": store.seed,
            # the attempt count: seeds wrap modulo 2**64
            "seed_retries": (store.seed - config.global_seed) & MASK64,
            "epsilon": EPSILON,
        }

    meta = BucketMetaArray(seeds, offsets, compressed=config.compressed_metadata)
    cfg_plain = dataclasses.replace(config, minimal=False)
    phf = SicHashPhf(cfg_plain, meta, stores)
    used, counts = np.unique(seeds, return_counts=True)
    phf.build_stats = BuildStats(
        stages, displacements, dict(zip(used.tolist(), counts.tolist())), store_stats, workers
    )
    return phf


def _place_buckets(
    pool: ThreadPoolExecutor, part: _Partition, alpha: float, max_bucket_seeds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every bucket's placement, one :func:`build_bucket` task per bucket on
    ``pool``: the hash-function indices in the partition's order, the seeds,
    the table offsets and the summed displacements.

    A bucket's entries are its three class runs, degree 2 first, placed in
    that order.  Each task writes its bucket's indices back into those
    runs, and its seed and displacements, itself.
    Tasks are read in bucket order, so the lowest failing bucket's error is
    raised, as in a loop over the buckets.  A bucket above a failed one
    does not start.
    """
    bounds = part.bounds
    num_buckets = (len(bounds) - 1) // len(CLASS_DEGREES)
    # bucket b's run of class index c is the partition's run c * num_buckets + b
    runs = [
        [(bounds[k], bounds[k + 1]) for k in range(b, len(bounds) - 1, num_buckets)]
        for b in range(num_buckets)
    ]
    sizes = [sum(z - a for a, z in r) for r in runs]
    tables = [max(n_b, round(n_b / alpha)) if n_b else 0 for n_b in sizes]
    fn = np.empty(bounds[-1], dtype=np.uint8)
    seeds = np.zeros(num_buckets, dtype=np.uint64)
    displacements = [0] * num_buckets
    failed: list[int] = []  # appended to by the tasks, which min() reads whole
    class_degrees = np.array(CLASS_DEGREES, dtype=np.uint8)

    def place(b):
        if failed and b > min(failed):
            return  # a lower bucket's error is raised
        inp = BucketInput(
            np.concatenate([part.hi[a:z] for a, z in runs[b]]),
            np.concatenate([part.lo[a:z] for a, z in runs[b]]),
            np.repeat(class_degrees, [z - a for a, z in runs[b]]),
            tables[b],
        )
        try:
            result = build_bucket(inp, max_seeds=max_bucket_seeds)
        except Exception:
            failed.append(b)
            raise
        at = 0
        for a, z in runs[b]:
            fn[a:z] = result.assignments[at : at + z - a]
            at += z - a
        seeds[b] = result.seed
        displacements[b] = result.displacements

    futures = [pool.submit(place, b) for b in range(num_buckets)]
    # one wake-up, not one per bucket
    wait(futures, return_when=FIRST_EXCEPTION)
    for b, future in enumerate(futures):
        try:
            future.result()
        except ConstructionError as exc:
            raise ConstructionError(
                f"construction failed: alpha too aggressive (bucket {b}: {exc})"
            ) from exc
    offsets = np.array([0, *itertools.accumulate(tables)], dtype=np.uint64)
    return fn, seeds, offsets, sum(displacements)


def _attach_remap(phf: SicHashPhf, seen: np.ndarray) -> SicHashPhf:
    """The minimal function (range [0, n)) of a plain one, given the
    occupancy map of its values on the keys: ``m_total`` bools, n of them
    set, one at each key's distinct value.

    Values at or above n are re-mapped onto the unused values below n
    by rank; the mapping array has one slot per value in [n, m_total)
    and is Elias-Fano coded (don't-care slots repeat the previous entry
    to keep the sequence monotone).
    """
    n, m = phf.n, phf.m_total
    holes = np.flatnonzero(~seen[:n])
    high = np.flatnonzero(seen[n:])  # ascending, as the holes are
    slots = np.full(m - n, -1, dtype=np.int64)
    slots[high] = holes
    slots = np.maximum.accumulate(slots)
    slots[slots < 0] = holes[0] if len(holes) else 0
    remap = EliasFanoSeq.encode(slots)
    cfg = dataclasses.replace(phf.config, minimal=True)
    out = SicHashPhf(cfg, phf.meta, phf.stores, remap=remap)
    out.build_stats = phf.build_stats
    return out
