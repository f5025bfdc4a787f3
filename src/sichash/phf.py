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

    SICPHF01 | u8 flags | f64 alpha,beta,x | u64 bucket_size |
    u64 global_seed | f64 epsilon_r | u64 n | u64 m_total |
    meta blob | u8 store_count | store blobs | u8 has_remap |
    [remap blob] | u32 crc32
"""

from __future__ import annotations

import dataclasses
import time
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._wire import Codec, Reader, Writer
from .cuckoo import (
    DEFAULT_MAX_BUCKET_SEEDS,
    BucketInput,
    build_bucket,
)
from .errors import ConstructionError, DeserializationError
from .hashing import (
    CLASS_DEGREES,
    MasterHash,
    bucket_of,
    bucket_of_many,
    cell_at,
    cell_key,
    cell_of,  # noqa: F401  (cell_of, master_hash: perfbench/tracing.py wraps them)
    cell_of_many,
    check_distinct,
    class_of_many,
    class_thresholds,
    fold_hash,
    keyed_blake2b,
    master_hash,  # noqa: F401
    master_hash_many,
    split_digest,
)
from .retrieval import RetrievalStore, fetch
from .succinct import EliasFanoSeq, GolombRiceSeq, rice_parameter

_MAGIC = b"SICPHF01"

_R_BY_DEGREE = {d: r for r, d in enumerate(CLASS_DEGREES, 1)}
_DEGREE_BY_R = {r: d for d, r in _R_BY_DEGREE.items()}


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
    mixes.  ``epsilon_r`` is the retrieval slot slack and
    ``compressed_metadata`` switches bucket metadata serialization from
    plain arrays to Elias-Fano offsets plus Golomb-Rice seeds.
    """

    alpha: float
    beta: float = 2.0
    x: float = 0.5
    bucket_size: int = 5000
    global_seed: int = 0
    minimal: bool = False
    epsilon_r: float = 0.10
    compressed_metadata: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        if self.epsilon_r < 0:
            raise ValueError("epsilon_r must be non-negative")
        class_fractions(self.beta, self.x)  # validates beta and x

    @property
    def fractions(self) -> tuple[float, float, float]:
        return class_fractions(self.beta, self.x)

    @property
    def p1(self) -> float:
        return self.fractions[0]

    @property
    def p2(self) -> float:
        return self.fractions[1]

    @property
    def p3(self) -> float:
        return self.fractions[2]


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
        if np.any(np.diff(self.offsets.astype(np.int64)) < 0):
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
        if r.u8() == 1:
            gr = GolombRiceSeq.read(r)
            ef = EliasFanoSeq.read(r)
            return cls(gr.to_array(), ef.to_array(), compressed=True)
        seeds = r.words()
        offsets = r.words()
        return cls(seeds, offsets, compressed=False)


@dataclass
class SpaceBreakdown:
    """Serialized payload sizes by component, in bits."""

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
    ``partition`` (distinctness check and bucket/class split),
    ``cuckoo`` (every bucket's placement and self-check),
    ``retrieval_r1`` .. ``retrieval_r3`` and, in minimal mode, ``remap``.
    """

    stages: dict[str, float]
    #: rattle-kicking displacements of the winning seeds, summed over buckets
    displacements: int
    #: bucket seed -> number of buckets placed with it
    bucket_seeds: dict[int, int]
    #: per retrieval store, keyed by r: its seed, the seeds it skipped
    #: and the slot slack epsilon it was built with
    stores: dict[int, dict]

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
    minimal-mode remap and builds the scalar query plan: plain Python
    constants (class thresholds, per-bucket offset, size and seed, each
    store's :attr:`~sichash.retrieval.RetrievalStore.plan`, a view of the
    decoded remap) and a pre-keyed BLAKE2b state.  Nothing is written after
    that, so any number of threads may query one instance.  An empty
    bucket answers from offset 0 on both paths, so a non-member key that
    lands in an empty last bucket stays below ``m_total``.

    A freshly built function carries its :class:`BuildStats` as
    ``build_stats``; a loaded or hand-assembled one has ``None``.
    """

    build_stats: Optional[BuildStats] = None

    def __init__(
        self,
        config: PhfConfig,
        meta: BucketMetaArray,
        stores: dict[int, RetrievalStore],
        n: int,
        remap: Optional[EliasFanoSeq] = None,
    ):
        if {d: s.r for d, s in stores.items()} != _R_BY_DEGREE:
            raise ValueError("need one retrieval store per class, with r = 1, 2, 3")
        if sum(s.num_keys for s in stores.values()) != n:
            raise ValueError("retrieval stores do not hold n keys in total")
        if meta.num_buckets < 1:
            raise ValueError("need at least one bucket")
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
        self._thresholds = class_thresholds(config.p1, config.p2)
        self._sizes = np.diff(meta.offsets)
        self._starts = np.where(self._sizes > 0, meta.offsets[:-1], np.uint64(0))
        buckets = list(
            zip(self._starts.tolist(), self._sizes.tolist(), meta.seeds.tolist())
        )
        self._hasher = keyed_blake2b(config.global_seed)
        self._plan = (
            *self._thresholds,
            meta.num_buckets,
            buckets,
            stores[2].plan,
            stores[4].plan,
            stores[8].plan,
            self._limit,
            memoryview(self._remap_values),  # indexes to ints without a copy
        )

    @property
    def m_total(self) -> int:
        return self.meta.m_total

    @property
    def output_range(self) -> int:
        """Size of the value range: n in minimal mode, m_total otherwise."""
        return self.n if self.config.minimal else self.m_total

    # -- evaluation -------------------------------------------------------

    def evaluate(self, key: bytes) -> int:
        h = self._hasher.copy()
        h.update(key)
        return self.evaluate_hash(split_digest(h.digest()))

    def evaluate_hash(self, h: MasterHash) -> int:
        """Value of a master hash, given as a MasterHash or a (hi, lo) pair."""
        t1, t2, num_buckets, buckets, row2, row4, row8, limit, remap = self._plan
        hi, lo = h
        off, m_b, seed = buckets[bucket_of(h, num_buckets)]
        folded = fold_hash(h)
        fn_index = fetch(row2 if lo < t1 else row4 if lo < t2 else row8, hi, folded)
        value = off + cell_at(folded, cell_key(seed, fn_index), m_b)
        return remap[value - limit] if value >= limit else value

    def evaluate_many(self, keys: Sequence[bytes]) -> np.ndarray:
        hi, lo = master_hash_many(keys, self.config.global_seed)
        return self.evaluate_hashes(hi, lo)

    def evaluate_hashes(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
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
        stores = [self.stores[d].to_bytes() for d in sorted(self.stores)]
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

    def bits_per_object(self) -> float:
        return self.space_breakdown().per_object

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        w = Writer()
        w.magic(_MAGIC)
        cfg = self.config
        flags = (1 if cfg.minimal else 0) | (2 if cfg.compressed_metadata else 0)
        w.u8(flags)
        w.f64(cfg.alpha)
        w.f64(cfg.beta)
        w.f64(cfg.x)
        w.u64(cfg.bucket_size)
        w.u64(cfg.global_seed)
        w.f64(cfg.epsilon_r)
        w.u64(self.n)
        w.u64(self.m_total)
        meta, stores, remap = self._sections()
        w.blob(meta)
        w.u8(len(stores))
        for s in stores:
            w.blob(s)
        w.u8(1 if remap else 0)
        if remap:
            w.blob(remap)
        payload = w.getvalue()
        return payload + zlib.crc32(payload).to_bytes(4, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SicHashPhf":
        if len(data) < 12:
            raise DeserializationError("truncated blob")
        payload, crc = data[:-4], data[-4:]
        if zlib.crc32(payload) != int.from_bytes(crc, "little"):
            raise DeserializationError("checksum mismatch")
        r = Reader(payload)
        r.magic(_MAGIC)
        flags = r.u8()
        try:
            config = PhfConfig(
                alpha=r.f64(),
                beta=r.f64(),
                x=r.f64(),
                bucket_size=r.u64(),
                global_seed=r.u64(),
                epsilon_r=r.f64(),
                minimal=bool(flags & 1),
                compressed_metadata=bool(flags & 2),
            )
            n = r.u64()
            m_total = r.u64()
            meta = BucketMetaArray.from_bytes(r.blob())
            stores: dict[int, RetrievalStore] = {}
            for _ in range(r.u8()):
                store = RetrievalStore.from_bytes(r.blob())
                degree = _DEGREE_BY_R[store.r]
                if degree in stores:
                    raise DeserializationError(f"two retrieval stores with r={store.r}")
                stores[degree] = store
            remap = None
            if r.u8():
                remap = EliasFanoSeq.from_bytes(r.blob())
            r.expect_end()
            if meta.m_total != m_total:
                raise DeserializationError("inconsistent table sizes")
            return cls(config, meta, stores, n, remap)
        except ValueError as exc:
            raise DeserializationError(f"invalid blob: {exc}") from exc


def build(
    keys: Sequence[bytes],
    config: PhfConfig,
    *,
    max_bucket_seeds: int = DEFAULT_MAX_BUCKET_SEEDS,
) -> SicHashPhf:
    """Build a perfect hash function over a non-empty set of distinct keys.

    Raises :class:`ValueError` for an empty or repeated key set (from
    :func:`build_from_hashes`) and :class:`ConstructionError` when a bucket
    cannot be placed at this load factor.
    """
    t0 = time.perf_counter()
    hi, lo = master_hash_many(keys, config.global_seed)
    t1 = time.perf_counter()
    phf = build_from_hashes(hi, lo, config, max_bucket_seeds=max_bucket_seeds)
    stats = phf.build_stats
    stats.stages = {"hash": t1 - t0, **stats.stages}
    if config.minimal:
        t0 = time.perf_counter()
        phf = _attach_remap(phf, phf.evaluate_hashes(hi, lo))
        stats.stages["remap"] = time.perf_counter() - t0
    return phf


def build_from_hashes(
    hi: np.ndarray,
    lo: np.ndarray,
    config: PhfConfig,
    *,
    max_bucket_seeds: int = DEFAULT_MAX_BUCKET_SEEDS,
) -> SicHashPhf:
    """Build from precomputed master hashes (non-minimal assembly)."""
    n = len(hi)
    if n < 1:
        raise ValueError("key set must be non-empty")
    t0 = time.perf_counter()
    check_distinct(hi, lo)

    num_buckets = max(1, round(n / config.bucket_size))
    buckets = bucket_of_many(hi, num_buckets).astype(np.int64)
    t1, t2 = class_thresholds(config.p1, config.p2)
    degrees = class_of_many(lo, t1, t2)

    # a stable sort of the narrowest dtype is a radix sort: same order, faster
    order = np.argsort(buckets.astype(np.min_scalar_type(num_buckets - 1)), kind="stable")
    hi_s, lo_s, deg_s = hi[order], lo[order], degrees[order]
    counts = np.bincount(buckets, minlength=num_buckets)
    bounds = np.concatenate([[0], np.cumsum(counts)])

    seeds = np.zeros(num_buckets, dtype=np.uint64)
    offsets = np.zeros(num_buckets + 1, dtype=np.uint64)
    fn_values = np.zeros(n, dtype=np.uint8)
    alpha = config.alpha
    total = 0
    displacements = 0
    t1 = time.perf_counter()
    stages = {"partition": t1 - t0}
    for b in range(num_buckets):
        a, z = int(bounds[b]), int(bounds[b + 1])
        n_b = z - a
        m_b = max(n_b, round(n_b / alpha)) if n_b else 0
        inp = BucketInput(hi_s[a:z], lo_s[a:z], deg_s[a:z], m_b)
        try:
            result = build_bucket(inp, max_seeds=max_bucket_seeds)
        except ConstructionError as exc:
            raise ConstructionError(
                f"construction failed: alpha too aggressive (bucket {b}: {exc})"
            ) from exc
        seeds[b] = result.seed
        fn_values[a:z] = result.assignments
        displacements += result.displacements
        total += m_b
        offsets[b + 1] = total
    t0 = time.perf_counter()
    stages["cuckoo"] = t0 - t1

    stores: dict[int, RetrievalStore] = {}
    store_stats: dict[int, dict] = {}
    for degree, r in _R_BY_DEGREE.items():
        mask = deg_s == degree
        store = stores[degree] = RetrievalStore.build(
            (hi_s[mask], lo_s[mask]),
            fn_values[mask],
            r,
            epsilon=config.epsilon_r,
            base_seed=config.global_seed,
        )
        t1 = time.perf_counter()
        stages[f"retrieval_r{r}"] = t1 - t0
        t0 = t1
        store_stats[r] = {
            "seed": store.seed,
            "seed_retries": store.seed - config.global_seed,
            "epsilon": config.epsilon_r,
        }

    meta = BucketMetaArray(seeds, offsets, compressed=config.compressed_metadata)
    cfg_plain = dataclasses.replace(config, minimal=False)
    phf = SicHashPhf(cfg_plain, meta, stores, n)
    used, counts = np.unique(seeds, return_counts=True)
    phf.build_stats = BuildStats(
        stages, displacements, dict(zip(used.tolist(), counts.tolist())), store_stats
    )
    return phf


def minimize(phf: SicHashPhf, keys: Sequence[bytes]) -> SicHashPhf:
    """Convert a perfect hash function into a minimal one (range [0, n)).

    Values at or above n are re-mapped onto the unused values below n
    by rank; the mapping array has one slot per value in [n, m_total)
    and is Elias-Fano coded (don't-care slots repeat the previous entry
    to keep the sequence monotone).
    """
    if phf.config.minimal:
        return phf
    values = phf.evaluate_many(keys)
    return _attach_remap(phf, values)


def _attach_remap(phf: SicHashPhf, values: np.ndarray) -> SicHashPhf:
    n, m = phf.n, phf.m_total
    if m < n:
        raise ValueError("output range smaller than key count")
    values = values.astype(np.int64)
    hit = np.zeros(n, dtype=bool)
    hit[values[values < n]] = True
    holes = np.flatnonzero(~hit).astype(np.int64)
    high = np.sort(values[values >= n]) - n
    if len(high) != len(holes):
        raise ConstructionError("internal error: hole/overflow count mismatch")
    slots = np.full(m - n, -1, dtype=np.int64)
    slots[high] = holes
    slots = np.maximum.accumulate(slots)
    slots[slots < 0] = holes[0] if len(holes) else 0
    remap = EliasFanoSeq.encode(slots)
    cfg = dataclasses.replace(phf.config, minimal=True)
    out = SicHashPhf(cfg, phf.meta, phf.stores, n, remap=remap)
    out.build_stats = phf.build_stats
    return out
