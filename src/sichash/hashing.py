"""Seeded hashing and index derivation.

Each key is hashed exactly once into a 128-bit master hash (two 64-bit
halves).  Everything downstream — bucket index, class, candidate cell
indices, retrieval equations — is derived from those halves by cheap
multiply-xorshift remixing, so both construction and queries scan the
key bytes a single time and agree bit for bit.  This module owns every
derivation constant: the per-function cell keys (:func:`cell_key`) and
the retrieval row keys (:func:`row_keys`) are defined here once.

The master hash is defined here, not ported: the key is read as
little-endian 8-byte words, its tail zero-padded, and each 16-byte block
updates two 64-bit lanes with one 64x64->128-bit multiply whose halves
are folded back into them.  The lanes start from the global seed
(:func:`seed_lanes`); the key's length is mixed in after the last block,
and :func:`mix64` finalizes both halves.  It needs no cryptographic
property: keys are not adversarial, and a caller can change the seed.
:func:`master_hash` is the pure-Python reference.
:func:`master_hash_many` runs the batch kernel of the package's native
extension module, :data:`sichash._native.lib`, and the reference loop
when that is None.  No kernel holds a derivation constant: the batch hash
and the query plan take the seed's lanes from :func:`seed_lanes` and
mix64's multipliers as keywords, the query plan, the cuckoo placement
and the retrieval build get their constants from this module
(:data:`QUERY_CONSTANTS`), the plan and the placement derive cells with
one C copy of :func:`cell_of`, and the plan and the build derive a
store's rows, under its :func:`row_keys`, with one C copy of
``retrieval._rows_many``.

Hash-to-range mapping is :func:`umulhi`, the fixed-point multiplication
``(h * m) >> 64`` instead of a modulo; the bias is at most ``m / 2**64``.

:func:`mix64`, :func:`fold_hash`, :func:`cell_key`, :func:`cell_at` and
:func:`umulhi` serve both paths: they take Python ints or uint64 arrays
(numpy casts the int constants to uint64 and wraps), and a hash as a
(hi, lo) pair of either.  The ``*_many`` functions build on them.
"""

from __future__ import annotations

import operator
import struct
from array import array
from typing import Iterable, NamedTuple

import numpy as np

from . import _native

MASK64 = 0xFFFFFFFFFFFFFFFF
MASK32 = 0xFFFFFFFF

# splitmix64 finalizer constants
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
# golden-ratio increment, used to spread seed values
_GOLDEN = 0x9E3779B97F4A7C15
# multiplier folding the high half into the low half for cell derivation
_FOLD = 0xFF51AFD7ED558CCD
_CELL_SALT = 0xD1B54A32D192ED03
# retrieval row derivation: a second seed multiplier, and salts separating
# the start-position and coefficient keys
_ROW_MULT = 0xC2B2AE3D27D4EB4F
_START_SALT = 0xA24BAED4963EE407
_COEFF_SALT = 0x9FB21C651E98DF25
# the master hash's two lanes start from mix64 of the seed under these salts
_LANE_A = 0xD29ED28196C194BF
_LANE_B = 0xB92F5E7CF6C8D93B

#: the constants of a scalar query, of a bucket's cells and of a store's
#: rows, by keyword of the native query plan, placement and store build:
#: mix64's multipliers, cell_key's seed spreader and salt, and fold_hash's
#: multiplier (a store's row keys come from :func:`row_keys`)
QUERY_CONSTANTS = dict(m1=_M1, m2=_M2, golden=_GOLDEN, fold=_FOLD, cell_salt=_CELL_SALT)

#: candidate-cell counts for the three key classes
CLASS_DEGREES = (2, 4, 8)


class MasterHash(NamedTuple):
    """128-bit fingerprint of a key under a fixed global seed."""

    hi: int
    lo: int


def mix64(x):
    """splitmix64 finalizer: bijective, strong avalanche; leaves an array as it is."""
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def seed_lanes(seed: int) -> tuple[int, int]:
    """The master hash's two lanes before any key block, from the 64-bit
    global seed; a seed outside ``[0, 2**64)`` raises :class:`OverflowError`."""
    seed = operator.index(seed)
    if seed < 0 or seed > MASK64:
        raise OverflowError("seed must lie in [0, 2**64)")
    return mix64(seed ^ _LANE_A), mix64(seed ^ _LANE_B)


def _key_bytes(key) -> bytes:
    """A key's bytes: any C-contiguous buffer of at most one dimension, as
    the native kernels read it; str, int and None raise TypeError."""
    if type(key) is bytes:
        return key
    with memoryview(key) as view:
        if view.ndim > 1 or not view.c_contiguous:
            raise BufferError("a key must be a C-contiguous buffer of at most one dimension")
        return view.tobytes()


def _hash_bytes(data: bytes, a: int, b: int) -> MasterHash:
    """The master hash of a key's bytes from the seed's lanes (a, b)."""
    n = len(data)
    words = struct.unpack(f"<{(n + 15) // 16 * 2}Q", data + bytes(-n % 16))
    for i in range(0, len(words), 2):
        x = a ^ words[i]
        y = b ^ words[i + 1]
        p = x * y
        a = ((p >> 64) + x) & MASK64
        b = (p ^ (y << 32) ^ (y >> 32)) & MASK64  # lo(p) ^ rotl(y, 32)
    b = ((b ^ n) + a) & MASK64
    a ^= ((b << 32) | (b >> 32)) & MASK64
    return MasterHash(mix64(a), mix64(b))


def master_hash(key: bytes, seed: int) -> MasterHash:
    """Hash a bytes-like key into 128 bits under the 64-bit global seed."""
    return _hash_bytes(_key_bytes(key), *seed_lanes(seed))


def master_hash_many(
    keys: Iterable[bytes], seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`master_hash`; returns (hi, lo) uint64 arrays.

    Any iterable of bytes-like keys is accepted; it is read once.  The
    native kernel reads each key as :func:`master_hash` does, an exact
    ``bytes`` object in place and any other key through its buffer, so
    both paths give the same hashes and raise the same errors.
    """
    if not isinstance(keys, (list, tuple)):
        keys = list(keys)
    a, b = seed_lanes(seed)
    lib = _native.lib
    if lib is None:
        # hashes are appended to one array: a MasterHash per key for all
        # keys at once would hold ~100 MB at 1e6 keys
        flat = array("Q")
        for key in keys:
            flat.extend(_hash_bytes(_key_bytes(key), a, b))
        pairs = np.frombuffer(flat, dtype=np.uint64).reshape(-1, 2)
        return np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])
    hi = np.empty(len(keys), dtype=np.uint64)
    lo = np.empty(len(keys), dtype=np.uint64)
    lib.master_hash_batch(keys, a, b, hi, lo, m1=_M1, m2=_M2)
    return hi, lo


def hash_backend() -> str:
    """Which path :func:`master_hash_many` takes: "native" when the native
    library loaded, "python" otherwise."""
    return "python" if _native.lib is None else "native"


# ---------------------------------------------------------------------------
# derivation: bucket / class / cell


def umulhi(a, b):
    """High 64 bits of the 64x64 product: ``(a * b) >> 64`` of two ints,
    elementwise otherwise."""
    if isinstance(a, int) and isinstance(b, int):
        return (a * b) >> 64
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    ah = a >> np.uint64(32)
    al = a & np.uint64(MASK32)
    if b.size and int(b.max()) <= MASK32:
        # b < 2**32 (every table and slot count in practice): neither
        # partial product nor their sum can wrap
        return (ah * b + ((al * b) >> np.uint64(32))) >> np.uint64(32)
    bh = b >> np.uint64(32)
    bl = b & np.uint64(MASK32)
    t = al * bl
    mid1 = ah * bl + (t >> np.uint64(32))
    mid2 = al * bh + (mid1 & np.uint64(MASK32))
    return ah * bh + (mid1 >> np.uint64(32)) + (mid2 >> np.uint64(32))


def bucket_of(h: MasterHash, num_buckets: int) -> int:
    """Bucket index in [0, num_buckets), uniform, from the high half."""
    return umulhi(h[0], num_buckets)


def class_thresholds(p1: float, p2: float) -> tuple[int, int]:
    """64-bit comparison thresholds for the class split.

    Quantization error of the fractions is below 2**-32.
    """
    if p1 < 0 or p2 < 0 or p1 + p2 > 1 + 1e-9:
        raise ValueError("class fractions must be non-negative with p1+p2 <= 1")
    t1 = min(int(p1 * 2.0**64), MASK64)
    t2 = min(int((p1 + p2) * 2.0**64), MASK64)
    return t1, max(t1, t2)


def class_of(lo: int, t1: int, t2: int) -> int:
    """Degree (2, 4 or 8) of a low half, given thresholds ``t1 <= t2`` as
    :func:`class_thresholds` returns them."""
    # the class index is the number of thresholds at or below lo
    return 2 << ((lo >= t1) + (lo >= t2))


def cell_key(bucket_seed, fn_index):
    """Key of hash function ``fn_index`` under a bucket seed, for :func:`cell_at`."""
    return (bucket_seed * _GOLDEN + fn_index * _M1 + _CELL_SALT) & MASK64


def fold_hash(h):
    """Combine both halves into one 64-bit word for cell derivation."""
    hi, lo = h
    return lo ^ ((hi * _FOLD) & MASK64)


def cell_at(folded: int, key: int, m: int) -> int:
    """Cell in [0, m) of a :func:`fold_hash` word under one :func:`cell_key`."""
    return umulhi(mix64(folded ^ key), m)


def cell_of(h: MasterHash, bucket_seed: int, fn_index: int, m: int) -> int:
    """Candidate cell in [0, m) for hash function ``fn_index`` under a seed."""
    return cell_at(fold_hash(h), cell_key(bucket_seed, fn_index), m)


def row_keys(seed: int) -> tuple[int, int]:
    """Start and coefficient keys of a retrieval store's rows under a seed."""
    ks = (seed * _GOLDEN + _START_SALT) & MASK64
    kc = (seed * _ROW_MULT + _COEFF_SALT) & MASK64
    return ks, kc


# ---------------------------------------------------------------------------
# numpy batch derivation (the functions above, on arrays)


def check_distinct(hi: np.ndarray, lo: np.ndarray) -> None:
    """Raise ValueError when two (hi, lo) hash pairs are equal.

    Sorting ``hi`` alone settles almost every key set; the exact pair
    comparison runs only when two high halves collide.
    """
    s = np.sort(hi)
    if not np.any(s[1:] == s[:-1]):
        return
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    if np.any((hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1])):
        raise ValueError("duplicate keys")


def bucket_of_many(hi: np.ndarray, num_buckets: int) -> np.ndarray:
    return umulhi(hi, np.uint64(num_buckets))


def class_of_many(lo: np.ndarray, t1: int, t2: int) -> np.ndarray:
    """Degrees (2/4/8, uint8) for an array of low halves, given thresholds
    ``t1 <= t2`` as :func:`class_thresholds` returns them."""
    # the class index is the number of thresholds at or below lo
    return np.uint8(2) << ((lo >= np.uint64(t1)).astype(np.uint8) + (lo >= np.uint64(t2)))


def cell_of_many(hi: np.ndarray, lo: np.ndarray, bucket_seed, fn_index, m) -> np.ndarray:
    """Vectorized :func:`cell_of`; seed, fn_index, and m may be arrays."""
    # 1-d minimum: 0-d uint64 arithmetic raises overflow warnings
    seed = np.atleast_1d(np.asarray(bucket_seed, dtype=np.uint64))
    fidx = np.atleast_1d(np.asarray(fn_index, dtype=np.uint64))
    return cell_at(fold_hash((hi, lo)), cell_key(seed, fidx), m)
