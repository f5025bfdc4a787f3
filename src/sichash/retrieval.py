"""Static r-bit retrieval: an immutable map from a fixed key set to
r-bit values, r in {1, 2, 3}.

Keys arrive as master-hash halves, a ``(hi, lo)`` tuple of uint64
arrays.  Each key is assigned one linear equation over GF(2): a start
slot ``s`` in ``[0, num_slots - 64]`` plus a 64-bit coefficient pattern
whose first bit is always set, so the pivot search never leaves the
band.  Both derive from the store seed's
:func:`~sichash.hashing.row_keys`.  Solving the system in start order
keeps elimination local and nearly linear: each row is XORed into the
stored row at its current pivot until it finds a free pivot, becomes
zero (dependent) or proves the system inconsistent.  Back-substitution
then runs once per bit plane from the last slot down, carrying the
solution bits of the next 64 slots as one sliding 64-bit integer, so a
pivot's bit is one AND and popcount; the bits are packed with numpy at
the end.  Queries for keys outside the construction set return an
arbitrary (but deterministic) r-bit value, never an error.

The solution is stored as ``r`` separate bit planes; a query is one
64-bit window fetch and popcount per plane.  Slot count is
``ceil(num_keys * (1 + epsilon))`` (with a one-band floor), so the
payload stays within ``r * num_keys * (1 + epsilon) + O(1)`` bits.

Serialization: ``SHRS0001 | u8 r | u64 num_slots | u64 seed |
u32 band (always 64) | u64 num_keys | r x word array``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._wire import Codec, Reader, Writer
from .errors import ConstructionError, DeserializationError
from .hashing import (
    MASK64,
    MasterHash,
    check_distinct,
    fold_hash,
    fold_hash_many,
    mix64,
    mix64_many,
    row_keys,
    umulhi,
)

_MAGIC = b"SHRS0001"

DEFAULT_EPSILON = 0.10
BAND_WIDTH = 64  # bits per row coefficient: one machine word
MAX_SEED_RETRIES = 16


def _rows_many(
    hi: np.ndarray, lo: np.ndarray, seed: int, num_slots: int
) -> tuple[np.ndarray, np.ndarray]:
    ks, kc = row_keys(seed)
    starts = umulhi(mix64_many(hi ^ np.uint64(ks)), np.uint64(num_slots - BAND_WIDTH + 1))
    # the coefficient folds in both halves: keys sharing one half must
    # still receive distinct equations
    coeffs = mix64_many(fold_hash_many(hi, lo) ^ np.uint64(kc)) | np.uint64(1)
    return starts, coeffs


def fetch(plan: tuple, hi: int, folded: int) -> int:
    """Scalar query from a store's :attr:`RetrievalStore.plan`.

    ``hi`` is the key's high half and ``folded`` its :func:`fold_hash`
    word; the row derivation matches :func:`_rows_many`.
    """
    ks, kc, span, planes = plan
    start = (mix64(hi ^ ks) * span) >> 64
    coeff = mix64(folded ^ kc) | 1
    at, off = (start >> 6) << 3, start & 63  # byte offset of the first word
    out = 0
    for k, plane in enumerate(planes):
        # the coefficient clears the bits above the 64-bit window
        window = int.from_bytes(plane[at : at + 16], "little") >> off
        out |= ((window & coeff).bit_count() & 1) << k
    return out


@dataclass
class RetrievalStore(Codec):
    """Solved retrieval structure; immutable and thread-safe for reads."""

    r: int
    num_slots: int
    seed: int
    num_keys: int
    planes: list[np.ndarray]  # r word arrays, each padded with one extra word
    #: scalar query constants, derived from the fields above: the row keys,
    #: start span and planes as little-endian bytes (none for an empty
    #: store, which answers 0)
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ks, kc = row_keys(self.seed)
        planes = ()
        if self.num_slots:
            planes = tuple(np.asarray(p, dtype="<u8").tobytes() for p in self.planes)
        self.plan = (ks, kc, self.num_slots - BAND_WIDTH + 1, planes)

    @classmethod
    def build(
        cls,
        hashes,
        values,
        r: int,
        *,
        epsilon: float = DEFAULT_EPSILON,
        base_seed: int = 0,
    ) -> "RetrievalStore":
        """Build a store mapping each hash to its r-bit value.

        ``hashes`` is a ``(hi, lo)`` tuple of uint64 arrays; anything else
        raises :class:`TypeError`.  All hashes must be distinct and all
        values below ``2**r``.  Construction tries up to
        :data:`MAX_SEED_RETRIES` consecutive seeds while the system is unsolvable.
        """
        if r not in (1, 2, 3):
            raise ValueError("r must be 1, 2, or 3")
        if not (isinstance(hashes, tuple) and len(hashes) == 2):
            raise TypeError("hashes must be a (hi, lo) tuple of uint64 arrays")
        hi, lo = (np.asarray(a, dtype=np.uint64) for a in hashes)
        values = np.asarray(values, dtype=np.uint64)
        if len(values) != len(hi):
            raise ValueError("hashes and values must have equal length")
        n = len(hi)
        if n and int(values.max()) >> r:
            raise ValueError("value does not fit in r bits")
        check_distinct(hi, lo)
        if n == 0:
            return cls(r, 0, base_seed, 0, [np.zeros(1, np.uint64) for _ in range(r)])

        num_slots = max(BAND_WIDTH, math.ceil(n * (1.0 + epsilon)))
        for attempt in range(MAX_SEED_RETRIES):
            seed = base_seed + attempt
            planes = _solve(hi, lo, values, r, seed, num_slots)
            if planes is not None:
                return cls(r, num_slots, seed, n, planes)
        raise ConstructionError(
            "retrieval construction failed after "
            f"{MAX_SEED_RETRIES} seeds (pathological input or epsilon too small)"
        )

    # -- queries ---------------------------------------------------------

    def query(self, h: MasterHash) -> int:
        """Stored value for a construction key; arbitrary value otherwise."""
        return fetch(self.plan, h[0], fold_hash(h))

    def query_many(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`query`."""
        if self.num_slots == 0:
            return np.zeros(len(hi), dtype=np.uint8)
        starts, coeffs = _rows_many(hi, lo, self.seed, self.num_slots)
        w0 = (starts >> np.uint64(6)).astype(np.int64)
        off = starts & np.uint64(63)
        back = np.uint64(63) - off  # shifting by back, then 1, drops the next word at off=0
        out = np.zeros(len(hi), dtype=np.uint8)
        for k, plane in enumerate(self.planes):
            window = (plane[w0] >> off) | ((plane[w0 + 1] << back) << np.uint64(1))
            bit = np.bitwise_count(window & coeffs).astype(np.uint8) & np.uint8(1)
            out |= bit << np.uint8(k)
        return out

    # -- accounting and serialization ------------------------------------

    def bits(self) -> int:
        """Exact serialized size in bits."""
        return len(self.to_bytes()) * 8

    def write(self, w: Writer) -> None:
        w.magic(_MAGIC)
        w.u8(self.r)
        w.u64(self.num_slots)
        w.u64(self.seed)
        w.u32(BAND_WIDTH)
        w.u64(self.num_keys)
        for plane in self.planes:
            w.words(plane)

    @classmethod
    def read(cls, r: Reader) -> "RetrievalStore":
        r.magic(_MAGIC)
        rbits = r.u8()
        num_slots = r.u64()
        seed = r.u64()
        band_width = r.u32()
        num_keys = r.u64()
        if rbits not in (1, 2, 3):
            raise DeserializationError(f"retrieval store: r={rbits} not in 1..3")
        if band_width != BAND_WIDTH:
            raise DeserializationError(f"retrieval store: band width {band_width} is not 64")
        if 0 < num_slots < BAND_WIDTH:
            raise DeserializationError("retrieval store: fewer slots than one band")
        planes = [r.words() for _ in range(rbits)]
        nwords = num_slots // 64 + 2 if num_slots else 1
        if any(len(p) != nwords for p in planes):
            raise DeserializationError(
                f"retrieval store: plane length differs from {nwords} words"
            )
        return cls(rbits, num_slots, seed, num_keys, planes)


def _solve(
    hi: np.ndarray,
    lo: np.ndarray,
    values: np.ndarray,
    r: int,
    seed: int,
    num_slots: int,
) -> list[np.ndarray] | None:
    """Banded on-the-fly Gaussian elimination; None when inconsistent."""
    starts, coeffs = _rows_many(hi, lo, seed, num_slots)
    order = np.argsort(starts, kind="stable")
    starts_l = starts[order].tolist()
    coeffs_l = coeffs[order].tolist()
    vals_l = values[order].tolist()

    row_coeff = [0] * num_slots  # anchored at pivot: bit 0 is the pivot
    row_value = [0] * num_slots
    for s, c, v in zip(starts_l, coeffs_l, vals_l):
        # a fresh row has bit 0 set, so it is already anchored at ``s``
        while True:
            rc = row_coeff[s]
            if not rc:
                row_coeff[s] = c
                row_value[s] = v
                break
            c ^= rc
            v ^= row_value[s]
            if not c:
                if v:
                    return None  # inconsistent: identical equation, different value
                break  # dependent but consistent row: nothing to store
            tz = (c & -c).bit_length() - 1
            s += tz
            c >>= tz

    # Back-substitution, one plane at a time from the last slot down:
    # ``state`` holds the solution bits of slots p .. p+63 (bit 0 is slot
    # p), so each pivot's parity is one AND and popcount.
    nwords = num_slots // 64 + 2
    planes = []
    for k in range(r):
        bits = bytearray(64 * nwords)  # one byte per solution bit
        state = 0
        for p in range(num_slots - 1, -1, -1):
            state = (state << 1) & MASK64
            c = row_coeff[p]
            if c and ((state & c).bit_count() ^ (row_value[p] >> k)) & 1:
                state |= 1
                bits[p] = 1
        packed = np.packbits(np.frombuffer(bits, dtype=np.uint8), bitorder="little")
        planes.append(packed.view("<u8").astype(np.uint64))
    return planes
