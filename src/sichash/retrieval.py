"""Static r-bit retrieval: an immutable map from a fixed key set to
r-bit values, r in {1, 2, 3}.

Keys arrive as master-hash halves, a ``(hi, lo)`` tuple of uint64
arrays.  Each key is assigned one linear equation over GF(2): a start
slot ``s`` in ``[0, num_slots - 64]`` plus a 64-bit coefficient pattern
whose first bit is always set, so the pivot search never leaves the
band.  Both derive from the store seed's
:func:`~sichash.hashing.row_keys`: in :func:`_rows_many` for the Python
solve and both query paths, and in one inline C copy for the native
build and query.
Solving the system in stable start order keeps elimination local and
nearly linear: each row is XORed into the stored row at its current
pivot until it finds a free pivot, becomes zero (dependent) or proves
the system inconsistent.  Back-substitution then runs from the last slot
down, carrying the solution bits of the next 64 slots as one sliding
64-bit word, so a pivot's bit is one AND and parity; at every multiple
of 64 that word is the plane's word there, and is stored as it is.
:func:`_solve` runs one seed attempt in one call of the native kernel
``ribbon_build`` (``_native.c``, loaded as :data:`sichash._native.lib`):
it derives the rows, puts them in start order with a stable counting
sort, eliminates them and back-substitutes all r planes in a single pass
over the slots, one sliding word per plane.  When that library is None,
:func:`_solve_python` derives the rows with :func:`_rows_many`, orders
them with a stable ``argsort`` and runs the same elimination in Python,
one back-substitution pass per plane; it is also the reference the
tests compare the kernel against.  Both give the same pivots and so the
same planes, and both count the dependent rows.  A repeated hash always
leaves one, since its second copy reduces to zero against the first, so
:meth:`RetrievalStore.build` sorts the hashes to look for repeats
(:func:`~sichash.hashing.check_distinct`) only after a solve that
reports a dependent or inconsistent row.
Queries for keys outside the construction set return an arbitrary (but
deterministic) r-bit value, never an error.

The solution is stored as ``r`` separate bit planes; a query is one
64-bit window fetch and popcount per plane.  :meth:`RetrievalStore.query`
reads the window's two words of each plane as Python ints,
:meth:`~RetrievalStore.query_many` reads them in numpy, and the native
query plan of :mod:`sichash.phf` reads the same word arrays.  Slot count
is ``max(64, ceil(num_keys * (1 + EPSILON)))``: every store, an empty
one too, has at least one band, so the payload stays within
``r * num_keys * (1 + EPSILON) + O(1)`` bits.  The slack
:data:`EPSILON` is a constant of this band-64 ribbon: below about 0.08
its systems fail or need seed retries.

Serialization: ``SHRS0002 | u8 r | u64 num_slots | u64 seed |
u64 num_keys | r x word array``; the band width is always 64 and is not
stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from ._wire import Codec, Reader, Writer
from .errors import ConstructionError
from .hashing import (
    MASK64,
    MasterHash,
    check_distinct,
    fold_hash,
    mix64,
    row_keys,
    umulhi,
)

_MAGIC = b"SHRS0002"

EPSILON = 0.10  # slot slack of every store
BAND_WIDTH = 64  # bits per row coefficient: one machine word
MAX_SEED_RETRIES = 16


def _rows_many(hi, lo, seed: int, num_slots: int):
    """Row starts and coefficients of uint64 arrays of halves, or the one
    row of two int halves."""
    ks, kc = row_keys(seed)
    starts = umulhi(mix64(hi ^ ks), num_slots - BAND_WIDTH + 1)
    # the coefficient folds in both halves: keys sharing one half must
    # still receive distinct equations
    coeffs = mix64(fold_hash((hi, lo)) ^ kc) | 1
    return starts, coeffs


@dataclass
class RetrievalStore(Codec):
    """Solved retrieval structure; immutable and thread-safe for reads.

    The constructor checks the shape a query reads, window words up to
    ``num_slots // 64 + 1`` of each plane, for a loaded store and one
    assembled by hand alike.
    """

    r: int
    num_slots: int
    seed: int
    num_keys: int
    planes: list[np.ndarray]  # r word arrays, each padded with one extra word

    def __post_init__(self) -> None:
        if self.r not in (1, 2, 3):
            raise ValueError(f"retrieval store: r={self.r} not in 1..3")
        nwords = self.num_slots // 64 + 2
        shapes = [np.shape(p) for p in self.planes]
        if self.num_slots < BAND_WIDTH or shapes != [(nwords,)] * self.r:
            raise ValueError(
                f"retrieval store needs a band of slots and {self.r} planes of {nwords} words"
            )

    @classmethod
    def build(
        cls,
        hashes,
        values,
        r: int,
        *,
        base_seed: int = 0,
    ) -> "RetrievalStore":
        """Build a store mapping each hash to its r-bit value.

        ``hashes`` is a ``(hi, lo)`` tuple of uint64 arrays; anything else
        raises :class:`TypeError`.  All hashes must be distinct and all
        values below ``2**r``.
        Construction tries up to :data:`MAX_SEED_RETRIES` consecutive seeds,
        modulo ``2**64``, while the system is unsolvable; ``base_seed``
        must lie in ``[0, 2**64)``.
        """
        if r not in (1, 2, 3):
            raise ValueError("r must be 1, 2, or 3")
        if not 0 <= base_seed <= MASK64:
            raise ValueError("base_seed must lie in [0, 2**64)")
        if not (isinstance(hashes, tuple) and len(hashes) == 2):
            raise TypeError("hashes must be a (hi, lo) tuple of uint64 arrays")
        hi, lo = (np.ascontiguousarray(a, dtype=np.uint64) for a in hashes)
        values = np.ascontiguousarray(values, dtype=np.uint64)
        if not len(hi) == len(lo) == len(values):
            raise ValueError("hashes and values must have equal length")
        n = len(hi)
        if n and int(values.max()) >> r:
            raise ValueError("value does not fit in r bits")
        num_slots = max(BAND_WIDTH, math.ceil(n * (1.0 + EPSILON)))
        for attempt in range(MAX_SEED_RETRIES):
            seed = (base_seed + attempt) & MASK64
            dependent, planes = _solve(hi, lo, values, r, seed, num_slots)
            if dependent:
                # a repeated hash always leaves one dependent or
                # inconsistent row: its second copy reduces to zero
                check_distinct(hi, lo)
            if dependent >= 0:
                return cls(r, num_slots, seed, n, planes)
        raise ConstructionError(
            "retrieval construction failed after "
            f"{MAX_SEED_RETRIES} seeds (pathological input)"
        )

    # -- queries ---------------------------------------------------------

    def query(self, h: MasterHash) -> int:
        """Stored value for a construction key; arbitrary value otherwise."""
        start, coeff = _rows_many(*h, self.seed, self.num_slots)
        w, off = start >> 6, start & 63
        out = 0
        for k, plane in enumerate(self.planes):
            # the coefficient clears the bits above the 64-bit window
            window = (int(plane[w]) | int(plane[w + 1]) << 64) >> off
            out |= ((window & coeff).bit_count() & 1) << k
        return out

    def query_many(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`query`."""
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

    # -- serialization ---------------------------------------------------

    def write(self, w: Writer) -> None:
        w.magic(_MAGIC)
        w.u8(self.r)
        w.u64(self.num_slots)
        w.u64(self.seed)
        w.u64(self.num_keys)
        for plane in self.planes:
            w.words(plane)

    @classmethod
    def read(cls, r: Reader) -> "RetrievalStore":
        r.magic(_MAGIC)
        rbits = r.u8()
        num_slots = r.u64()
        seed = r.u64()
        num_keys = r.u64()
        planes = [r.words() for _ in range(rbits)]
        return cls(rbits, num_slots, seed, num_keys, planes)


def _solve(
    hi: np.ndarray,
    lo: np.ndarray,
    values: np.ndarray,
    r: int,
    seed: int,
    num_slots: int,
) -> tuple[int, list[np.ndarray]]:
    """One seed attempt: the number of dependent rows, -1 when the system
    is inconsistent, and the r solution planes, which are only valid when
    the count is not -1.

    The native kernel derives, sorts, solves and writes the planes in one
    call when the library loaded, :func:`_solve_python` otherwise, with
    the same pivots and so the same planes.
    """
    planes = np.empty((r, num_slots // 64 + 2), dtype=np.uint64)
    lib = _native.lib
    if lib is None:
        dependent = _solve_python(hi, lo, values, seed, num_slots, planes)
    else:
        dependent = lib.ribbon_build(hi, lo, values, num_slots, r, *row_keys(seed), planes)
    return dependent, list(planes)


def _solve_python(
    hi: np.ndarray,
    lo: np.ndarray,
    values: np.ndarray,
    seed: int,
    num_slots: int,
    planes: np.ndarray,
) -> int:
    """The number of dependent rows, or -1 when the rows are inconsistent,
    with the solution written into ``planes``: the reference and fallback
    of the native kernel."""
    starts, coeffs = _rows_many(hi, lo, seed, num_slots)
    order = np.argsort(starts, kind="stable")
    row_coeff = [0] * num_slots  # anchored at pivot: bit 0 is the pivot
    row_value = [0] * num_slots
    dependent = 0
    for s, c, v in zip(
        starts[order].tolist(), coeffs[order].tolist(), values[order].tolist()
    ):
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
                    return -1  # inconsistent: identical equation, different value
                dependent += 1  # consistent: nothing to store
                break
            tz = (c & -c).bit_length() - 1
            s += tz
            c >>= tz

    # Back-substitution, one plane at a time from the last slot down:
    # ``state`` holds the solution bits of slots p .. p+63 (bit 0 is slot
    # p), so each pivot's parity is one AND and popcount, and at a
    # multiple of 64 it is the plane's word p / 64.
    planes[:] = 0
    for k, plane in enumerate(planes):
        state = 0
        for p in range(num_slots - 1, -1, -1):
            state = (state << 1) & MASK64
            c = row_coeff[p]
            if c and ((state & c).bit_count() ^ (row_value[p] >> k)) & 1:
                state |= 1
            if not p & 63:
                plane[p >> 6] = state
    return dependent
