"""Per-bucket cuckoo table construction by rattle kicking, and the
incremental overload experiment.

Rattle kicking keeps a counter per object counting how often it moved.
On each attempt the object probes the cell selected by
``counter mod degree``; an occupant is evicted only when its counter is
strictly lower than the inserting object's counter (on a tie the
inserter increments its counter and probes its next cell instead), and
an evicted object re-enters with its counter incremented by one.
Construction of a whole bucket is retried with seeds 0, 1, 2, ... until
all entries place within the displacement budget.  Copies of one hash
share their cells under every seed, and three of degree 2 never place,
so after the first failed seed the bucket's hashes are checked for
repeats, once (:func:`~sichash.hashing.check_distinct`).

Each entry's candidate cells are derived once per (entry, seed) into a
row of eight: ``row[t]`` is the cell of hash function
``t & (degree - 1)``.  Every degree divides 8, so ``row[counter & 7]`` is
the cell of ``counter mod degree``, and the final assignments are
``counters & (degree - 1)``.  One call of the native kernel
``rattle_place`` (``_native.c``) per bucket seed takes the bucket's hash
halves, degree masks and table size, derives the rows as
:func:`cell_of_many` does, with the constants of
:data:`~sichash.hashing.QUERY_CONSTANTS` compiled in, runs the kicking
loop and, once every entry places, writes the uint8 assignments into one
array that the bucket's seeds share.  When :data:`sichash._native.lib` is
None, each bucket seed gets a :class:`RattleTable` whose
:meth:`~RattleTable.add_entries` derives the rows of the folds, computed
once per bucket, in one numpy pass, and :meth:`RattleTable.insert` runs
the same loop in Python, as fallback and as the reference the tests
compare the kernel against; its assignments are its counters masked in
numpy.  :func:`incremental_load_experiment` inserts one entry at a time,
with :meth:`~RattleTable.add_entry`, and always uses :class:`RattleTable`.
No placement is checked on its own: :func:`sichash.phf.build_from_hashes`
checks the finished function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _native
from .errors import ConstructionError
from .hashing import (
    CLASS_DEGREES,
    MASK32,
    cell_at,
    cell_key,
    cell_of_many,
    check_distinct,
    class_of,
    class_thresholds,
    fold_hash,
)

DEFAULT_MAX_BUCKET_SEEDS = 1 << 16
#: displacements allowed per insert in :func:`incremental_load_experiment`
DEFAULT_INSERT_BUDGET = 1000
#: total displacements allowed per seed attempt, times the entry count
BUDGET_PER_ENTRY = 100
#: the native placement counts in int64; no bucket comes near this budget
_MAX_BUDGET = 2**63 - 1


@dataclass
class BucketInput:
    """Entries of one bucket: hash halves, per-entry degrees, and the
    table size ``m`` (``m >= n`` by the load-factor rounding rule, and
    below 2**32, so that every placement path can index its cells)."""

    hi: np.ndarray
    lo: np.ndarray
    degrees: np.ndarray  # 2, 4, or 8 per entry
    m: int

    def __post_init__(self) -> None:
        self.hi = np.ascontiguousarray(self.hi, dtype=np.uint64)
        self.lo = np.ascontiguousarray(self.lo, dtype=np.uint64)
        degrees = np.asarray(self.degrees)
        if not np.logical_or.reduce([degrees == d for d in CLASS_DEGREES]).all():
            raise ValueError(f"degrees must be in {CLASS_DEGREES}")
        self.degrees = degrees.astype(np.uint8)
        if not (len(self.hi) == len(self.lo) == len(self.degrees)):
            raise ValueError("hi, lo, degrees must have equal length")
        if self.m < len(self.hi):
            raise ValueError("table size m must be at least the entry count")
        if self.m > MASK32:
            raise ValueError("table size m must be below 2**32")

    def __len__(self) -> int:
        return len(self.hi)


@dataclass
class PlacementResult:
    """A collision-free assignment: per-entry hash-function index under
    the winning seed, plus the displacement count spent finding it."""

    seed: int
    assignments: np.ndarray  # fn_index per entry, < degree
    displacements: int


class RattleTable:
    """Mutable insertion state for one cuckoo table.

    Candidate cells under ``seed`` live in one flat list, entry ``i``'s
    row of eight at ``rows[8 * i : 8 * i + 8]``.  ``insert`` only reads
    this list; ``add_entry`` appends one entry's row and ``add_entries``
    the rows of a bucket's entries.  After a failed insert the table is
    left mid-displacement; callers either discard it (seed retry) or
    stop the experiment.
    """

    def __init__(self, m: int, seed: int):
        self.m = m
        self.cells = [-1] * m  # entry index occupying each cell
        self.rows = []
        self.counters = []
        self.displacements = 0
        self._keys = [cell_key(seed, t) for t in range(8)]

    def add_entry(self, folded: int, degree: int) -> int:
        """Append an entry from its :func:`fold_hash` word, deriving its
        cells the way :func:`cell_of` does; returns its index."""
        if degree not in CLASS_DEGREES:
            raise ValueError(f"degree must be one of {CLASS_DEGREES}")
        m = self.m
        self.rows.extend([cell_at(folded, k, m) for k in self._keys[:degree]] * (8 // degree))
        self.counters.append(0)
        return len(self.counters) - 1

    def add_entries(self, folded: np.ndarray, mask: np.ndarray) -> None:
        """Append entries from arrays of :func:`fold_hash` words and degree
        masks (degree minus one, of degrees already checked), with their
        rows derived in one numpy pass."""
        keys = np.array(self._keys, dtype=np.uint64)[np.arange(8) & mask[:, None]]
        self.rows.extend(cell_at(folded[:, None], keys, self.m).ravel().tolist())
        self.counters.extend([0] * len(folded))

    def insert(self, entry: int, budget: int) -> bool:
        """Place ``entry`` by rattle kicking.

        ``budget`` caps the table-wide displacement total; returns False
        once it is exceeded (counters keep their mid-flight values).
        """
        table = self.cells
        rows = self.rows
        counters = self.counters
        steps = self.displacements
        cur = entry
        c = counters[cur]
        while True:
            cell = rows[cur << 3 | c & 7]
            occ = table[cell]
            if occ < 0:
                table[cell] = cur
                counters[cur] = c
                self.displacements = steps
                return True
            oc = counters[occ]
            if oc < c:
                table[cell] = cur
                counters[cur] = c
                cur, c = occ, oc + 1
            else:
                c += 1
            steps += 1
            if steps > budget:
                counters[cur] = c
                self.displacements = steps
                return False


def build_bucket(
    inp: BucketInput,
    budget: Optional[int] = None,
    max_seeds: int = DEFAULT_MAX_BUCKET_SEEDS,
) -> PlacementResult:
    """Find the smallest seed whose rattle-kicking insertion succeeds.

    ``budget`` is the displacement limit per seed attempt and defaults
    to 100 per entry; 0 allows no displacement.  Raises :class:`ConstructionError` once
    ``max_seeds`` seeds all fail, which signals a load factor beyond
    what this table size can absorb.
    """
    if max_seeds < 1:
        raise ValueError("max_seeds must be >= 1")
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    n = len(inp)
    if budget is None:
        budget = max(1, BUDGET_PER_ENTRY * n)
    if n == 0:
        return PlacementResult(0, np.empty(0, dtype=np.uint8), 0)
    mask = inp.degrees - np.uint8(1)
    lib = _native.lib
    if lib is None:
        folded = fold_hash((inp.hi, inp.lo))
    else:
        assignments = np.empty(n, dtype=np.uint8)  # written only by a seed that places
    for seed in range(max_seeds):
        if lib is None:
            table = RattleTable(inp.m, seed)
            table.add_entries(folded, mask)
            if all(table.insert(i, budget) for i in range(n)):
                assignments = (np.array(table.counters) & mask).astype(np.uint8)
                return PlacementResult(seed, assignments, table.displacements)
        else:
            # the kernel derives the cells as cell_of_many does
            displacements = lib.rattle_place(
                inp.hi, inp.lo, mask, seed, min(budget, _MAX_BUDGET), inp.m, assignments
            )
            if displacements >= 0:
                return PlacementResult(seed, assignments, displacements)
        if seed == 0:
            # copies of a hash share their cells under every seed, so three
            # of degree 2 never place: look for them once, not per seed
            check_distinct(inp.hi, inp.lo)
    raise ConstructionError(
        f"bucket unconstructible: no seed below {max_seeds} places "
        f"{n} entries into {inp.m} cells"
    )


def placement_cells(inp: BucketInput, result: PlacementResult) -> np.ndarray:
    """Cells selected by a placement, via the query-side derivation."""
    return cell_of_many(
        inp.hi, inp.lo, result.seed, result.assignments, inp.m
    ).astype(np.int64)


def incremental_load_experiment(
    m: int,
    fractions: tuple[float, float, float],
    trials: int,
    *,
    seed: int = 0,
    insert_budget: int = DEFAULT_INSERT_BUDGET,
) -> np.ndarray:
    """Insert random entries one at a time until the first failure.

    Per trial, entries draw a class from ``fractions`` (degrees 2/4/8)
    and random 128-bit hashes; insertion uses rattle kicking with a
    fixed per-insert displacement budget (0 allows no displacement).
    Returns the achieved load ``placed / m`` of every trial.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if insert_budget < 0:
        raise ValueError("insert_budget must be >= 0")
    p1, p2, _ = fractions
    t1, t2 = class_thresholds(p1, p2)
    rng = random.Random(seed)
    loads = np.empty(trials, dtype=np.float64)
    for trial in range(trials):
        table = RattleTable(m, seed=0)
        placed = 0
        while placed < m:
            hi = rng.getrandbits(64)
            lo = rng.getrandbits(64)
            idx = table.add_entry(fold_hash((hi, lo)), class_of(lo, t1, t2))
            if not table.insert(idx, table.displacements + insert_budget):
                break
            placed += 1
        loads[trial] = placed / m
    return loads


def summarize_loads(loads: np.ndarray) -> dict[str, float]:
    """min/q1/median/q3/max of an achieved-load sample."""
    qs = np.quantile(loads, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "min": float(qs[0]),
        "q1": float(qs[1]),
        "median": float(qs[2]),
        "q3": float(qs[3]),
        "max": float(qs[4]),
    }
