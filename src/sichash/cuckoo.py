"""Per-bucket cuckoo table construction by rattle kicking, a matching
oracle for feasibility checks, and the incremental overload experiment.

Rattle kicking keeps a counter per object counting how often it moved.
On each attempt the object probes the cell selected by
``counter mod degree``; an occupant is evicted only when its counter is
strictly lower than the inserting object's counter (on a tie the
inserter increments its counter and probes its next cell instead), and
an evicted object re-enters with its counter incremented by one.
Construction of a whole bucket is retried with seeds 0, 1, 2, ... until
all entries place within the displacement budget.

Each entry's candidate cells are derived once per (entry, seed), in one
vectorized pass per bucket seed, into one flat list.  An entry keeps the
index of its first cell and ``degree - 1`` as a mask; degrees are
powers of two, so a probe is ``flat[first + (counter & mask)]`` and the
final assignments are ``counters & mask`` in numpy.  The injectivity
self-check on a finished placement re-derives the chosen cells with the
vectorized query-side derivation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import ConstructionError
from .hashing import (
    CLASS_DEGREES,
    MasterHash,
    cell_key,
    cell_of,
    cell_of_many,
    class_thresholds,
    fold_hash,
    mix64,
)

DEFAULT_MAX_BUCKET_SEEDS = 1 << 16
#: total displacements allowed per seed attempt, times the entry count
BUDGET_PER_ENTRY = 100


@dataclass
class BucketInput:
    """Entries of one bucket: hash halves, per-entry degrees, and the
    table size ``m`` (``m >= n`` by the load-factor rounding rule)."""

    hi: np.ndarray
    lo: np.ndarray
    degrees: np.ndarray  # 2, 4, or 8 per entry
    m: int

    def __post_init__(self) -> None:
        self.hi = np.asarray(self.hi, dtype=np.uint64)
        self.lo = np.asarray(self.lo, dtype=np.uint64)
        degrees = np.asarray(self.degrees)
        if not np.logical_or.reduce([degrees == d for d in CLASS_DEGREES]).all():
            raise ValueError(f"degrees must be in {CLASS_DEGREES}")
        self.degrees = degrees.astype(np.uint8)
        if not (len(self.hi) == len(self.lo) == len(self.degrees)):
            raise ValueError("hi, lo, degrees must have equal length")
        if self.m < len(self.hi):
            raise ValueError("table size m must be at least the entry count")

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

    Candidate cells under ``seed`` live in one flat list: entry ``i``
    owns ``flat[first[i] : first[i] + mask[i] + 1]``, where ``mask[i]``
    is its degree minus one, so the cell of hash function ``t`` is
    ``flat[first[i] + t]``.  ``insert`` only reads these lists and
    ``add_entry`` appends to them.  After a failed insert the table is
    left mid-displacement; callers either discard it (seed retry) or
    stop the experiment.
    """

    def __init__(
        self,
        m: int,
        seed: int,
        flat: Optional[list[int]] = None,
        first: Optional[list[int]] = None,
        mask: Optional[list[int]] = None,
    ):
        self.m = m
        self.cells = [-1] * m  # entry index occupying each cell
        self.flat = [] if flat is None else flat
        self.first = [] if first is None else first
        self.mask = [] if mask is None else mask
        self.counters = [0] * len(self.first)
        self.displacements = 0
        self._keys = [cell_key(seed, t) for t in range(8)]

    def add_entry(self, folded: int, degree: int) -> int:
        """Append an entry from its :func:`fold_hash` word, deriving its
        cells the way :func:`cell_of` does; returns its index."""
        if degree not in CLASS_DEGREES:
            raise ValueError(f"degree must be one of {CLASS_DEGREES}")
        m = self.m
        self.first.append(len(self.flat))
        self.flat.extend([(mix64(folded ^ k) * m) >> 64 for k in self._keys[:degree]])
        self.mask.append(degree - 1)
        self.counters.append(0)
        return len(self.counters) - 1

    def insert(self, entry: int, budget: int) -> bool:
        """Place ``entry`` by rattle kicking.

        ``budget`` caps the table-wide displacement total; returns False
        once it is exceeded (counters keep their mid-flight values).
        """
        table = self.cells
        flat, first, mask = self.flat, self.first, self.mask
        counters = self.counters
        steps = self.displacements
        cur = entry
        c = counters[cur]
        while True:
            # degrees are powers of two, so ``c & mask`` is ``c mod degree``
            cell = flat[first[cur] + (c & mask[cur])]
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
    to 100 per entry.  Raises :class:`ConstructionError` once
    ``max_seeds`` seeds all fail, which signals a load factor beyond
    what this table size can absorb.
    """
    n = len(inp)
    if budget is None:
        budget = max(1, BUDGET_PER_ENTRY * n)
    if n == 0:
        return PlacementResult(0, np.empty(0, dtype=np.uint8), 0)
    # one (entry, fn_index) pair per candidate cell, entries in order
    ends = np.cumsum(inp.degrees, dtype=np.int64)
    starts = ends - inp.degrees
    entry = np.repeat(np.arange(n), inp.degrees)
    fn_index = np.arange(int(ends[-1])) - starts[entry]
    hi, lo = inp.hi[entry], inp.lo[entry]
    mask = inp.degrees - np.uint8(1)
    first, mask_l = starts.tolist(), mask.tolist()
    for seed in range(max_seeds):
        flat = cell_of_many(hi, lo, seed, fn_index, inp.m).tolist()
        table = RattleTable(inp.m, seed, flat, first, mask_l)
        for i in range(n):
            if not table.insert(i, budget):
                break
        else:
            assignments = (np.array(table.counters) & mask).astype(np.uint8)
            result = PlacementResult(seed, assignments, table.displacements)
            _check_placement(inp, result)
            return result
    raise ConstructionError(
        f"bucket unconstructible: no seed below {max_seeds} places "
        f"{n} entries into {inp.m} cells"
    )


def placement_cells(inp: BucketInput, result: PlacementResult) -> np.ndarray:
    """Cells selected by a placement, via the query-side derivation."""
    return cell_of_many(
        inp.hi, inp.lo, result.seed, result.assignments, inp.m
    ).astype(np.int64)


def _check_placement(inp: BucketInput, result: PlacementResult) -> None:
    occupied = np.zeros(inp.m, dtype=bool)
    occupied[placement_cells(inp, result)] = True
    if np.count_nonzero(occupied) != len(inp):
        raise ConstructionError("internal error: placement is not injective")


def matching_oracle(
    inp: BucketInput, seed: int
) -> tuple[bool, Optional[np.ndarray]]:
    """Feasibility of a seed by maximum bipartite matching
    (Hopcroft-Karp), independent of the rattle-kicking path.

    Returns ``(feasible, assignments)``; assignments are one valid
    fn-index per entry when a perfect matching exists.  Intended for
    test-scale inputs.
    """
    n = len(inp)
    if n == 0:
        return True, np.empty(0, dtype=np.uint8)
    rows = []
    cols = []
    cand: list[dict[int, int]] = []
    for i in range(n):
        h = MasterHash(int(inp.hi[i]), int(inp.lo[i]))
        cells = {}
        for t in range(int(inp.degrees[i])):
            cell = cell_of(h, seed, t, inp.m)
            cells.setdefault(cell, t)
        cand.append(cells)
        for cell in cells:
            rows.append(i)
            cols.append(cell)
    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, inp.m)
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    if int((match >= 0).sum()) < n:
        return False, None
    assignments = np.array(
        [cand[i][int(match[i])] for i in range(n)], dtype=np.uint8
    )
    return True, assignments


def incremental_load_experiment(
    m: int,
    fractions: tuple[float, float, float],
    trials: int,
    *,
    seed: int = 0,
    insert_budget: int = 1000,
) -> np.ndarray:
    """Insert random entries one at a time until the first failure.

    Per trial, entries draw a class from ``fractions`` (degrees 2/4/8)
    and random 128-bit hashes; insertion uses rattle kicking with a
    fixed per-insert displacement budget.  Returns the achieved load
    ``placed / m`` of every trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
            degree = 2 if lo < t1 else (4 if lo < t2 else 8)
            idx = table.add_entry(fold_hash((hi, lo)), degree)
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
