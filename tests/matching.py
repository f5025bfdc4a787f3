"""A feasibility oracle for cuckoo buckets, independent of rattle kicking."""

from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from sichash.cuckoo import BucketInput
from sichash.hashing import MasterHash, cell_of


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
