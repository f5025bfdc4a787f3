import itertools
import random

import numpy as np
import pytest

from sichash import _native, cuckoo
from sichash.cli import OVERLOAD_CONFIGS
from sichash.cuckoo import (
    BucketInput,
    PlacementResult,
    RattleTable,
    build_bucket,
    incremental_load_experiment,
    placement_cells,
    summarize_loads,
)
from sichash.errors import ConstructionError
from sichash.hashing import (
    _FOLD,
    MASK64,
    MasterHash,
    cell_of,
    class_of_many,
    class_thresholds,
    fold_hash,
)
from tests.matching import matching_oracle


def _random_bucket(rng, n, alpha, fractions):
    hi = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    lo = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    t1, t2 = class_thresholds(fractions[0], fractions[1])
    degs = class_of_many(lo, t1, t2)
    m = max(n, round(n / alpha))
    return BucketInput(hi, lo, degs, m)


# -- reference rattle process -------------------------------------------------
# Independent mini-implementation of the insertion rule.  ``cell(entry,
# fn_index)`` is asked afresh on every probe: the enumeration oracles give
# cells directly, the construction references derive them with scalar
# ``cell_of``, independently of the library's per-seed cell lists.


def _reference_insert(cell, table, counters, degrees, start, steps, budget):
    """Rattle-insert entry ``start``; returns (placed, displacements)."""
    cur, c = start, counters[start]
    while True:
        t = cell(cur, c % degrees[cur])
        occ = table[t]
        if occ < 0:
            table[t] = cur
            counters[cur] = c
            return True, steps
        if counters[occ] < c:
            table[t] = cur
            counters[cur] = c
            cur, c = occ, counters[occ] + 1
        else:
            c += 1
        steps += 1
        if steps > budget:
            counters[cur] = c
            return False, steps


def _reference_rattle(cells, n, m, degrees, budget):
    """cells[(entry, fn_index)] -> cell; returns number of entries placed."""
    table, counters, steps = [-1] * m, [0] * n, 0
    for start in range(n):
        ok, steps = _reference_insert(
            lambda i, t: cells[(i, t)], table, counters, degrees, start, steps, budget
        )
        if not ok:
            return start
    return n


def _reference_build_bucket(inp, budget, max_seeds):
    """(seed, assignments, displacements) of the smallest placing seed, or
    None when no seed below ``max_seeds`` places every entry."""
    n, m = len(inp), inp.m
    hashes = [MasterHash(int(h), int(l)) for h, l in zip(inp.hi, inp.lo)]
    degrees = inp.degrees.tolist()
    for seed in range(max_seeds):
        table, counters, steps = [-1] * m, [0] * n, 0

        def cell(i, t):
            return cell_of(hashes[i], seed, t, m)

        for start in range(n):
            ok, steps = _reference_insert(
                cell, table, counters, degrees, start, steps, budget
            )
            if not ok:
                break
        else:
            return seed, [counters[i] % degrees[i] for i in range(n)], steps
    return None


def _seeded_buckets():
    """120 seeded (bucket, budget, max_seeds) cases; small budgets and seed
    caps force seed retries and exhaustion."""
    rng = np.random.default_rng(12)
    for _ in range(120):
        n = int(rng.integers(1, 301))
        inp = _random_bucket(rng, n, 0.8 + 0.2 * rng.random(), rng.dirichlet([1, 1, 1]))
        budget = int(rng.choice([n // 4 + 1, n, 4 * n, 100 * n]))
        max_seeds = int(rng.integers(1, 9))
        yield inp, budget, max_seeds


def _reference_loads(m, fractions, trials, seed, insert_budget=1000):
    """The incremental overload experiment over the reference insertion."""
    t1, t2 = class_thresholds(fractions[0], fractions[1])
    rng = random.Random(seed)
    loads = []
    for _ in range(trials):
        hashes, degrees, counters = [], [], []
        table, steps = [-1] * m, 0

        def cell(i, t):
            return cell_of(hashes[i], 0, t, m)

        while len(hashes) < m:
            hi = rng.getrandbits(64)
            lo = rng.getrandbits(64)
            hashes.append(MasterHash(hi, lo))
            degrees.append(2 if lo < t1 else (4 if lo < t2 else 8))
            counters.append(0)
            ok, steps = _reference_insert(
                cell, table, counters, degrees, len(hashes) - 1, steps,
                steps + insert_budget,
            )
            if not ok:
                hashes.pop()
                break
        loads.append(len(hashes) / m)
    return np.array(loads)


def _enumerate_two_in_three_success() -> float:
    """Exact seed-0 success probability for 2 binary-choice entries in a
    3-cell table, over all 81 equally likely hash outcomes."""
    wins = 0
    for values in itertools.product(range(3), repeat=4):
        cells = {
            (0, 0): values[0],
            (0, 1): values[1],
            (1, 0): values[2],
            (1, 1): values[3],
        }
        wins += _reference_rattle(cells, 2, 3, [2, 2], budget=200) == 2
    return wins / 81


def _enumerate_mean_load_m3() -> float:
    """Exact mean achieved load of the incremental experiment at m=3,
    all entries binary, over all 729 hash outcomes."""
    total = 0.0
    for values in itertools.product(range(3), repeat=6):
        cells = {(i, t): values[2 * i + t] for i in range(3) for t in range(2)}
        placed = _reference_rattle(cells, 3, 3, [2, 2, 2], budget=500)
        total += placed / 3
    return total / 729


class TestBuildBucket:
    def test_empty(self):
        result = build_bucket(BucketInput([], [], [], 0))
        assert result.seed == 0
        assert len(result.assignments) == 0

    def test_single_entry(self):
        inp = BucketInput([123], [456], [2], 1)
        result = build_bucket(inp)
        assert result.seed == 0
        assert result.assignments[0] == 0

    def test_smallest_seed_wins(self):
        rng = np.random.default_rng(5)
        inp = _random_bucket(rng, 50, 0.9, (0.25, 0.5, 0.25))
        result = build_bucket(inp)
        # re-running returns the same seed: the scan is deterministic
        assert build_bucket(inp).seed == result.seed

    def test_two_in_three_success_probability(self):
        exact = _enumerate_two_in_three_success()
        assert exact == pytest.approx(1 - 3 * (1 / 3) ** 4, abs=1e-12)
        rng = np.random.default_rng(77)
        trials = 20_000
        words = rng.integers(0, 2**64, size=(trials, 4), dtype=np.uint64).tolist()
        wins = 0
        for row in words:
            table = RattleTable(3, seed=0)
            ok = True
            for j in range(2):
                h = MasterHash(row[2 * j], row[2 * j + 1])
                idx = table.add_entry(fold_hash(h), 2)
                ok = table.insert(idx, budget=200)
                if not ok:
                    break
            wins += ok
        assert wins / trials == pytest.approx(exact, abs=0.02)

    def test_assignments_fit_class_bits(self):
        rng = np.random.default_rng(6)
        inp = _random_bucket(rng, 300, 0.85, (0.3, 0.4, 0.3))
        result = build_bucket(inp)
        assert np.all(result.assignments < inp.degrees)

    def test_placement_validity_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 120))
            inp = _random_bucket(rng, n, 0.8 + 0.2 * rng.random(), (0.25, 0.5, 0.25))
            result = build_bucket(inp)
            cells = placement_cells(inp, result)
            assert len(np.unique(cells)) == n
            assert cells.min() >= 0 and cells.max() < inp.m

    def test_unconstructible_raises(self):
        # binary-only keys at load 1.0: far beyond the degree-2 threshold
        rng = np.random.default_rng(8)
        inp = _random_bucket(rng, 60, 1.0, (1.0, 0.0, 0.0))
        with pytest.raises(ConstructionError, match="unconstructible"):
            build_bucket(inp, max_seeds=16)

    @pytest.mark.parametrize("max_seeds", [0, -3])
    def test_max_seeds_below_one_rejected(self, max_seeds):
        rng = np.random.default_rng(8)
        inp = _random_bucket(rng, 10, 0.9, (0.3, 0.4, 0.3))
        with pytest.raises(ValueError, match="max_seeds must be >= 1"):
            build_bucket(inp, max_seeds=max_seeds)

    def test_negative_budget_rejected(self):
        rng = np.random.default_rng(8)
        inp = _random_bucket(rng, 10, 0.3, (0.3, 0.4, 0.3))
        with pytest.raises(ValueError, match="budget must be >= 0"):
            build_bucket(inp, budget=-1)
        # a budget of 0 allows no displacement
        assert build_bucket(inp, budget=0).displacements == 0

    def test_matches_per_probe_reference(self):
        retried = failed = 0
        for inp, budget, max_seeds in _seeded_buckets():
            want = _reference_build_bucket(inp, budget, max_seeds)
            if want is None:
                failed += 1
                with pytest.raises(ConstructionError, match="unconstructible"):
                    build_bucket(inp, budget=budget, max_seeds=max_seeds)
                continue
            got = build_bucket(inp, budget=budget, max_seeds=max_seeds)
            retried += got.seed > 0
            assert (got.seed, got.assignments.tolist(), got.displacements) == want
        assert retried and failed


# -- the native placement against the Python loop, its reference and fallback

native = pytest.mark.skipif(_native.lib is None, reason="native library not loaded")


def _outcome(inp, **kwargs):
    """build_bucket's (seed, assignments, displacements), or its error text."""
    try:
        got = build_bucket(inp, **kwargs)
    except ConstructionError as e:
        return str(e)
    return got.seed, got.assignments.tolist(), got.displacements


def _python_outcome(inp, **kwargs):
    """:func:`_outcome` with the native library switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "lib", None)
        return _outcome(inp, **kwargs)


def _place_both(inp, seed, budget):
    """One seed's placement by the kernel and by :meth:`RattleTable.insert`,
    each as (displacements or -1, assignments).  The assignments start at
    255, which only a placement that succeeds overwrites, with its
    ``counters & mask``."""
    table = RattleTable(inp.m, seed)
    for hi, lo, d in zip(inp.hi.tolist(), inp.lo.tolist(), inp.degrees.tolist()):
        table.add_entry(fold_hash((hi, lo)), d)
    n = len(inp)
    mask = inp.degrees - np.uint8(1)
    assignments = np.full(n, 255, dtype=np.uint8)
    got = _native.lib.rattle_place(inp.hi, inp.lo, mask, seed, budget, inp.m, assignments)
    placed = all(table.insert(i, budget) for i in range(n))
    want = table.displacements if placed else -1
    fn = (np.array(table.counters) & mask).tolist() if placed else [255] * n
    return (got, assignments.tolist()), (want, fn)


@native
class TestNativePlacement:
    def test_matches_python_on_seeded_buckets(self):
        retried = failed = 0
        for inp, budget, max_seeds in _seeded_buckets():
            got = _outcome(inp, budget=budget, max_seeds=max_seeds)
            assert got == _python_outcome(inp, budget=budget, max_seeds=max_seeds)
            failed += isinstance(got, str)
            retried += not isinstance(got, str) and got[0] > 0
        assert retried and failed

    def test_budget_runs_out_partway(self):
        rng = np.random.default_rng(13)
        inp = _random_bucket(rng, 400, 0.95, (0.25, 0.5, 0.25))
        full, _ = _place_both(inp, 0, 100 * len(inp))
        spent = full[0]
        assert spent > 10
        for budget in (0, 1, spent // 2, spent - 1, spent, 2**63 - 1):
            got, want = _place_both(inp, 0, budget)
            assert got == want
            assert got[0] == (spent if budget >= spent else -1)

    def test_budget_zero(self):
        rng = np.random.default_rng(14)
        outcomes = []
        for n, alpha in ((8, 0.5), (30, 0.6), (200, 0.97)):
            inp = _random_bucket(rng, n, alpha, (0.3, 0.4, 0.3))
            got = _outcome(inp, budget=0, max_seeds=32)
            assert got == _python_outcome(inp, budget=0, max_seeds=32)
            outcomes.append(got)
        assert outcomes[0][2] == 0  # placed without a displacement
        assert isinstance(outcomes[-1], str)  # no seed places 200 without one

    def test_budget_beyond_64_bits(self):
        rng = np.random.default_rng(15)
        inp = _random_bucket(rng, 100, 0.9, (0.3, 0.4, 0.3))
        got = _outcome(inp, budget=2**70)
        assert got == _python_outcome(inp, budget=2**70) == _outcome(inp)

    def test_max_seeds_exhausted(self):
        rng = np.random.default_rng(8)
        inp = _random_bucket(rng, 60, 1.0, (1.0, 0.0, 0.0))
        got = _outcome(inp, max_seeds=16)
        assert "unconstructible" in got
        assert got == _python_outcome(inp, max_seeds=16)

    @pytest.mark.parametrize("m", [1, 2, 7])
    @pytest.mark.parametrize("degree", [2, 4, 8])
    def test_single_entry(self, m, degree):
        inp = BucketInput([2**64 - 1], [12345], [degree], m)
        got = _outcome(inp)
        assert got == _python_outcome(inp) == (0, [0], 0)

    def test_table_as_large_as_the_bucket(self):
        rng = np.random.default_rng(16)
        for n in (10, 100, 500):
            inp = _random_bucket(rng, n, 1.0, (0.1, 0.3, 0.6))
            assert inp.m == n
            got = _outcome(inp, max_seeds=64)
            assert got == _python_outcome(inp, max_seeds=64)
            assert not isinstance(got, str)


@pytest.mark.xfail(strict=True, raises=ConstructionError,
                   reason="the cells derive from fold_hash before the seed")
@pytest.mark.parametrize("lib", [_native.lib, None], ids=["kernel", "python"])
def test_hashes_with_one_fold_place(monkeypatch, lib):
    # three degree-2 hashes with one fold_hash share their two cells under
    # every seed, so no seed places them into three cells
    monkeypatch.setattr(_native, "lib", lib)
    hi = [1, 2, 3]
    lo = [12345 ^ ((h * _FOLD) & MASK64) for h in hi]
    assert build_bucket(BucketInput(hi, lo, [2, 2, 2], 3), max_seeds=4096).seed >= 0


@native
def test_kernel_derives_cells_as_cell_of_many():
    # 2000 entries in 2100 cells kick enough that entries of every degree
    # end on each of their hash functions; the cells that cell_of_many
    # derives from the kernel's assignments must be distinct cells below m
    rng = np.random.default_rng(17)
    inp = _random_bucket(rng, 2000, 2000 / 2100, (0.3, 0.4, 0.3))
    assignments = np.empty(len(inp), dtype=np.uint8)
    seed = 3
    mask = inp.degrees - np.uint8(1)
    assert _native.lib.rattle_place(inp.hi, inp.lo, mask, seed, 10**9, inp.m, assignments) > 0
    assert {(d, t) for d, t in zip(inp.degrees.tolist(), assignments.tolist())} == {
        (d, t) for d in (2, 4, 8) for t in range(d)
    }
    cells = placement_cells(inp, PlacementResult(seed, assignments, 0))
    assert len(np.unique(cells)) == len(inp)
    assert cells.min() >= 0 and cells.max() < inp.m


@pytest.mark.parametrize("lib", [_native.lib, None], ids=["kernel", "python"])
def test_distinctness_checked_once_after_the_first_failed_seed(monkeypatch, lib):
    calls = []
    check = cuckoo.check_distinct

    def spy(hi, lo):
        calls.append(len(hi))
        check(hi, lo)

    monkeypatch.setattr(cuckoo, "check_distinct", spy)
    monkeypatch.setattr(_native, "lib", lib)
    inp = _random_bucket(np.random.default_rng(18), 300, 0.9, (0.3, 0.4, 0.3))
    assert build_bucket(inp).seed == 0 and calls == []
    # twelve entries in twelve cells, of which seeds 0, 1 and 2 place none
    inp = _random_bucket(np.random.default_rng(35), 12, 1.0, (0.3, 0.4, 0.3))
    assert build_bucket(inp).seed == 3
    assert calls == [12]
    # a key three times over, of degree 2, fails every seed: the check
    # after the first one names it
    tripled = BucketInput([5, 5, 5, 6], [7, 7, 7, 8], [2, 2, 2, 4], 6)
    with pytest.raises(ValueError, match="duplicate keys"):
        build_bucket(tripled)
    assert calls == [12, 4]


@native
class TestPlacementArguments:
    """The placement kernel checks its arrays and values before it runs."""

    @staticmethod
    def _arrays():
        # two entries of degree 2 in three cells
        return dict(hi=np.array([1, 2], dtype=np.uint64),
                    lo=np.array([3, 4], dtype=np.uint64),
                    mask=np.array([1, 1], dtype=np.uint8),
                    assignments=np.empty(2, dtype=np.uint8))

    def _place(self, budget=100, seed=0, m=3, **changes):
        a = {**self._arrays(), **changes}
        return _native.lib.rattle_place(a["hi"], a["lo"], a["mask"], seed, budget, m,
                                        a["assignments"])

    def test_valid_arrays_place(self):
        arrays = self._arrays()
        assert self._place(**arrays) >= 0
        result = PlacementResult(0, arrays["assignments"], 0)
        cells = placement_cells(BucketInput(arrays["hi"], arrays["lo"], [2, 2], 3), result)
        assert len(set(cells.tolist())) == 2 and cells.max() < 3

    def test_no_entries(self):
        empty = np.empty(0, dtype=np.uint64)
        assert self._place(hi=empty, lo=empty, mask=np.empty(0, dtype=np.uint8), m=0,
                           assignments=np.empty(0, dtype=np.uint8)) == 0

    def test_wrong_dtype(self):
        for name, dtype, size in (("hi", np.uint32, 8), ("lo", np.int32, 8),
                                  ("mask", np.int64, 1), ("assignments", np.int64, 1)):
            wrong = self._arrays()[name].astype(dtype)
            with pytest.raises(TypeError, match=f"{name}: need items of {size} bytes"):
                self._place(**{name: wrong})

    def test_short_output(self):
        # n is len(hi), so a short hi shows as a long lo
        for name, message in (("hi", "lo: need 1 items, got 2"),
                              ("lo", "lo: need 2 items, got 1"),
                              ("mask", "mask: need 2 items, got 1"),
                              ("assignments", "assignments: need 2 items, got 1")):
            with pytest.raises(ValueError, match=message):
                self._place(**{name: self._arrays()[name][:1]})
        with pytest.raises(ValueError, match="assignments: need 2 items, got 3"):
            self._place(assignments=np.empty(3, dtype=np.uint8))

    @pytest.mark.parametrize("bad", [0, 2, 8])
    def test_mask_not_a_degree(self, bad):
        with pytest.raises(ValueError, match="mask: a degree mask other than 1, 3 or 7"):
            self._place(mask=np.array([1, bad], dtype=np.uint8))

    def test_entries_without_cells(self):
        with pytest.raises(ValueError, match="m: no cell"):
            self._place(m=0)

    def test_table_size_outside_32_bits(self):
        # 2**32 cells overflow a uint32 row, and a negative size is none;
        # either is refused before the 16-byte slots of m cells are allocated
        for m in (2**32, -1):
            with pytest.raises(ValueError, match=r"0 <= m < 2\*\*32"):
                self._place(m=m)

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            self._place(budget=-1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits(self, seed):
        # a wrapping parse would place -1 as 2**64 - 1 and 2**64 + 5 as 5
        with pytest.raises(OverflowError):
            self._place(seed=seed)

    def test_seed_at_the_64_bit_edges(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert self._place(seed=seed) >= 0

    def test_strided_input(self):
        with pytest.raises((BufferError, ValueError)):
            self._place(hi=np.zeros(4, dtype=np.uint64)[::2])


class TestDegreeValidation:
    # a probe reads ``row[counter & 7]`` of a row that repeats the entry's
    # cells, which is the cell of the counter mod degree only for the class
    # degrees, which divide 8

    @pytest.mark.parametrize("degree", [0, 1, 3, 5, 16, 258])
    def test_bucket_input_rejects_other_degrees(self, degree):
        with pytest.raises(ValueError, match="degrees"):
            BucketInput([1, 2], [3, 4], [2, degree], 2)

    @pytest.mark.parametrize("degree", [0, 1, 3, 5, 16])
    def test_add_entry_rejects_other_degrees(self, degree):
        table = RattleTable(10, seed=0)
        with pytest.raises(ValueError, match="degree"):
            table.add_entry(fold_hash(MasterHash(1, 2)), degree)
        assert table.counters == [] and table.rows == []

    def test_class_degrees_accepted(self):
        inp = BucketInput([1, 2, 3], [4, 5, 6], [2, 4, 8], 3)
        assert inp.degrees.tolist() == [2, 4, 8]
        table = RattleTable(10, seed=0)
        assert [table.add_entry(fold_hash(MasterHash(1, d)), d) for d in (2, 4, 8)] == [0, 1, 2]
        # one row of eight cells per entry, whatever its degree
        assert len(table.rows) == 24 and table.counters == [0, 0, 0]

    @pytest.mark.parametrize("m", [1, 7, 5000])
    def test_add_entries_derives_the_cells_of_add_entry(self, m):
        # rows are appended behind the entries already there
        inp = _random_bucket(np.random.default_rng(m), 300, 0.9, (0.3, 0.4, 0.3))
        folded = fold_hash((inp.hi, inp.lo))
        one, many = RattleTable(m, seed=11), RattleTable(m, seed=11)
        for f, d in zip(folded.tolist(), inp.degrees.tolist()):
            one.add_entry(f, d)
        many.add_entry(folded[0].item(), 2)
        many.add_entries(folded, inp.degrees - np.uint8(1))
        assert many.rows[8:] == one.rows and many.counters == [0] * (len(inp) + 1)

    @pytest.mark.parametrize("m", [1, 7, 5000])
    @pytest.mark.parametrize("bulk", [False, True])
    def test_row_repeats_the_cells_of_its_degree(self, m, bulk):
        # row[t] is the cell of hash function t mod degree, so the probe
        # row[c & 7] is the cell of c mod degree
        rng = np.random.default_rng(m)
        hi = rng.integers(0, 2**64, size=30, dtype=np.uint64)
        lo = rng.integers(0, 2**64, size=30, dtype=np.uint64)
        degrees = np.resize(np.array([2, 4, 8], dtype=np.uint8), 30)
        table = RattleTable(m, seed=5)
        if bulk:
            table.add_entries(fold_hash((hi, lo)), degrees - np.uint8(1))
        else:
            for h, l, d in zip(hi.tolist(), lo.tolist(), degrees.tolist()):
                table.add_entry(fold_hash((h, l)), d)
        for i, (h, l, d) in enumerate(zip(hi.tolist(), lo.tolist(), degrees.tolist())):
            want = [cell_of(MasterHash(h, l), 5, t & (d - 1), m) for t in range(8)]
            assert table.rows[8 * i : 8 * i + 8] == want


class TestRattleInsert:
    def test_first_insert_goes_to_counter_zero_cell(self):
        table = RattleTable(10, seed=0)
        idx = table.add_entry(fold_hash(MasterHash(1, 2)), 4)
        assert table.insert(idx, budget=100)
        assert table.counters[idx] == 0
        assert table.displacements == 0

    def test_forced_failure_single_cell(self):
        table = RattleTable(1, seed=0)
        a = table.add_entry(fold_hash(MasterHash(1, 2)), 2)
        assert table.insert(a, budget=50)
        b = table.add_entry(fold_hash(MasterHash(3, 4)), 2)
        assert not table.insert(b, budget=50)


class TestMatchingOracle:
    def test_single_entry_feasible(self):
        inp = BucketInput([7], [8], [2], 1)
        feasible, assignments = matching_oracle(inp, seed=0)
        assert feasible
        assert len(assignments) == 1

    def test_pigeonhole_infeasible(self):
        inp = BucketInput.__new__(BucketInput)  # bypass m >= n validation
        inp.hi = np.array([1, 2], dtype=np.uint64)
        inp.lo = np.array([3, 4], dtype=np.uint64)
        inp.degrees = np.array([2, 2], dtype=np.uint8)
        inp.m = 1
        feasible, assignments = matching_oracle(inp, seed=0)
        assert not feasible and assignments is None

    def test_returned_assignment_is_valid(self):
        rng = np.random.default_rng(9)
        inp = _random_bucket(rng, 80, 0.9, (0.25, 0.5, 0.25))
        feasible, assignments = matching_oracle(inp, seed=0)
        if feasible:
            cells = placement_cells(inp, PlacementResult(0, assignments, 0))
            assert len(np.unique(cells)) == len(inp)

    def test_rattle_success_implies_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            inp = _random_bucket(rng, 100, 0.9, (0.3, 0.4, 0.3))
            result = build_bucket(inp)
            feasible, _ = matching_oracle(inp, result.seed)
            assert feasible

    def test_near_completeness_reported(self, capsys):
        # soft statistic: how often rattle kicking places an instance the
        # matching oracle certifies feasible at the same seed.  Random-walk
        # completeness is not guaranteed, so this is reported, not gated
        # (beyond a gross-breakage floor).
        rng = np.random.default_rng(11)
        feasible_count = 0
        rattle_wins = 0
        while feasible_count < 1000:
            inp = _random_bucket(rng, 100, 0.9, (0.25, 0.5, 0.25))
            ok, _ = matching_oracle(inp, seed=0)
            if not ok:
                continue
            feasible_count += 1
            table = RattleTable(inp.m, seed=0)
            folded = [
                fold_hash(MasterHash(int(h), int(l)))
                for h, l in zip(inp.hi, inp.lo)
            ]
            placed = True
            for f, d in zip(folded, inp.degrees.tolist()):
                idx = table.add_entry(f, int(d))
                placed = table.insert(idx, budget=100 * len(inp))
                if not placed:
                    break
            rattle_wins += placed
        rate = rattle_wins / feasible_count
        with capsys.disabled():
            print(
                f"\n[report] rattle kicking success on {feasible_count} "
                f"oracle-feasible instances: {rate:.4f}"
            )
        assert rate >= 0.5  # sanity floor only; the statistic is informational


class TestIncrementalExperiment:
    def test_mean_load_m3_matches_enumeration(self):
        exact = _enumerate_mean_load_m3()
        loads = incremental_load_experiment(3, (1.0, 0.0, 0.0), trials=20_000, seed=1)
        assert float(loads.mean()) == pytest.approx(exact, abs=0.01)

    def test_m500_binary_median_smoke(self):
        loads = incremental_load_experiment(500, (1.0, 0.0, 0.0), trials=49, seed=2)
        med = float(np.median(loads))
        assert 0.50 <= med <= 0.62

    def test_matches_per_probe_reference(self):
        for seed in (1, 2):
            loads = incremental_load_experiment(500, OVERLOAD_CONFIGS["C"], 20, seed=seed)
            assert loads.tolist() == _reference_loads(500, OVERLOAD_CONFIGS["C"], 20, seed).tolist()

    def test_deterministic_per_seed(self):
        a = incremental_load_experiment(50, (0.5, 0.0, 0.5), trials=10, seed=3)
        b = incremental_load_experiment(50, (0.5, 0.0, 0.5), trials=10, seed=3)
        assert np.array_equal(a, b)

    def test_loads_in_unit_interval(self):
        loads = incremental_load_experiment(40, (0.0, 1.0, 0.0), trials=30, seed=4)
        assert loads.min() >= 0.0 and loads.max() <= 1.0

    def test_single_trial_summary(self):
        loads = incremental_load_experiment(30, (0.0, 1.0, 0.0), trials=1, seed=5)
        s = summarize_loads(loads)
        assert s["min"] == s["median"] == s["max"] == float(loads[0])

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            incremental_load_experiment(10, (1.0, 0.0, 0.0), trials=0)

    @pytest.mark.parametrize("m", [0, -5])
    def test_m_validation(self, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            incremental_load_experiment(m, (1.0, 0.0, 0.0), trials=1)

    def test_insert_budget_validation(self):
        with pytest.raises(ValueError, match="insert_budget must be >= 0"):
            incremental_load_experiment(100, (0.3, 0.4, 0.3), trials=2, insert_budget=-1)
        # a budget of 0 allows no displacement, and so places fewer entries
        none = incremental_load_experiment(100, (0.3, 0.4, 0.3), trials=5, insert_budget=0)
        full = incremental_load_experiment(100, (0.3, 0.4, 0.3), trials=5)
        assert none.mean() < full.mean()
