import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from sichash.hashing import cell_of_many, class_of_many, class_thresholds
from sichash.thresholds import (
    ClassMix,
    F_of_lambda,
    c_of_lambda,
    g_A,
    solve_threshold,
)

# F at the all-degree-4 mix and lambda=1, evaluated independently with
# 60-digit arithmetic: 1 - (1-1/e)^4 + 4*(1-1/e)^3 * (1 - 2/e)
F_D4_LAMBDA1 = 1.107307269747708242


class TestClassMix:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassMix(0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="lie in"):
            ClassMix(1.5, -0.5, 0.0)

    def test_d_bar(self):
        assert ClassMix.of(0.5, 0.0).d_bar == pytest.approx(5.0)
        assert ClassMix.of(0.0, 1.0).d_bar == pytest.approx(4.0)
        assert ClassMix.of(1.0, 0.0).d_bar == pytest.approx(2.0)


class TestGA:
    def test_at_zero_is_one(self):
        for mix in (ClassMix.of(0.2, 0.3), ClassMix.of(1.0, 0.0)):
            assert g_A(0.0, mix) == pytest.approx(1.0, abs=1e-15)

    def test_at_one_is_zero(self):
        assert g_A(1.0, ClassMix.of(0.3, 0.3)) == 0.0

    def test_single_class_closed_form(self):
        assert g_A(0.5, ClassMix.of(0.0, 1.0)) == pytest.approx(0.125, abs=1e-15)

    @given(st.floats(0.0, 1.0))
    def test_range(self, p_val):
        v = g_A(p_val, ClassMix.of(0.25, 0.5))
        assert 0.0 <= v <= 1.0


class TestFOfLambda:
    def test_limit_at_zero_is_one(self):
        for mix in (ClassMix.of(0.0, 1.0), ClassMix.of(0.5, 0.0), ClassMix.of(0.3, 0.4)):
            assert F_of_lambda(1e-6, mix) == pytest.approx(1.0, abs=1e-4)

    def test_high_precision_anchor(self):
        got = F_of_lambda(1.0, ClassMix.of(0.0, 1.0))
        assert got == pytest.approx(F_D4_LAMBDA1, abs=1e-12)

    @given(st.floats(1e-6, 100.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_finite_everywhere(self, lam, a, b):
        p1 = a * min(1.0, b + 0.5) / 2
        p2 = min(1.0 - p1, b)
        mix = ClassMix(p1, p2, 1.0 - p1 - p2)
        value = F_of_lambda(lam, mix)
        assert math.isfinite(value)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            F_of_lambda(0.0, ClassMix.of(0.0, 1.0))


class TestSolveThreshold:
    def test_binary_mix_anchor(self):
        sol = solve_threshold(ClassMix.of(1.0, 0.0))
        assert sol.c_star == pytest.approx(0.500, abs=1e-3)
        assert sol.lam_star is None

    def test_quaternary_mix_anchor(self):
        sol = solve_threshold(ClassMix.of(0.0, 1.0))
        assert sol.c_star == pytest.approx(0.9768, abs=5e-4)
        assert sol.lam_star is not None

    def test_octonary_mix_sane(self):
        sol = solve_threshold(ClassMix.of(0.0, 0.0))
        assert 0.99 < sol.c_star < 1.0

    def test_deterministic(self):
        a = solve_threshold(ClassMix.of(0.33, 0.34))
        b = solve_threshold(ClassMix.of(0.33, 0.34))
        assert a.c_star == b.c_star and a.lam_star == b.lam_star

    def test_fixed_point_identity(self):
        sol = solve_threshold(ClassMix.of(0.2, 0.5))
        assert sol.lam_star is not None
        assert abs(g_A(math.exp(-sol.lam_star), ClassMix.of(0.2, 0.5)) - sol.q) < 1e-10

    def test_c_matches_curve(self):
        mix = ClassMix.of(0.1, 0.8)
        sol = solve_threshold(mix)
        assert sol.c_star == pytest.approx(c_of_lambda(sol.lam_star, mix), abs=1e-12)

    def test_named_configs_ordering(self):
        # equal-space mixes: thresholds grow toward the 2/8 extremes
        c = {
            name: solve_threshold(ClassMix.of(*ps)).c_star
            for name, ps in (
                ("A", (0.0, 1.0)),
                ("B", (0.1, 0.8)),
                ("C", (0.33, 0.34)),
                ("D", (0.5, 0.0)),
            )
        }
        assert c["A"] < c["B"] < c["C"] < c["D"]

    def test_monotone_in_degree_mass(self):
        # moving probability mass to higher degrees never lowers c*
        chain = [ClassMix.of(1.0 - t / 10, t / 10) for t in range(11)]
        chain += [ClassMix(0.0, 1.0 - s / 10, s / 10) for s in range(11)]
        values = [solve_threshold(m).c_star for m in chain]
        diffs = np.diff(values)
        assert (diffs >= -1e-9).all()

def _matching_deficiency(rng, n, m, fractions):
    t1, t2 = class_thresholds(fractions[0], fractions[1])
    hi = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    lo = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    degs = class_of_many(lo, t1, t2).astype(np.int64)
    rows = np.repeat(np.arange(n), degs)
    fidx = np.concatenate([np.arange(d) for d in degs])
    cols = cell_of_many(np.repeat(hi, degs), np.repeat(lo, degs), 0, fidx, m)
    graph = csr_matrix(
        (np.ones(len(rows), np.int8), (rows, cols.astype(np.int64))), shape=(n, m)
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    return n - int((match >= 0).sum())


class TestEmpiricalCrossValidation:
    """The solved thresholds separate feasible from infeasible loads in
    random instances, checked through the independent matching route."""

    M = 50_000

    def test_pure_degree4_mix_flips_at_threshold(self):
        c_star = solve_threshold(ClassMix.of(0.0, 1.0)).c_star
        rng = np.random.default_rng(501)
        below = sum(
            _matching_deficiency(rng, int((c_star - 0.01) * self.M), self.M, (0.0, 1.0)) == 0
            for _ in range(10)
        )
        above = sum(
            _matching_deficiency(rng, int((c_star + 0.01) * self.M), self.M, (0.0, 1.0)) > 0
            for _ in range(10)
        )
        assert below >= 9
        assert above >= 9

    def test_mixed_2_8_deficiency_jumps_at_threshold(self):
        # the 50/0/50 mix keeps a constant-probability chance of one or two
        # blocked degree-2 pairs below threshold, so compare deficiencies:
        # O(1) below c*, a positive fraction of the table above it
        c_star = solve_threshold(ClassMix.of(0.5, 0.0)).c_star
        assert c_star == pytest.approx(0.992, abs=2e-3)
        rng = np.random.default_rng(502)
        below = [
            _matching_deficiency(rng, int((c_star - 0.02) * self.M), self.M, (0.5, 0.0))
            for _ in range(6)
        ]
        at_full = [
            _matching_deficiency(rng, self.M, self.M, (0.5, 0.0)) for _ in range(6)
        ]
        assert max(below) <= 10
        assert min(at_full) >= 100
