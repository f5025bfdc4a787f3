"""Numerical load-threshold solver for irregular cuckoo tables whose
keys draw 2, 4, or 8 candidate cells with fractions (p1, p2, p3).

The threshold c* is the supremum of load factors c for which no
survival fixed point with F below one exists.  Non-trivial fixed points
are parametrized by ``lam = c * d_bar * q`` with

    q(lam) = g_A(exp(-lam)),        c(lam) = lam / (q(lam) * d_bar),
    g_A(p) = sum_i (p_i d_i / d_bar) * (1 - p)**(d_i - 1),
    F(lam) = 1 - sum_i p_i (1 - exp(-lam))**d_i
             + (g_A(exp(-lam)) * d_bar / lam) * (1 - exp(-lam)(1 + lam)).

c* equals c(lam*) at the largest root lam* of F(lam) - 1.  Mixes heavy
in degree-2 keys have F(lam) < 1 for every lam > 0; the root then
degenerates to the lam -> 0 boundary and c* is the infimum of c(lam),
e.g. exactly 1/2 for the all-degree-2 mix.  The trivial q = 0 solution
is excluded by the lam > 0 parametrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hashing import CLASS_DEGREES

LAMBDA_MIN = 1e-4
LAMBDA_MAX = 50.0
GRID_POINTS = 100_000
TOLERANCE = 1e-6  # bisection stops when the bracket is this narrow


@dataclass(frozen=True)
class ClassMix:
    """Fractions of keys with 2, 4, and 8 candidate cells."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        for p in (self.p1, self.p2, self.p3):
            if not -1e-12 <= p <= 1 + 1e-12:
                raise ValueError("fractions must lie in [0, 1]")
        if abs(self.p1 + self.p2 + self.p3 - 1.0) > 1e-12:
            raise ValueError("fractions must sum to 1")

    @classmethod
    def of(cls, p1: float, p2: float) -> "ClassMix":
        return cls(p1, p2, 1.0 - p1 - p2)

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)

    @property
    def d_bar(self) -> float:
        return sum(p * d for p, d in zip(self.fractions, CLASS_DEGREES))


@dataclass(frozen=True)
class ThresholdSolution:
    """Solver output: the threshold and the fixed point behind it."""

    c_star: float
    lam_star: Optional[float]  # None when the root degenerates to lam -> 0
    q: float
    f_value: float


def g_A(p_val, mix: ClassMix):
    """Size-biased survival mixture; maps [0, 1] into [0, 1].

    ``g_A``, :func:`F_of_lambda` and :func:`c_of_lambda` take a float or
    a numpy array and work elementwise.
    """
    d_bar = mix.d_bar
    return sum(
        p * d / d_bar * (1.0 - p_val) ** (d - 1)
        for p, d in zip(mix.fractions, CLASS_DEGREES)
    )


def F_of_lambda(lam, mix: ClassMix):
    """F along the non-trivial fixed-point curve, evaluated exactly."""
    if np.any(np.less_equal(lam, 0)):
        raise ValueError("lambda must be positive")
    u = np.exp(-lam)
    one_minus_u = -np.expm1(-lam)
    qa = g_A(u, mix)
    tail = one_minus_u - lam * u  # 1 - e^-lam (1 + lam), cancellation-safe
    body = sum(p * one_minus_u**d for p, d in zip(mix.fractions, CLASS_DEGREES))
    return 1.0 - body + qa * mix.d_bar / lam * tail


def c_of_lambda(lam, mix: ClassMix):
    """Load factor of the fixed point at a given lambda."""
    return lam / (g_A(np.exp(-lam), mix) * mix.d_bar)


def solve_threshold(mix: ClassMix) -> ThresholdSolution:
    """Threshold c* for a class mix.

    Scans F(lam) - 1 on a fixed log grid for sign changes and refines the
    largest root by bisection to :data:`TOLERANCE`.  When F stays below
    one on the whole grid (degree-2 dominated mixes) the supremum is
    attained at the lam -> 0 boundary and the minimum of c(lam) over the
    grid is returned with ``lam_star = None``.  F(LAMBDA_MAX) is about
    d_bar / 50 <= 0.16 for every mix, so there is no third case.
    """
    lams = np.logspace(math.log10(LAMBDA_MIN), math.log10(LAMBDA_MAX), GRID_POINTS)
    neg = F_of_lambda(lams, mix) < 1.0
    changes = np.flatnonzero(neg[:-1] != neg[1:])
    if len(changes) == 0:
        cs = c_of_lambda(lams, mix)
        lam = float(lams[np.argmin(cs)])
        lam_star = None
    else:
        a, b = float(lams[changes[-1]]), float(lams[changes[-1] + 1])
        fa = F_of_lambda(a, mix) - 1.0
        while b - a > TOLERANCE:
            mid = 0.5 * (a + b)
            fm = F_of_lambda(mid, mix) - 1.0
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        lam = lam_star = 0.5 * (a + b)
    return ThresholdSolution(
        float(c_of_lambda(lam, mix)),
        lam_star,
        float(g_A(np.exp(-lam), mix)),
        float(F_of_lambda(lam, mix)),
    )
