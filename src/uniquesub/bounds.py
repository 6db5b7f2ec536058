"""Exact and high-precision evaluators for the closed-form probability bounds.

Everything with a closed form stays an exact Fraction; transcendental
values run through mpmath at 50 significant digits so that slack signs in
bound-vs-exact comparisons are never floating-point artifacts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import comb, factorial, isfinite
from typing import Any, Iterator, Sequence

import mpmath

from .errors import DomainError

PRECISION_DPS = 50
CHERNOFF_MAX_N = 650  # chernoff_l at n = 650 takes 7-9 s on a 2-vCPU VM, Python 3.11


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: dict[str, Any]
    exact_value: Any
    bound_value: Any
    slack: Any


def binomial_point_mass_max(total: int) -> BoundReport:
    """Largest point mass of Bin(total, 1/2) against the 1/sqrt(total) bound.

    The comparison is decided exactly (squared form), so a failing regime
    would be reported rather than lost to rounding.
    """
    if total < 1:
        raise DomainError("need at least one trial")
    exact = Fraction(comb(total, total // 2), 2 ** total)
    with mpmath.workdps(PRECISION_DPS):
        bound = 1 / mpmath.sqrt(total)
        slack = bound - mpmath.mpf(exact.numerator) / exact.denominator
    holds = exact * exact * total <= 1
    if not holds:
        slack = -abs(slack)
    return BoundReport(name="binomial-point-mass", inputs={"total": total},
                       exact_value=exact, bound_value=bound, slack=slack)


def _edge_count_tails(n: int) -> Iterator[Fraction]:
    """Pr[|Bin(N,1/2) - N/2| >= L n] with N = n(n-1)/2 at L = 0, 1, ..., ending at 0."""
    total = n * (n - 1) // 2
    buckets = [0] * (total // (2 * n) + 2)
    coeff = 1  # comb(total, t), updated in place
    for t in range(total // 2 + 1):  # t and total - t lie equally far from the mean
        buckets[(total - 2 * t) // (2 * n)] += coeff if 2 * t == total else 2 * coeff
        coeff = coeff * (total - t) // (t + 1)
    masses = list(accumulate(reversed(buckets)))
    return (Fraction(mass, 2 ** total) for mass in reversed(masses))


def exact_edge_count_tail(n: int, radius_l: int) -> Fraction:
    """Pr[|Bin(N,1/2) - N/2| >= radius_l * n] with N = n(n-1)/2, exactly."""
    return next(islice(_edge_count_tails(n), radius_l, None), Fraction(0))


def chernoff_l(delta: float, n: int) -> tuple[int, Fraction]:
    """Smallest integer L with the exact two-sided edge-count tail <= delta/4."""
    if not 0 < delta < 1:
        raise DomainError("delta must lie strictly between 0 and 1")
    if n < 2:
        raise DomainError("need at least two vertices")
    if n > CHERNOFF_MAX_N:
        raise DomainError(f"exact Chernoff radius supports n <= {CHERNOFF_MAX_N}, got n={n}")
    target = Fraction(delta) / 4
    return next((lv, tail) for lv, tail in enumerate(_edge_count_tails(n)) if tail <= target)


def azuma_tail(t: float, influences: Sequence[float]) -> mpmath.mpf:
    """Bounded-differences tail exp(-2 t^2 / sum b_i^2), clamped to one."""
    if t < 0:
        raise DomainError("deviation must be non-negative")
    if not isfinite(t):
        raise DomainError("deviation t must be finite")
    if not all(isfinite(b) for b in influences):
        raise DomainError("influences b must be finite")
    with mpmath.workdps(PRECISION_DPS):
        ssq = mpmath.fsum(mpmath.mpf(b) ** 2 for b in influences)
        if ssq == 0:
            return mpmath.mpf(1) if t == 0 else mpmath.mpf(0)
        return min(mpmath.mpf(1), mpmath.e ** (-2 * mpmath.mpf(t) ** 2 / ssq))


def expected_embeddings(n: int, e_h: int) -> Fraction:
    """Mean embedding count of a uniform pattern into a host with e_h edges."""
    if n < 1:
        raise DomainError("need at least one vertex")
    total = n * (n - 1) // 2
    if not 0 <= e_h <= total:
        raise DomainError(f"edge count {e_h} outside 0..{total}")
    return Fraction(factorial(n) * 2 ** e_h, 2 ** total)


def density_decay_bound(e_h: int, total: int, steps: int,
                        m_star: int = 0) -> tuple[Fraction, Fraction]:
    """(e_h/total)^steps and the sharper ((e_h-m*)/(total-m*))^steps."""
    if not 0 <= e_h <= total:
        raise DomainError("edge count outside 0..total")
    if steps < 0:
        raise DomainError("steps must be non-negative")
    if not 0 <= m_star <= e_h:
        raise DomainError("m_star must lie in 0..e_h")
    loose = Fraction(e_h, total) ** steps if total else Fraction(1)
    if steps == 0:
        return Fraction(1), Fraction(1)
    if total == m_star:
        return loose, Fraction(1)  # no pairs left to add
    sharp = Fraction(e_h - m_star, total - m_star) ** steps
    return loose, sharp


def dense_case_inequality(delta: float, c: float, n: int) -> BoundReport:
    """Evaluate exp(-c n^2 delta / (17 N)) < delta / (48 L) for a supplied c.

    L is the minimal Chernoff radius for this delta and n; the report's
    slack is positive exactly when the supplied constant is large enough
    for the density reduction to close at this n.
    """
    if c <= 0:
        raise DomainError("the density constant must be positive")
    if not isfinite(c):
        raise DomainError("the density constant c must be finite")
    level, _ = chernoff_l(delta, n)  # always >= 1: the radius-0 tail is 1
    total = n * (n - 1) // 2
    with mpmath.workdps(PRECISION_DPS):
        lhs = mpmath.e ** (-mpmath.mpf(c) * n * n * mpmath.mpf(delta) / (17 * total))
        rhs = mpmath.mpf(delta) / (48 * level)
        return BoundReport(name="dense-case", inputs={"delta": delta, "c": c, "n": n,
                                                      "chernoff_L": level},
                           exact_value=lhs, bound_value=rhs, slack=rhs - lhs)


def union_budget(n: int, log_base: float | None = None) -> Fraction | mpmath.mpf:
    """n! * exp(-n log n); exact n!/n^n for the natural log, mpf otherwise."""
    if n < 1:
        raise DomainError("need at least one vertex")
    if log_base is None:
        return Fraction(factorial(n), n ** n)
    if log_base <= 1:
        raise DomainError("log base must exceed 1")
    if not isfinite(log_base):
        raise DomainError("log base must be finite")
    with mpmath.workdps(PRECISION_DPS):
        return mpmath.mpf(factorial(n)) * mpmath.e ** (
            -n * mpmath.log(n) / mpmath.log(log_base))
