"""Exact and high-precision evaluators for the closed-form probability bounds.

Everything with a closed form stays an exact Fraction; transcendental
values run through mpmath at 50 significant digits so that slack signs in
bound-vs-exact comparisons are never floating-point artifacts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import comb, factorial, gcd, isfinite, lgamma, log, log10
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from .errors import DomainError

if TYPE_CHECKING:
    # Imported where an evaluator builds an mpmath value, so that a command
    # that builds none never pays mpmath's import (about 40 ms).
    import mpmath

PRECISION_DPS = 50
CHERNOFF_MAX_N = 650  # chernoff_l at n = 650 takes 7-9 s on a 2-vCPU VM, Python 3.11
_LOG10_2 = log10(2)


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
    import mpmath

    _check_trials(total)
    exact = Fraction(comb(total, total // 2), 2 ** total)
    with mpmath.workdps(PRECISION_DPS):
        bound = 1 / mpmath.sqrt(total)
        slack = bound - mpmath.mpf(exact.numerator) / exact.denominator
    holds = exact * exact * total <= 1
    if not holds:
        slack = -abs(slack)
    return BoundReport(name="binomial-point-mass", inputs={"total": total},
                       exact_value=exact, bound_value=bound, slack=slack)


def _check_trials(total: int) -> None:
    if total < 1:
        raise DomainError("need at least one trial")


def binomial_point_mass_log10(total: int) -> float:
    """A lower bound on log10 of the reduced denominator of the exact point
    mass C(t, t//2) / 2^t: C(t, t//2) holds fewer than bit_length(t) factors
    of two (Kummer), so more than t - bit_length(t) of the 2^t stay below."""
    _check_trials(total)
    return (total - total.bit_length()) * _LOG10_2


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
    import mpmath

    with mpmath.workdps(PRECISION_DPS):
        ssq = mpmath.fsum(mpmath.mpf(b) ** 2 for b in influences)
        if ssq == 0:
            return mpmath.mpf(1) if t == 0 else mpmath.mpf(0)
        return min(mpmath.mpf(1), mpmath.e ** (-2 * mpmath.mpf(t) ** 2 / ssq))


def _check_vertices(n: int) -> None:
    if n < 1:
        raise DomainError("need at least one vertex")


def _check_host_edges(n: int, e_h: int) -> int:
    """The pair count N = n(n-1)/2, once n and 0 <= e_h <= N are checked."""
    _check_vertices(n)
    total = n * (n - 1) // 2
    if not 0 <= e_h <= total:
        raise DomainError(f"edge count {e_h} outside 0..{total}")
    return total


def expected_embeddings(n: int, e_h: int) -> Fraction:
    """Mean embedding count of a uniform pattern into a host with e_h edges."""
    total = _check_host_edges(n, e_h)
    return Fraction(factorial(n) * 2 ** e_h, 2 ** total)


def expected_embeddings_log10(n: int, e_h: int) -> float:
    """A lower bound on log10 of the larger of the reduced numerator and
    denominator of ``expected_embeddings(n, e_h)`` = odd(n!) 2^(e_h + v - N),
    where v = n - popcount(n) counts the factors of two in n! (Legendre):
    the odd part of n! stays above, and 2^(N - e_h - v) below when positive."""
    total = _check_host_edges(n, e_h)
    twos = n - n.bit_count()
    return max(lgamma(n + 1) / log(10) - twos * _LOG10_2, (total - e_h - twos) * _LOG10_2)


def density_decay_bound(e_h: int, total: int, steps: int,
                        m_star: int = 0) -> tuple[Fraction, Fraction]:
    """(e_h/total)^steps and the sharper ((e_h-m*)/(total-m*))^steps."""
    _check_density_decay(e_h, total, steps, m_star)
    loose = Fraction(e_h, total) ** steps if total else Fraction(1)
    if steps == 0:
        return Fraction(1), Fraction(1)
    if total == m_star:
        return loose, Fraction(1)  # no pairs left to add
    sharp = Fraction(e_h - m_star, total - m_star) ** steps
    return loose, sharp


def _check_density_decay(e_h: int, total: int, steps: int, m_star: int) -> None:
    if not 0 <= e_h <= total:
        raise DomainError("edge count outside 0..total")
    if steps < 0:
        raise DomainError("steps must be non-negative")
    if not 0 <= m_star <= e_h:
        raise DomainError("m_star must lie in 0..e_h")


def density_decay_log10(e_h: int, total: int, steps: int, m_star: int = 0) -> float:
    """A lower bound on log10 of the larger reduced denominator of the two
    ``density_decay_bound`` values: a base p/q in lowest terms, raised to the
    power steps, keeps the denominator q^steps."""
    _check_density_decay(e_h, total, steps, m_star)
    q = 1
    for num, den in ((e_h, total), (e_h - m_star, total - m_star)):
        if den:
            q = max(q, den // gcd(num, den))
    return steps * log10(q) if q > 1 else 0.0


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
    import mpmath

    with mpmath.workdps(PRECISION_DPS):
        lhs = mpmath.e ** (-mpmath.mpf(c) * n * n * mpmath.mpf(delta) / (17 * total))
        rhs = mpmath.mpf(delta) / (48 * level)
        return BoundReport(name="dense-case", inputs={"delta": delta, "c": c, "n": n,
                                                      "chernoff_L": level},
                           exact_value=lhs, bound_value=rhs, slack=rhs - lhs)


def union_budget(n: int, log_base: float | None = None) -> Fraction | mpmath.mpf:
    """n! * exp(-n log n); exact n!/n^n for the natural log, mpf otherwise."""
    _check_vertices(n)
    if log_base is None:
        return Fraction(factorial(n), n ** n)
    if log_base <= 1:
        raise DomainError("log base must exceed 1")
    if not isfinite(log_base):
        raise DomainError("log base must be finite")
    import mpmath

    with mpmath.workdps(PRECISION_DPS):
        return mpmath.factorial(n) * mpmath.e ** (
            -n * mpmath.log(n) / mpmath.log(log_base))


def union_budget_log10(n: int) -> float:
    """A lower bound on log10 of the reduced denominator of the exact
    ``union_budget(n)`` = n!/n^n: a value below one has a denominator of at
    least its reciprocal, n^n/n!."""
    _check_vertices(n)
    return n * log10(n) - lgamma(n + 1) / log(10)
