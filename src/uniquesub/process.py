"""The random graph process: embedding trajectories against a fixed host.

A trace is a uniformly random ordering of all vertex pairs; G_m is the
graph on the first m pairs.  Because adding edges to the pattern can only
destroy embeddings, the embedding count into a fixed host is non-increasing
in m, and the set of m with exactly one embedding is an interval, which the
locator below exploits with O(log N) early-exit counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor, isfinite
from typing import Iterable, Mapping

from .embedding import CountOutcome, count_embeddings
from .errors import DomainError
from .graphs import Graph, MAX_VERTICES
from .sampling import derive_rng, random_pair_order


@dataclass(frozen=True)
class ProcessTrace:
    """Edge ordering of all n(n-1)/2 pairs; graphs are materialized on demand."""

    n: int
    seed: int
    edge_order: tuple[tuple[int, int], ...]

    @property
    def total_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def graph_at(self, m: int) -> Graph:
        if not 0 <= m <= self.total_pairs:
            raise DomainError(f"step {m} outside 0..{self.total_pairs}")
        adj = [0] * self.n
        for u, v in self.edge_order[:m]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))


@dataclass(frozen=True)
class UniquenessInterval:
    """Steps with exactly one embedding into the host; lo/hi are None if empty."""

    lo: int | None
    hi: int | None

    @property
    def is_empty(self) -> bool:
        return self.lo is None

    def length(self) -> int:
        return 0 if self.is_empty else self.hi - self.lo + 1  # type: ignore[operator]


@dataclass(frozen=True)
class XStatistic:
    """``x`` steps of ``interval`` fall inside the window [i_lo, i_hi]."""

    L: float
    i_lo: int
    i_hi: int
    x: int
    interval: UniquenessInterval


def sample_trace(n: int, seed: int, index: int | None = None) -> ProcessTrace:
    """Uniform random pair ordering; ``index`` derives a per-trace stream."""
    if not 1 <= n <= MAX_VERTICES:
        raise DomainError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    rng = derive_rng(seed, index)
    return ProcessTrace(n=n, seed=seed, edge_order=random_pair_order(n, rng))


def embedding_trajectory(trace: ProcessTrace, h: Graph,
                         probe_set: Iterable[int]) -> Mapping[int, CountOutcome]:
    """Exact embedding counts of G_m into ``h`` at each probed m."""
    if h.n != trace.n:
        raise DomainError("host order must match the trace order")
    return {m: count_embeddings(trace.graph_at(m), h)
            for m in sorted(set(probe_set))}


def _category(trace: ProcessTrace, h: Graph, m: int) -> int:
    """0, 1, or 2 meaning zero / one / at least two embeddings at step m."""
    out = count_embeddings(trace.graph_at(m), h, early_exit_at=2)
    return min(out.count, 2)


def uniqueness_interval(trace: ProcessTrace, h: Graph) -> UniquenessInterval:
    """Locate {m : exactly one embedding} by binary search on the category.

    The category (>=2 / ==1 / ==0) is non-increasing in m, so the interval
    is delimited by the first step with category <= 1 and the last with
    category >= 1.  Both endpoints are re-verified by direct counts, along
    with their outer neighbours.
    """
    if h.n != trace.n:
        raise DomainError("host order must match the trace order")
    total = trace.total_pairs

    # First m with at most one embedding (total + 1 if none).
    lo, hi = 0, total + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _category(trace, h, mid) <= 1:
            hi = mid
        else:
            lo = mid + 1
    first_le_one = lo

    # Last m with at least one embedding (m = 0 always embeds the empty graph).
    lo, hi = 0, total
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _category(trace, h, mid) >= 1:
            lo = mid
        else:
            hi = mid - 1
    last_ge_one = lo

    if first_le_one > last_ge_one:
        return UniquenessInterval(None, None)
    interval = UniquenessInterval(first_le_one, last_ge_one)
    _verify_interval(trace, h, interval)
    return interval


def _verify_interval(trace: ProcessTrace, h: Graph, interval: UniquenessInterval) -> None:
    total = trace.total_pairs
    lo, hi = interval.lo, interval.hi
    assert lo is not None and hi is not None
    for m, want in ((lo, 1), (hi, 1)):
        if _category(trace, h, m) != want:
            raise AssertionError(f"interval endpoint {m} fails direct verification")
    if lo - 1 >= 0 and _category(trace, h, lo - 1) != 2:
        raise AssertionError("step before the interval should have two embeddings")
    if hi + 1 <= total and _category(trace, h, hi + 1) != 0:
        raise AssertionError("step after the interval should have no embedding")


def x_statistic(trace: ProcessTrace, h: Graph, L: float) -> XStatistic:
    """Size of the uniqueness interval inside [N/2 - Ln, N/2 + Ln], clipped."""
    if L <= 0:
        raise DomainError("interval half-width coefficient must be positive")
    if not isfinite(L):
        raise DomainError("interval half-width coefficient must be finite")
    total = trace.total_pairs
    center = Fraction(total, 2)
    radius = Fraction(L) * trace.n
    i_lo = max(0, ceil(center - radius))
    i_hi = min(total, floor(center + radius))
    interval = uniqueness_interval(trace, h)
    if interval.is_empty or i_lo > i_hi:
        x = 0
    else:
        x = max(0, min(interval.hi, i_hi) - max(interval.lo, i_lo) + 1)  # type: ignore[arg-type]
    return XStatistic(L=L, i_lo=i_lo, i_hi=i_hi, x=x, interval=interval)


def supergraph_completion_prob(e_h: int, total: int, m_star: int, m2: int) -> Fraction:
    """Probability that every pair added between steps m* and m2 stays inside
    a fixed e_h-pair set, given m* pairs already inside it."""
    if not 0 <= m_star <= m2 <= total:
        raise DomainError("need 0 <= m_star <= m2 <= total pairs")
    if not m_star <= e_h <= total:
        raise DomainError("need m_star <= e_h <= total pairs")
    return Fraction(comb(e_h - m_star, m2 - m_star), comb(total - m_star, m2 - m_star))
