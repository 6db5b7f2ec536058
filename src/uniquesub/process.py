"""The random graph process: embedding trajectories against a fixed host.

A trace is a uniformly random ordering of all vertex pairs; G_m is the
graph on the first m pairs.  Because adding edges to the pattern can only
destroy embeddings, the embedding count into a fixed host is non-increasing
in m, and the set of m with exactly one embedding is an interval, which the
locator below exploits with O(log N) early-exit counts.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil, comb, floor, isfinite
from typing import Any, Iterable, Mapping

from .embedding import CountOutcome, count_embeddings
from .errors import DomainError
from .graphs import Graph, MAX_VERTICES, _graph
from .parallel import parallel_map
from .sampling import derive_rng, random_pair_order

# An embedding trajectory counts every embedding at each probed step.  Step
# 0's n! are counted without a search, its vertices all being isolated, but
# the middle steps' live parts still span nearly every vertex.  One full
# trajectory (three seeded traces each, one process, 2-vCPU VM) took at most
# 0.80 s on K9 minus a 4-edge matching, 0.21 s on G(9, 0.85), 0.08 s on
# G(9, 0.7) and 0.03 s on G(9, 0.5); K9 takes 1 ms, its complement pattern
# being edgeless.  K10 minus a 5-edge matching took 9.4 s.  The same limit as
# the census's MAX_ENUMERATION_N.
SCAN_ALL_MAX_N = 9


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
        """G_m; its rows are valid by construction, the pairs being ``pair_list``'s."""
        if not 0 <= m <= self.total_pairs:
            raise DomainError(f"step {m} outside 0..{self.total_pairs}")
        adj = [0] * self.n
        for u, v in self.edge_order[:m]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return _graph(self.n, tuple(adj))


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


def check_scan_order(n: int) -> None:
    """Refuse an embedding trajectory, ``process --scan-all``'s scan, on a
    host of more than ``SCAN_ALL_MAX_N`` vertices."""
    if n > SCAN_ALL_MAX_N:
        raise DomainError(f"--scan-all supports hosts of 1..{SCAN_ALL_MAX_N} vertices, "
                          f"got {n}: the middle steps count every embedding of patterns "
                          "that span nearly every vertex")


def embedding_trajectory(trace: ProcessTrace, h: Graph,
                         probe_set: Iterable[int]) -> Mapping[int, CountOutcome]:
    """Exact embedding counts of G_m into ``h`` at each probed m; refused on
    hosts above ``SCAN_ALL_MAX_N`` vertices, whatever the probes."""
    if h.n != trace.n:
        raise DomainError("host order must match the trace order")
    check_scan_order(h.n)
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

    steps = range(total + 1)

    def rank(m: int) -> int:  # non-decreasing in m
        return -_category(trace, h, m)

    first_le_one = bisect_left(steps, -1, key=rank)  # total + 1 if none
    # m = 0 always embeds the empty graph, so the first step with none is >= 1.
    last_ge_one = bisect_left(steps, 0, lo=max(first_le_one, 1), key=rank) - 1

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
    _check_half_width(L)
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


def _check_half_width(L: float) -> None:
    if L <= 0:
        raise DomainError("interval half-width coefficient must be positive")
    if not isfinite(L):
        raise DomainError("interval half-width coefficient must be finite")


def trace_record(h: Graph, seed: int, L: float | None, scan_all: bool,
                 index: int) -> dict[str, Any]:
    """Trace ``index`` of a run against ``h``: its uniqueness interval, with
    ``L`` the x statistic and its window, and with ``scan_all`` the exact
    count at every step."""
    trace = sample_trace(h.n, seed, index)
    rec: dict[str, Any] = {"trace_index": index, "seed": seed}
    if L is None:
        interval = uniqueness_interval(trace, h)
    else:
        xs = x_statistic(trace, h, L)
        interval = xs.interval
        rec.update(L=L, x=xs.x, window=[xs.i_lo, xs.i_hi])
    rec["interval"] = None if interval.is_empty else [interval.lo, interval.hi]
    if scan_all:
        steps = range(trace.total_pairs + 1)
        rec["probes"] = [[m, out.count]
                         for m, out in embedding_trajectory(trace, h, steps).items()]
    return rec


def run_traces(h: Graph, traces: int, seed: int, L: float | None = None,
               scan_all: bool = False, threads: int | None = 1) -> list[dict[str, Any]]:
    """``trace_record`` 0..traces-1 against ``h``, in order, on at most
    ``threads`` workers (None: all cores).  Each trace draws from its own
    stream, so the records are the same at any worker count.  Bad input is
    refused before any worker starts."""
    if traces < 1:
        raise DomainError("traces must be at least 1")
    if seed < 0:
        raise DomainError("seed must be non-negative")
    if L is not None:
        _check_half_width(L)
    if scan_all:
        check_scan_order(h.n)
    return list(parallel_map(partial(trace_record, h, seed, L, scan_all), range(traces),
                             threads))


def supergraph_completion_prob(e_h: int, total: int, m_star: int, m2: int) -> Fraction:
    """Probability that every pair added between steps m* and m2 stays inside
    a fixed e_h-pair set, given m* pairs already inside it."""
    if not 0 <= m_star <= m2 <= total:
        raise DomainError("need 0 <= m_star <= m2 <= total pairs")
    if not m_star <= e_h <= total:
        raise DomainError("need m_star <= e_h <= total pairs")
    return Fraction(comb(e_h - m_star, m2 - m_star), comb(total - m_star, m2 - m_star))
