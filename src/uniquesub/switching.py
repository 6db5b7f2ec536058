"""Vertex-switch machinery over a host complement.

For a bijection pi from V(Hc) to V(G), a pair {u, v} of G-vertices is a
switch when each of u, v is G-adjacent to the pi-images of the other's
exclusive Hc-neighbourhood.  Swapping u and v in any embedding then yields
a second embedding.  The exclusive neighbourhoods here drop the two mapped
endpoints themselves: keeping them would demand a vertex adjacent to
itself whenever the preimages are Hc-adjacent, and the swap remains valid
without them (the mutual edge is carried by the embedding directly).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, ldexp
from typing import Iterable, Sequence

from .errors import DomainError
from .graphs import Graph, VertexMap, _bits

Pair = tuple[int, int]


@dataclass(frozen=True)
class SwitchContext:
    hc: Graph
    g: Graph
    pi: VertexMap

    def __post_init__(self) -> None:
        if self.hc.n != self.g.n:
            raise DomainError("host complement and pattern must have equal order")
        if not self.pi.is_bijection or self.pi.n_from != self.hc.n:
            raise DomainError("pi must be a bijection between the two vertex sets")


def _norm(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def required_pairs(hc: Graph, pi: VertexMap, u: int, v: int) -> frozenset[Pair]:
    """G-edges demanded for {u, v} to be a switch (each counted once)."""
    if u == v:
        raise DomainError("switch pairs must be distinct")
    a = pi.inverse(u)
    b = pi.inverse(v)
    skip = (1 << a) | (1 << b)
    only_a = hc.adj[a] & ~hc.adj[b] & ~skip
    only_b = hc.adj[b] & ~hc.adj[a] & ~skip
    return frozenset([_norm(v, pi.apply(w)) for w in _bits(only_a)]
                     + [_norm(u, pi.apply(w)) for w in _bits(only_b)])


def is_pi_switch(ctx: SwitchContext, u: int, v: int) -> bool:
    return all(ctx.g.has_edge(y, z) for y, z in required_pairs(ctx.hc, ctx.pi, u, v))


def is_embedding(ctx: SwitchContext) -> bool:
    """Does pi map every Hc-edge onto a G-edge?"""
    return all(ctx.g.has_edge(ctx.pi.apply(x), ctx.pi.apply(y)) for x, y in ctx.hc.edges())


def apply_switch(ctx: SwitchContext, u: int, v: int) -> VertexMap:
    """Swap the preimages of u and v; returns the verified second embedding."""
    if not is_embedding(ctx):
        raise DomainError("pi is not an embedding of the host complement")
    if not is_pi_switch(ctx, u, v):
        raise DomainError(f"pair ({u}, {v}) is not a switch for this bijection")
    a = ctx.pi.inverse(u)
    b = ctx.pi.inverse(v)
    image = list(ctx.pi.image)
    image[a], image[b] = v, u
    swapped = VertexMap(ctx.pi.n_from, ctx.pi.n_to, tuple(image))
    check = SwitchContext(ctx.hc, ctx.g, swapped)
    if not is_embedding(check):
        raise AssertionError("switched map failed embedding verification")
    return swapped


def find_switch(ctx: SwitchContext,
                candidate_pairs: Iterable[Pair] | None = None) -> Pair | None:
    """First switch pair in lexicographic scan order, or None.  Every given
    candidate is checked before the scan, so a bad one past the first switch
    is still refused."""
    n = ctx.g.n
    if candidate_pairs is None:
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        candidates = sorted({_norm(u, v) for u, v in candidate_pairs})
        for u, v in candidates:
            for w in (u, v):
                if not 0 <= w < n:
                    raise DomainError(f"switch pair vertex {w} outside 0..{n - 1}")
            if u == v:
                raise DomainError(f"switch pair ({u}, {v}) repeats vertex {u}")
    for u, v in candidates:
        if is_pi_switch(ctx, u, v):
            return (u, v)
    return None


def switch_probability(hc: Graph, pi: VertexMap, u: int, v: int) -> Fraction:
    """Probability over uniform G that {u, v} is a switch: 2^-(required pairs)."""
    return Fraction(1, 2 ** len(required_pairs(hc, pi, u, v)))


@dataclass(frozen=True)
class DegreeClassification:
    """High-degree set A, its complement B, and a maximal independent B'."""

    c: float
    a: tuple[int, ...]
    b: tuple[int, ...]
    b_prime: tuple[int, ...]


def classify_degrees(hc: Graph, c: float) -> DegreeClassification:
    """Split vertices at Hc-degree 4c and greedily pick a maximal independent
    subset of the low-degree side (ascending vertex order)."""
    if c < 0:
        raise DomainError("degree constant must be non-negative")
    if not isfinite(c):
        raise DomainError("degree constant must be finite")
    a = tuple(v for v in range(hc.n) if hc.degree(v) >= 4 * c)
    b = tuple(v for v in range(hc.n) if hc.degree(v) < 4 * c)
    chosen_mask = 0
    chosen: list[int] = []
    for v in b:
        if not hc.adj[v] & chosen_mask:
            chosen.append(v)
            chosen_mask |= 1 << v
    return DegreeClassification(c=c, a=a, b=b, b_prime=tuple(chosen))


@dataclass(frozen=True)
class RefinementResult:
    """Iterative neighbourhood refinement of a start set.

    ``depth_exceeded`` marks runs that consumed the whole threshold schedule
    while a qualifying vertex still existed; the fixpoint post-condition is
    certified only when it is False, with ``final_threshold`` the threshold
    no vertex could meet.
    """

    t: tuple[int, ...]
    steps: tuple[tuple[int, float], ...]
    depth: int
    final_threshold: float | None
    depth_exceeded: bool


def refine_t(hc: Graph, b_prime: Iterable[int],
             schedule: Sequence[float]) -> RefinementResult:
    """Repeatedly replace T by its intersection with N(v) for a vertex v
    outside T that sees at least the scheduled threshold of T but not all
    of it; stops at the first threshold with no qualifying vertex."""
    if not schedule:
        raise DomainError("threshold schedule must be non-empty")
    if any(thr <= 0 for thr in schedule):
        raise DomainError("thresholds must be strictly positive")
    if not all(isfinite(thr) for thr in schedule):
        raise DomainError("schedule thresholds must be finite")
    t_mask = 0
    for v in b_prime:
        t_mask |= 1 << v
    steps: list[tuple[int, float]] = []
    for i, thr in enumerate(schedule):
        t_size = t_mask.bit_count()
        pick = -1
        for v in range(hc.n):
            if t_mask >> v & 1:
                continue
            inter = hc.adj[v] & t_mask
            if inter.bit_count() >= thr and inter != t_mask:
                pick = v
                break
        if pick < 0:
            return RefinementResult(t=tuple(_bits(t_mask)), steps=tuple(steps),
                                    depth=i, final_threshold=thr, depth_exceeded=False)
        t_mask &= hc.adj[pick]
        steps.append((pick, thr))
        assert t_mask.bit_count() < t_size
    return RefinementResult(t=tuple(_bits(t_mask)), steps=tuple(steps),
                            depth=len(schedule), final_threshold=None,
                            depth_exceeded=True)


def default_schedule(b_prime_size: int, c: float) -> list[float]:
    """Geometric thresholds |B'|/2, |B'|/4, ... with depth cap 4c+1; refused,
    before any list is built, when the last and smallest underflows to zero."""
    if not isfinite(c):
        raise DomainError("degree constant must be finite")
    depth = int(4 * Fraction(c)) + 1  # exact; 4.0 * c overflows near the float maximum
    if ldexp(b_prime_size, -depth) <= 0:
        raise DomainError("thresholds must be strictly positive")
    return [b_prime_size / 2 ** (i + 1) for i in range(depth)]


def edge_influence_budget(hc: Graph, pi: VertexMap,
                          t: Iterable[int]) -> tuple[dict[Pair, int], int]:
    """Per-pair influence counts b_yz for the sum of switch indicators over
    T-pairs, plus the sum of squares.

    A pair {pi(t), pi(w)} with t in T, w outside T and w not Hc-adjacent to
    t influences exactly |N_Hc(w) & T| indicators; every other pair
    influences none (T is required to be independent in Hc).  Only nonzero
    entries are returned.
    """
    t_set = sorted(set(t))
    t_mask = 0
    for v in t_set:
        t_mask |= 1 << v
    for v in t_set:
        if hc.adj[v] & t_mask:
            raise DomainError("T must be independent in the host complement")
    budget: dict[Pair, int] = {}
    total = 0
    for w in range(hc.n):
        if t_mask >> w & 1:
            continue
        d_w = (hc.adj[w] & t_mask).bit_count()
        if d_w == 0:
            continue
        for tv in t_set:
            if hc.adj[tv] >> w & 1:
                continue
            budget[_norm(pi.apply(tv), pi.apply(w))] = d_w
            total += d_w * d_w
    return budget, total
