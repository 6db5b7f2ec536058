"""Embedding and subgraph-copy counting, uniqueness tests, and f-values.

An embedding of G into H is an injective vertex map under which every edge
of G lands on an edge of H.  A subgraph copy is a (vertex subset, edge
subset) pair of H isomorphic to G; each copy is hit by exactly |Aut(G)|
embeddings, so copies = embeddings / aut_order(G) throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial
from operator import ge
from typing import Iterable, NamedTuple, Sequence

from .canon import aut_order, decode_canon_bytes
from .census import census_entries, enumerate_unlabelled
from .errors import DomainError
from .graphs import Graph, VertexMap, emit_graph6
from .parallel import parallel_map
from .sampling import derive_rng, gnp_half

ALL_SIZES = "all-sizes"
SPANNING_ONLY = "spanning"

F_MAX_EXACT_MAX_N = 7
# The lowest order whose f table is split across the worker map.  On a
# 2-vCPU VM, f-exact --n 6 took 0.50 s in one process against 0.56 s on two
# workers (medians of six runs each), and f-exact --n 7 17-19 s against
# 8.7-12.1 s.
F_POOL_MIN_N = 7
CI_ALPHA = 0.01  # Monte-Carlo estimates carry 99% Clopper-Pearson intervals


@dataclass(frozen=True)
class CountOutcome:
    """An embedding count.

    ``is_exact`` is False when the search stopped at its ``early_exit_at``
    threshold; ``count`` is then that threshold, a lower bound.
    """

    count: int
    is_exact: bool = True

    @property
    def kind(self) -> str:
        """``"zero"``, ``"one"``, ``"exact"`` or ``"at_least"``."""
        if not self.is_exact:
            return "at_least"
        return {0: "zero", 1: "one"}.get(self.count, "exact")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_one(self) -> bool:
        return self.kind == "one"


def count_embeddings(g: Graph, h: Graph, early_exit_at: int | None = None) -> CountOutcome:
    """Count injective edge-preserving maps of ``g`` into ``h``.

    With ``early_exit_at=k`` the search stops at the k-th embedding and
    reports k with ``is_exact`` False.  A larger ``g`` than ``h`` yields zero
    by convention (no injection exists).  The search follows ``g``'s plan
    (``_plan``, ``_plan_count``).  It is skipped, with a count of zero,
    unless the host's descending degrees dominate ``g``'s term by term, as
    in ``f_of_h``'s rule 1: the i + 1 vertices of ``g`` of degree at least d
    go to distinct host vertices of degree at least d.
    """
    if early_exit_at is not None and early_exit_at < 1:
        raise DomainError("early_exit_at must be at least 1")
    if g.n > h.n:
        return CountOutcome(0)
    degrees, prev = _plan(g)
    if not all(map(ge, sorted(map(int.bit_count, h.adj), reverse=True), degrees)):
        return CountOutcome(0)
    count = _plan_count(degrees, prev, h.adj, _degree_masks(h), early_exit_at)
    return CountOutcome(count, early_exit_at is None or count < early_exit_at)


def _plan(g: Graph) -> tuple[tuple[int, ...], list[list[int]]]:
    """The search plan of pattern ``g``: its vertices in descending degree
    order, ties to the lower vertex, given as their degrees and, for each
    position, the earlier positions adjacent to it.  Isolated vertices come
    last."""
    adj = g.adj
    deg = list(map(int.bit_count, adj))
    order = sorted(range(g.n), key=deg.__getitem__, reverse=True)  # stable: ties keep vertex order
    pos = sorted(range(g.n), key=order.__getitem__)  # the inverse of order
    prev = []
    earlier = 0
    for v in order:
        row = adj[v] & earlier
        nbrs = []
        while row:
            low = row & -row
            row ^= low
            nbrs.append(pos[low.bit_length() - 1])
        prev.append(nbrs)
        earlier |= 1 << v
    return tuple(map(deg.__getitem__, order)), prev


def _degree_masks(h: Graph) -> list[int]:
    """Entry d holds the host vertices of degree at least d, for d = 0..n."""
    at_least = [0] * (h.n + 1)
    for w, row in enumerate(h.adj):
        at_least[row.bit_count()] |= 1 << w
    for d in range(h.n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    return at_least


def _plan_count(degrees: Sequence[int], prev: Sequence[Sequence[int]], hadj: Sequence[int],
                at_least: Sequence[int], early_exit_at: int | None) -> int:
    """Embeddings of the first ``len(prev)`` plan positions, at least one,
    into the host with rows ``hadj`` and degree masks ``at_least``, at most
    ``early_exit_at``.

    Position i goes to an unused host vertex adjacent to the images of its
    earlier neighbours ``prev[i]`` and of at least its degree
    ``degrees[i]``: an embedding sends a vertex's neighbours to distinct
    neighbours of its image, so the degree filter removes only host
    vertices that lie on no embedding.  The last position's candidates are
    leaves, counted at once; past ``early_exit_at`` the count is clamped to
    it, the count at which a leaf-by-leaf search would have stopped.
    """
    last = len(prev) - 1
    image_adj = [0] * len(prev)  # hadj row of each placed position's image
    count = 0

    def rec(i: int, used: int) -> bool:
        nonlocal count
        cand = at_least[degrees[i]] & ~used
        for j in prev[i]:
            cand &= image_adj[j]
        if i == last:
            count += cand.bit_count()
            return early_exit_at is not None and count >= early_exit_at
        while cand:
            low = cand & -cand
            cand ^= low
            image_adj[i] = hadj[low.bit_length() - 1]
            if rec(i + 1, used | low):
                return True
        return False

    return early_exit_at if rec(0, 0) else count


def verify_embedding(g: Graph, h: Graph, vmap: VertexMap) -> bool:
    """Independent re-check that ``vmap`` embeds ``g`` into ``h``."""
    if vmap.n_from != g.n or vmap.n_to != h.n:
        return False
    return all(h.has_edge(vmap.apply(u), vmap.apply(v)) for u, v in g.edges())


def count_subgraph_copies(g: Graph, h: Graph) -> CountOutcome:
    """Number of (vertex subset, edge subset) pairs of ``h`` isomorphic to ``g``."""
    emb = count_embeddings(g, h)
    return CountOutcome(emb.count // aut_order(g))


def is_unique_subgraph(g: Graph, h: Graph) -> bool:
    """G is a unique subgraph of H: exactly one subgraph copy."""
    if g.n > h.n:
        return False
    aut = aut_order(g)
    return count_embeddings(g, h, early_exit_at=aut + 1).count == aut


def has_unique_embedding(g: Graph, h: Graph) -> bool:
    """Exactly one embedding of ``g`` into ``h``; orders must match.

    Twins answer before any count: two vertices with equal open or equal
    closed neighbourhoods give a graph an automorphism swapping them.
    Aut(G) acts freely on the embeddings by composition, and so does
    Aut(H), since at equal order every embedding is onto; so with twins in
    either graph the count is even, never 1."""
    if g.n != h.n:
        raise DomainError("unique-embedding test requires equal vertex counts")
    if _has_twins(g.adj) or _has_twins(h.adj):
        return False
    return count_embeddings(g, h, early_exit_at=2).is_one


def _has_twins(adj: Sequence[int]) -> bool:
    """Do two vertices share their open, or their closed, neighbourhood?"""
    return (len(set(adj)) < len(adj)
            or len({row | 1 << u for u, row in enumerate(adj)}) < len(adj))


@dataclass(frozen=True)
class FValue:
    h: Graph
    universe: str
    unique_count: int
    denominator: Fraction
    f: Fraction


class _Pattern(NamedTuple):
    """One order-n pattern class G, as ``f_of_h`` tests it."""

    degrees: tuple[int, ...]  # G's degrees, descending: the plan's and the skip's
    prev: tuple[tuple[int, ...], ...]  # G's plan, cut after its live vertices
    aut: int  # |Aut(G')| = |Aut(G)| / k!, for k isolated vertices
    weight: int  # all-sizes weight: 2 when G has an isolated vertex and an edge


@lru_cache(maxsize=1)
def _pattern_table(n: int) -> tuple[_Pattern, ...]:
    """The order-n census as patterns, in census order.  Equal degree and
    neighbour tuples are one object across the table."""
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    table = []
    for canon_bytes, aut in census_entries(n):
        degrees, prev = _plan(decode_canon_bytes(canon_bytes))
        k = degrees.count(0)
        live = list(map(tuple, prev[:n - k]))
        table.append(_Pattern(shared.setdefault(degrees, degrees),
                              tuple(map(shared.setdefault, live, live)),
                              aut // factorial(k), 1 + (0 < k < n)))
    return tuple(table)


def f_of_h(h: Graph, universe: str = ALL_SIZES) -> FValue:
    """Unique-subgraph classes of ``h`` over the universe, scaled by n!/2^N.

    The spanning universe ranges over the order-n graphs, the all-sizes one
    over every non-empty graph on 1..n vertices; both are read from the
    order-n census alone, whose guard limits n.  A pattern G of order k < n
    with an isolated vertex is never unique: sending that vertex to one its
    copy leaves unused gives a second copy.  Without one, G has exactly as
    many copies as G + (n-k)K1, an order-n pattern with an isolated vertex
    and an edge that stands for G alone, so all-sizes counts it twice.

    Each order-n pattern G, with k isolated vertices and core G' (G without
    them), is decided by three exact rules:

    1. G is skipped unless the descending degrees of ``h`` dominate G's
       term by term: an embedding is a bijection onto the host's vertices
       that sends each vertex to one of at least its degree.
    2. The empty pattern is always unique: its one copy is the host's
       vertex set with no edges.
    3. Any other G is unique iff G' has exactly |Aut(G')| embeddings into
       ``h``: every embedding of G' leaves k host vertices unused, which
       the isolated vertices fill in k! ways, so count(G) = k! count(G')
       and |Aut(G)| = k! |Aut(G')|.  G's plan places the isolated vertices
       last, so G' is searched by G's plan cut after its live vertices.
    """
    n = h.n
    table = _pattern_table(n)  # the census guard trips before the universe check
    if universe not in (ALL_SIZES, SPANNING_ONLY):
        raise DomainError(f"unknown universe {universe!r}")
    all_sizes = universe == ALL_SIZES
    hdeg = sorted((row.bit_count() for row in h.adj), reverse=True)
    hadj, at_least = h.adj, _degree_masks(h)
    unique = 0
    for degrees, prev, aut, weight in table:
        if not all(map(ge, hdeg, degrees)):
            continue
        if not prev or _plan_count(degrees, prev, hadj, at_least, aut + 1) == aut:
            unique += weight if all_sizes else 1
    denominator = Fraction(2 ** (n * (n - 1) // 2), factorial(n))
    return FValue(h=h, universe=universe, unique_count=unique,
                  denominator=denominator, f=Fraction(unique) / denominator)


def f_table(n: int, universe: str = ALL_SIZES, threads: int | None = 1) -> list[FValue]:
    """f of one host per isomorphism class of order ``n``, in census order.

    From ``F_POOL_MIN_N`` up the hosts are split across ``threads`` workers
    (None: all cores), one work unit per host; the table does not depend
    on it."""
    if not 1 <= n <= F_MAX_EXACT_MAX_N:
        raise DomainError(f"exact f maximization supports 1..{F_MAX_EXACT_MAX_N}, got {n}")
    hosts = list(enumerate_unlabelled(n))
    _pattern_table(n)  # built before the map, so that forked workers inherit it
    return list(parallel_map(partial(f_of_h, universe=universe), hosts,
                             threads if n >= F_POOL_MIN_N else 1))


def f_max(table: Iterable[FValue]) -> FValue:
    """The first maximum in census order, so ties break toward the smallest
    canonical encoding."""
    return max(table, key=lambda fv: fv.f)


def f_max_exact(n: int, universe: str = ALL_SIZES) -> tuple[FValue, str]:
    """Maximum f over one host per isomorphism class; returns (value, host g6)."""
    best = f_max(f_table(n, universe))
    return best, emit_graph6(best.h).decode()


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    trials: int
    successes: int
    seed: int
    ci_low: float
    ci_high: float


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided exact binomial confidence interval at level 1 - CI_ALPHA.

    Each end is a Beta quantile, computed as ``scipy.special.betaincinv``:
    Boost's ``ibeta_inv``, the routine ``scipy.stats.beta.ppf`` also runs, so
    the ends are bit-identical to ``beta.ppf`` (``tests/oracles.py`` holds that
    reference) at about a third of the import cost of ``scipy.stats``.
    """
    from scipy.special import betaincinv  # deferred: only estimate's interval needs scipy

    if successes == 0:
        lo = 0.0
    else:
        lo = float(betaincinv(successes, trials - successes + 1, CI_ALPHA / 2))
    if successes == trials:
        hi = 1.0
    else:
        hi = float(betaincinv(successes + 1, trials - successes, 1 - CI_ALPHA / 2))
    return lo, hi


def unique_trial(h: Graph, seed: int, index: int) -> bool:
    """Trial ``index``: does G(n, 1/2) drawn from stream (seed, index) embed
    into ``h`` in exactly one way?"""
    return has_unique_embedding(gnp_half(h.n, derive_rng(seed, index)), h)


def estimate_report(successes: int, trials: int, seed: int) -> EstimateReport:
    """Point estimate and 99% Clopper-Pearson interval from trial outcomes."""
    if trials < 1:
        raise DomainError("trials must be at least 1")
    lo, hi = clopper_pearson(successes, trials)
    return EstimateReport(estimate=successes / trials, trials=trials,
                          successes=successes, seed=seed, ci_low=lo, ci_high=hi)


def estimate_unique_prob(h: Graph, trials: int, seed: int) -> EstimateReport:
    """Monte-Carlo estimate of Pr[G(n,1/2) has a unique embedding into h]."""
    return estimate_report(sum(unique_trial(h, seed, i) for i in range(trials)), trials, seed)
