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
from math import factorial, perm
from operator import ge
from typing import Iterable, Sequence

from .canon import aut_order, canonicalize, decode_canon_bytes
from .census import census_entries
from .errors import DomainError
from .graphs import Graph, VertexMap, _graph, complement, emit_graph6
from .parallel import parallel_map
from .sampling import derive_rng, gnp_half

ALL_SIZES = "all-sizes"
SPANNING_ONLY = "spanning"

F_MAX_EXACT_MAX_N = 8
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
    by convention (no injection exists).  ``_count`` holds the exact rules.

    At equal order an embedding is a bijection, and pi embeds G into H iff
    pi^-1 embeds H^c into G^c: both say that no edge of G lands on a
    non-edge of H.  The two counts are equal, and so is each count clamped
    at ``early_exit_at``.  The search therefore maps the pattern with fewer
    edges: H^c into G^c when e(G) + e(H) > N = n(n-1)/2, G into H otherwise,
    a tie included.
    """
    if early_exit_at is not None and early_exit_at < 1:
        raise DomainError("early_exit_at must be at least 1")
    if g.n > h.n:
        return CountOutcome(0)
    host, edges, _, plan_c = _host_side(h.adj)
    if g.n == h.n and g.edge_count() + edges > g.n * (g.n - 1) // 2:
        count = _count(*plan_c, _host(complement(g)), early_exit_at)
    else:
        count = _count(*_plan(g), host, early_exit_at)
    return CountOutcome(count, early_exit_at is None or count < early_exit_at)


@lru_cache(maxsize=1)
def _host_side(adj: tuple[int, ...]) -> tuple[tuple[list[int], tuple[int, ...], list[int]], int,
                                               bool, tuple[tuple[int, ...], list[list[int]]]]:
    """What every count into the host with rows ``adj`` reads of it: its
    ``_host``, its edge count, whether it has twins, and the plan of its
    complement.  One entry is kept: a run's trials and traces share their
    host, so each worker misses once per run."""
    h = _graph(len(adj), adj)
    return _host(h), h.edge_count(), _has_twins(adj), _plan(complement(h))


def _count(degrees: Sequence[int], prev: Sequence[Sequence[int]],
           host: tuple[list[int], Sequence[int], list[int]], early_exit_at: int | None) -> int:
    """Embeddings of the pattern with plan (``degrees``, ``prev``) into
    ``host`` (``_host``), clamped to ``early_exit_at``, by two exact rules:

    1. Zero unless the host's descending degrees dominate the pattern's term
       by term, since an embedding is injective and never lowers a degree.
    2. Only the live positions ``prev`` are searched: each live embedding
       leaves m host vertices free, which the k isolated vertices fill in
       perm(m, k) ways, so the search stops at ceil(early_exit_at / perm(m, k)).
    """
    hdeg, hadj, at_least = host
    if not all(map(ge, hdeg, degrees)):
        return 0
    fill = perm(len(hdeg) - len(prev), len(degrees) - len(prev))
    threshold = early_exit_at and -(-early_exit_at // fill)
    count = (_plan_count(degrees, prev, hadj, at_least, threshold) if prev else 1) * fill
    return count if early_exit_at is None else min(count, early_exit_at)


def _plan(g: Graph) -> tuple[tuple[int, ...], list[list[int]]]:
    """The search plan of pattern ``g``: its vertices in descending degree
    order, ties to the lower vertex, given as their degrees and, for each
    live (non-isolated) position, the earlier positions adjacent to it.
    Isolated vertices come last."""
    adj = g.adj
    deg = list(map(int.bit_count, adj))
    order = sorted(range(g.n), key=deg.__getitem__, reverse=True)  # stable: ties keep vertex order
    pos = sorted(range(g.n), key=order.__getitem__)  # the inverse of order
    prev = []
    earlier = 0
    for v in order[:g.n - deg.count(0)]:
        row = adj[v] & earlier
        nbrs = []
        while row:
            low = row & -row
            row ^= low
            nbrs.append(pos[low.bit_length() - 1])
        prev.append(nbrs)
        earlier |= 1 << v
    return tuple(map(deg.__getitem__, order)), prev


def _host(h: Graph) -> tuple[list[int], tuple[int, ...], list[int]]:
    """The host as ``_count`` reads it: its degrees in descending order, its
    rows, and its degree masks, entry d holding the vertices of degree at
    least d, for d = 0..n."""
    deg = list(map(int.bit_count, h.adj))
    at_least = [0] * (h.n + 1)
    for w, d in enumerate(deg):
        at_least[d] |= 1 << w
    for d in range(h.n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    return sorted(deg, reverse=True), h.adj, at_least


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
    if _host_side(h.adj)[2] or _has_twins(g.adj):
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


def f_of_h(h: Graph, universe: str = ALL_SIZES) -> FValue:
    """Unique-subgraph classes of ``h`` over the universe, scaled by n!/2^N.

    The spanning universe ranges over the order-n graphs, the all-sizes one
    over every non-empty graph on 1..n vertices; both are read from the
    order-n census alone, whose guard limits n.  A pattern G of order k < n
    with an isolated vertex is never unique: sending that vertex to one its
    copy leaves unused gives a second copy.  Without one, G has exactly as
    many copies as G + (n-k)K1, an order-n pattern with an isolated vertex
    and an edge that stands for G alone, so all-sizes counts it twice.

    An order-n pattern G is unique iff it has exactly |Aut(G)| embeddings
    into ``h``, as ``_count`` decides.
    """
    n = h.n
    entries = census_entries(n)  # the census guard trips before the universe check
    if universe not in (ALL_SIZES, SPANNING_ONLY):
        raise DomainError(f"unknown universe {universe!r}")
    host = _host(h)
    unique = 0
    for canon_bytes, aut in entries:
        degrees, prev = _plan(decode_canon_bytes(canon_bytes))
        if _count(degrees, prev, host, aut + 1) == aut:
            unique += 2 if universe == ALL_SIZES and 0 < len(prev) < n else 1
    return _f_value(h, universe, unique)


def _f_value(h: Graph, universe: str, unique: int) -> FValue:
    denominator = Fraction(2 ** (h.n * (h.n - 1) // 2), factorial(h.n))
    return FValue(h=h, universe=universe, unique_count=unique,
                  denominator=denominator, f=Fraction(unique) / denominator)


def _signature(adj: Sequence[int]) -> bytes:
    """An isomorphism invariant of the graph with rows ``adj``: for each
    vertex v the record ``bytes([deg v, triangles through v, *sorted
    neighbour degrees])``, the records sorted and joined.  A record's first
    byte gives its length, so the join keeps the multiset of records."""
    deg = list(map(int.bit_count, adj))
    records = []
    for v, row in enumerate(adj):
        nbr_deg = []
        shared = 0  # twice the triangles through v
        r = row
        while r:
            low = r & -r
            r ^= low
            w = low.bit_length() - 1
            nbr_deg.append(deg[w])
            shared += (adj[w] & row).bit_count()
        nbr_deg.sort()
        records.append(bytes([deg[v], shared >> 1, *nbr_deg]))
    records.sort()
    return b"".join(records)


def _classes_by_key(hosts: Sequence[Graph]) -> dict[bytes, int]:
    """Each ``_signature`` of ``hosts`` to the index of the one host that
    has it, or to -1 when two or more share it."""
    owner: dict[bytes, int] = {}
    for i, h in enumerate(hosts):
        key = _signature(h.adj)
        owner[key] = -1 if key in owner else i
    return owner


def f_table(n: int, universe: str = ALL_SIZES) -> list[FValue]:
    """f of one host per isomorphism class of order ``n``, in census order,
    every host decided in one pass over the census by edge deletion.

    The child H - e holds a spanning class G iff some copy of G avoids e, so
    exactly e(H) - |edges shared by all copies| children hold G.  Two
    distinct copies of equal size share fewer than e(G) edges.  Therefore G,
    held by some child, is unique in H iff e(G) + #children holding G = e(H);
    and H is unique in itself.  Hosts are taken one edge layer at a time, each
    with one bitset over census order of the classes it holds (``held``, H and
    its children's), and a layer reads only the layer below.  Each class's
    counter, in binary bit planes, starts at its edge count (``edge_planes``)
    and gains one per child holding it.  An order-n class counts twice in all
    sizes when it has an isolated vertex and an edge (``twice``, empty for the
    spanning universe), as in ``f_of_h``.

    A child is an order-n graph, so its class is in the census and its
    ``_signature`` is the signature of some class.  Isomorphic graphs share
    signatures, so when one class alone has the child's signature, the child
    is of that class; only a child whose signature two classes share is
    canonicalised.  The signature names every class alone up to n = 7, and
    12,174 of the 12,346 at n = 8.  Each of its fields fits a byte while
    n <= 24: a vertex lies on at most C(23, 2) = 253 triangles."""
    if not 1 <= n <= F_MAX_EXACT_MAX_N:
        raise DomainError(f"exact f maximization supports 1..{F_MAX_EXACT_MAX_N}, got {n}")
    if universe not in (ALL_SIZES, SPANNING_ONLY):
        raise DomainError(f"unknown universe {universe!r}")
    entries = census_entries(n)
    index = {canon_bytes: i for i, (canon_bytes, _) in enumerate(entries)}
    hosts = [decode_canon_bytes(canon_bytes) for canon_bytes, _ in entries]
    by_key = _classes_by_key(hosts)
    npairs = n * (n - 1) // 2
    layers: list[list[int]] = [[] for _ in range(npairs + 1)]  # entry k: the hosts with k edges
    edge_planes = [0] * (2 * npairs).bit_length()  # a held class's counter stays below 2 e(H)
    twice = 0
    for i, h in enumerate(hosts):
        e = h.edge_count()
        layers[e].append(i)
        for j in range(len(edge_planes)):
            edge_planes[j] |= (e >> j & 1) << i
        if universe == ALL_SIZES and e and 0 in h.adj:
            twice |= 1 << i
    unique = [0] * len(hosts)
    below: dict[int, int] = {}
    for e, layer in enumerate(layers):
        held: dict[int, int] = {}
        for i in layer:
            h, planes, children = hosts[i], list(edge_planes), 0
            for u, v in h.edges():
                adj = list(h.adj)
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                child = by_key[_signature(adj)]
                if child < 0:
                    child = index[canonicalize(Graph(n, tuple(adj))).canon_bytes]
                carry = below[child]
                children |= carry
                for j, plane in enumerate(planes):
                    planes[j], carry = plane ^ carry, plane & carry
            once = children
            for j, plane in enumerate(planes):
                once &= plane if e >> j & 1 else ~plane
            once |= 1 << i
            held[i] = children | 1 << i
            unique[i] = once.bit_count() + (once & twice).bit_count()
        below = held
    return [_f_value(h, universe, unique[i]) for i, h in enumerate(hosts)]


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


def estimate_unique_prob(h: Graph, trials: int, seed: int,
                         threads: int | None = 1) -> EstimateReport:
    """Monte-Carlo estimate of Pr[G(n,1/2) has a unique embedding into h],
    with its 99% Clopper-Pearson interval, from ``unique_trial`` 0..trials-1
    on at most ``threads`` workers (None: all cores).  Each trial draws from
    its own stream, so the report is the same at any worker count.  Bad
    input is refused before any worker starts."""
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if seed < 0:
        raise DomainError("seed must be non-negative")
    wins = parallel_map(partial(unique_trial, h, seed), range(trials), threads)
    # The interval's scipy.special (about 0.3 s with the numpy it loads) is
    # imported here, after the workers fork and while they run the trials.
    import scipy.special  # noqa: F401
    successes = sum(wins)
    lo, hi = clopper_pearson(successes, trials)
    return EstimateReport(estimate=successes / trials, trials=trials,
                          successes=successes, seed=seed, ci_low=lo, ci_high=hi)
