"""Independent brute-force oracles used to validate the production paths.

Everything here works on raw edge bitmasks over the row-major pair order
and canonicalizes by minimizing over all vertex permutations, so none of
the production refinement/search code is in the loop.  The exceptions check
one layer each on top of production code: ``unfiltered_census`` checks only
the census's augmentation filter and so keys its classes by the production
canonical form, ``minimising_masks`` is that filter one mask at a time,
the reference for the census's mask tables, ``plain_children`` checks only
the census's one mask per orbit of the parent's automorphism group and so
runs that filter and the production canonical form, ``exhaustive_canon``
checks only the canonical search's automorphism pruning and so shares its
equitable refinement, and
``plain_count_embeddings`` and ``plain_unique_count`` are the embedding
search without degree filtering and the f pattern loop without the pattern
table, skips or isolated-vertex stripping, over the production census.
``gnp_half_from_edges`` is the sampler and ``decode_canon_bytes_from_edges``
the canonical decoder, each through a pair list rather than the pair-code
table in ``uniquesub.graphs``, ``numpy_generator`` is numpy's own Philox
generator, the reference for the pure-Python stream in ``uniquesub.sampling``,
and
``beta_ppf_interval`` is the Clopper-Pearson interval through
``scipy.stats.beta.ppf``, the reference for the production quantile call.
``to_networkx`` and ``vf2_count_embeddings`` hand graphs to networkx, whose
isomorphism test and VF2 matcher reach orders the brute oracles cannot.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import factorial
from typing import Iterator

import networkx as nx
import numpy as np
from scipy.stats import beta

from uniquesub.canon import (CanonicalForm, _pack_code, _refine, canonicalize,
                             decode_canon_bytes)
from uniquesub.census import census_entries
from uniquesub.embedding import ALL_SIZES, CI_ALPHA, CountOutcome
from uniquesub.errors import DomainError
from uniquesub.graphs import Graph, _bits, from_edges, pair_list


def mask_from_graph(g: Graph) -> int:
    mask = 0
    for idx, (u, v) in enumerate(pair_list(g.n)):
        if g.has_edge(u, v):
            mask |= 1 << idx
    return mask


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = pair_list(n)
    return from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def all_labelled(n: int) -> Iterator[Graph]:
    """Every labelled graph on n vertices, in mask order."""
    return (graph_from_mask(n, mask) for mask in range(1 << n * (n - 1) // 2))


def random_graph(n: int, p: float, rng) -> Graph:
    """G(n, p) drawn from a ``random.Random``."""
    return from_edges(n, [pair for pair in pair_list(n) if rng.random() < p])


@lru_cache(maxsize=16)
def _bit_permutations(n: int) -> list[list[int]]:
    """For each vertex permutation, the destination bit of every source bit."""
    pairs = pair_list(n)
    index = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in permutations(range(n)):
        tables.append([index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs])
    return tables


def permute_mask(n: int, mask: int, table: list[int]) -> int:
    out = 0
    for src, dst in enumerate(table):
        if mask >> src & 1:
            out |= 1 << dst
    return out


@lru_cache(maxsize=1 << 14)
def brute_canon_mask(n: int, mask: int) -> int:
    """Minimum edge bitmask over all vertex permutations."""
    return min(permute_mask(n, mask, t) for t in _bit_permutations(n))


def brute_aut_order(n: int, mask: int) -> int:
    return sum(1 for t in _bit_permutations(n) if permute_mask(n, mask, t) == mask)


def bucket_all_labelled(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized over all 2^(n choose 2) labelled graphs.

    Returns (canon, aut) arrays indexed by edge bitmask: the brute canonical
    mask and the number of permutations fixing the graph.
    """
    npairs = n * (n - 1) // 2
    masks = np.arange(1 << npairs, dtype=np.int64)
    canon = masks.copy()
    aut = np.zeros(1 << npairs, dtype=np.int64)
    for table in _bit_permutations(n):
        permuted = np.zeros_like(masks)
        for src, dst in enumerate(table):
            permuted |= ((masks >> src) & 1) << dst
        np.minimum(canon, permuted, out=canon)
        aut += permuted == masks
    return canon, aut


def exhaustive_canon(g: Graph) -> CanonicalForm:
    """The canonical search without pruning: every leaf of the refinement
    tree is visited, the first one with the minimal code gives the code,
    and |Aut| is the number of minimal leaves, which form one coset
    of the automorphism group.  The generators are the automorphisms from
    the first minimal leaf to each later one: the whole group but the
    identity."""
    n, adj = g.n, g.adj
    pairs = pair_list(n)
    weight = {pair: 1 << (len(pairs) - 1 - rank) for rank, pair in enumerate(pairs)}
    edges = list(g.edges())
    best_code, best_perm = -1, list(range(n))
    autos: list[tuple[int, ...]] = []

    def leaf(cells: list[list[int]]) -> None:
        nonlocal best_code, best_perm, autos
        perm = [0] * n
        for pos, cell in enumerate(cells):
            perm[cell[0]] = pos
        code = 0
        for u, v in edges:
            code |= weight[tuple(sorted((perm[u], perm[v])))]
        if best_code < 0 or code < best_code:
            best_code, best_perm, autos = code, perm, []
        elif code == best_code:
            autos.append(tuple(cells[best_perm[u]][0] for u in range(n)))

    def rec(cells: list[list[int]]) -> None:
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), -1)
        if target < 0:
            leaf(cells)
            return
        cell = cells[target]
        for v in cell:
            rest = [w for w in cell if w != v]
            rec(_refine(adj, cells[:target] + [[v], rest] + cells[target + 1:]))

    rec(_refine(adj, [list(range(n))]))
    return CanonicalForm(_pack_code(n, best_code), len(autos) + 1, tuple(autos))


def _new_vertex_minimises(adj: tuple[int, ...], deg: list[int], nbr_sum: list[int],
                          mask: int) -> bool:
    """Does a vertex joined to ``mask`` minimise (degree, neighbour-degree sum)
    over the child's vertices?  Ties count as minimal."""
    k = mask.bit_count()
    new_sum = k + sum(deg[u] for u in _bits(mask))
    for u, row in enumerate(adj):
        inside = mask >> u & 1
        d = deg[u] + inside
        if d < k or d == k and nbr_sum[u] + (row & mask).bit_count() + inside * k < new_sum:
            return False
    return True


def minimising_masks(parent: Graph) -> list[int]:
    """The attachment masks, ascending, whose new vertex minimises
    (degree, neighbour-degree sum) over the child: the census's filter, one
    mask at a time."""
    deg = [row.bit_count() for row in parent.adj]
    nbr_sum = [sum(deg[w] for w in _bits(row)) for row in parent.adj]
    return [mask for mask in range(1 << parent.n)
            if _new_vertex_minimises(parent.adj, deg, nbr_sum, mask)]


def plain_children(work: tuple[bytes, int]) -> dict[bytes, int]:
    """The census's work unit without the parent's automorphisms: every
    attachment mask that passes the (degree, neighbour-degree sum) filter is
    canonicalised."""
    parent_bytes, n = work
    parent = decode_canon_bytes(parent_bytes)
    children: dict[bytes, int] = {}
    for mask in minimising_masks(parent):
        adj = [row | (mask >> u & 1) << (n - 1) for u, row in enumerate(parent.adj)]
        form = canonicalize(Graph(n, (*adj, mask)))
        children.setdefault(form.canon_bytes, form.aut_order)
    return children


@lru_cache(maxsize=None)
def unfiltered_census(n: int) -> tuple[tuple[bytes, int], ...]:
    """Sorted (canon_bytes, aut_order) per class, by plain augmentation: every
    attachment of a new vertex to every class one level down is canonicalised."""
    if n == 1:
        children = [Graph(1, (0,))]
    else:
        children = []
        for parent_bytes, _ in unfiltered_census(n - 1):
            parent = decode_canon_bytes(parent_bytes)
            for mask in range(1 << (n - 1)):
                adj = [row | (mask >> u & 1) << (n - 1) for u, row in enumerate(parent.adj)]
                children.append(Graph(n, (*adj, mask)))
    forms = [canonicalize(g) for g in children]
    return tuple(sorted({f.canon_bytes: f.aut_order for f in forms}.items()))


def gnp_half_from_edges(n: int, rng) -> Graph:
    """``sampling.gnp_half`` as a pair list through ``from_edges``: bit idx
    of the drawn bytes, lowest bit of each byte first, decides row-major
    pair idx."""
    pairs = pair_list(n)
    raw = rng.bytes((len(pairs) + 7) // 8)
    return from_edges(n, [pair for idx, pair in enumerate(pairs) if raw[idx >> 3] >> (idx & 7) & 1])


def numpy_generator(seed: int, index: int) -> np.random.Generator:
    """numpy's generator for the stream ``sampling.derive_rng(seed, index)``
    reproduces, with numpy's other draws (``integers``, ``permuted``) too."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def decode_canon_bytes_from_edges(data: bytes) -> Graph:
    """``canon.decode_canon_bytes`` as a pair list through ``from_edges``: the
    packed code holds row-major pair idx in bit npairs - 1 - idx once its
    zero padding is shifted off."""
    n = data[0]
    npairs = n * (n - 1) // 2
    code = int.from_bytes(data[1:], "big") >> (8 * ((npairs + 7) // 8) - npairs)
    return from_edges(n, [pair for idx, pair in enumerate(pair_list(n))
                          if code >> (npairs - 1 - idx) & 1])


def brute_count_embeddings(g: Graph, h: Graph) -> int:
    """All injections checked directly against the edge condition."""
    if g.n > h.n:
        return 0
    gedges = list(g.edges())
    count = 0
    for image in permutations(range(h.n), g.n):
        if all(h.has_edge(image[u], image[v]) for u, v in gedges):
            count += 1
    return count


def plain_count_embeddings(g: Graph, h: Graph, early_exit_at: int | None = None) -> CountOutcome:
    """The embedding search without degree filtering: every pattern vertex,
    in descending degree order, tries every unused host vertex adjacent to
    the images of its earlier neighbours."""
    if early_exit_at is not None and early_exit_at < 1:
        raise DomainError("early_exit_at must be at least 1")
    if g.n > h.n:
        return CountOutcome(0)

    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    prev_nbrs: list[list[int]] = []
    for i, v in enumerate(order):
        prev_nbrs.append([order[j] for j in range(i) if g.has_edge(v, order[j])])

    hadj = h.adj
    hfull = (1 << h.n) - 1
    assigned = [0] * g.n
    count = 0

    def rec(i: int, used: int) -> bool:
        nonlocal count
        if i == g.n:
            count += 1
            return early_exit_at is not None and count >= early_exit_at
        v = order[i]
        cand = ~used & hfull
        for w in prev_nbrs[i]:
            cand &= hadj[assigned[w]]
        while cand:
            low = cand & -cand
            cand ^= low
            assigned[v] = low.bit_length() - 1
            if rec(i + 1, used | low):
                return True
        return False

    aborted = rec(0, 0)
    return CountOutcome(count, not aborted)


def to_networkx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return ng


def vf2_count_embeddings(g: Graph, h: Graph, early_exit_at: int | None = None) -> int:
    """Embeddings of ``g`` into ``h``, one per VF2 monomorphism between a
    subgraph of ``h`` and ``g``; at most ``early_exit_at`` when it is given."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(to_networkx(h), to_networkx(g))
    return sum(1 for _ in islice(matcher.subgraph_monomorphisms_iter(), early_exit_at))


def plain_unique_count(h: Graph, universe: str) -> int:
    """Unique-subgraph count of ``h`` by one plain search per order-n pattern:
    G is unique iff it has exactly |Aut(G)| embeddings, and all-sizes counts
    twice a pattern with an isolated vertex and an edge."""
    unique = 0
    for canon_bytes, aut in census_entries(h.n):
        g = decode_canon_bytes(canon_bytes)
        if plain_count_embeddings(g, h, early_exit_at=aut + 1).count == aut:
            unique += 1 + (universe == ALL_SIZES and 0 in g.adj and any(g.adj))
    return unique


def brute_unique_subgraph_count(h: Graph) -> int:
    """Isomorphism classes occurring exactly once as a (vertices, edges) pair.

    Enumerates every vertex subset and every edge subset on it, keying by
    (order, brute canonical mask).
    """
    tally: Counter[tuple[int, int]] = Counter()
    for k in range(1, h.n + 1):
        kpairs = pair_list(k)
        kindex = {p: i for i, p in enumerate(kpairs)}
        for subset in combinations(range(h.n), k):
            pos = {v: i for i, v in enumerate(subset)}
            avail = [kindex[(pos[u], pos[v])] for u in subset for v in subset
                     if u < v and h.has_edge(u, v)]
            for r in range(len(avail) + 1):
                for chosen in combinations(avail, r):
                    sub_mask = 0
                    for bit in chosen:
                        sub_mask |= 1 << bit
                    tally[(k, brute_canon_mask(k, sub_mask))] += 1
    return sum(1 for c in tally.values() if c == 1)


def brute_f_value(h: Graph) -> Fraction:
    n = h.n
    return Fraction(brute_unique_subgraph_count(h) * factorial(n), 2 ** (n * (n - 1) // 2))


def brute_f_max(n: int) -> tuple[Fraction, int]:
    """(max f, host canonical mask) over one host per isomorphism class."""
    canon, _ = bucket_all_labelled(n)
    reps = sorted(set(int(c) for c in canon))
    best = None
    best_mask = 0
    for mask in reps:
        val = brute_f_value(graph_from_mask(n, mask))
        if best is None or val > best:
            best = val
            best_mask = mask
    return best, best_mask


def beta_ppf_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided Clopper-Pearson interval at level 1 - CI_ALPHA, each end a
    ``scipy.stats.beta.ppf`` quantile."""
    lo = 0.0 if successes == 0 else float(
        beta.ppf(CI_ALPHA / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(
        beta.ppf(1 - CI_ALPHA / 2, successes + 1, trials - successes))
    return lo, hi


def switch_required_pairs_restated(hc: Graph, pi_image: tuple[int, ...],
                                   u: int, v: int) -> set[tuple[int, int]]:
    """Direct restatement of the switch condition for cross-checking:
    edges from v to the images of N(a)-only vertices and from u to the
    images of N(b)-only vertices, endpoints a, b excluded."""
    inv = {t: s for s, t in enumerate(pi_image)}
    a, b = inv[u], inv[v]
    na = set(hc.neighbors(a)) - {a, b}
    nb = set(hc.neighbors(b)) - {a, b}
    req = set()
    for w in na - nb:
        req.add(tuple(sorted((v, pi_image[w]))))
    for w in nb - na:
        req.add(tuple(sorted((u, pi_image[w]))))
    return req


def toggle_influence_oracle(hc: Graph, pi_image: tuple[int, ...],
                            t_set: tuple[int, ...]) -> tuple[dict[tuple[int, int], int], int]:
    """Influence counts by literal toggling: for every pattern graph and every
    pair slot, flip the slot and record which switch indicators change."""
    n = hc.n
    pairs = pair_list(n)
    index = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    tlist = sorted(t_set)
    budget: Counter[tuple[int, int]] = Counter()
    for i, u in enumerate(tlist):
        for v in tlist[i + 1:]:
            req = switch_required_pairs_restated(hc, pi_image, pi_image[u], pi_image[v])
            req_bits = 0
            for pair in req:
                req_bits |= 1 << index[pair]
            base = (masks & req_bits) == req_bits
            for slot, pair in enumerate(pairs):
                flipped = ((masks ^ (1 << slot)) & req_bits) == req_bits
                if bool(np.any(base != flipped)):
                    budget[pair] += 1
    total = sum(b * b for b in budget.values())
    return dict(budget), total
