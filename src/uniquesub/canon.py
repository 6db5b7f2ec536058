"""Canonical labelling, isomorphism testing, and automorphism-group order.

The canonical form is the lexicographically minimal packed upper-triangle
encoding over all relabellings reachable by iterated equitable degree
refinement with backtracking over the first non-singleton cell.  Every
permutation that realizes the minimal encoding is a leaf of that search,
and the set of such permutations is exactly one coset of the automorphism
group, so counting minimal leaves yields the group order in the same
traversal.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import DomainError
from .graphs import Graph, VertexMap


@dataclass(frozen=True)
class CanonicalForm:
    """``canon_bytes`` equal iff isomorphic; ``canon_map`` realizes the relabelling."""

    canon_bytes: bytes
    aut_order: int
    canon_map: VertexMap


def _refine(adj: Sequence[int], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement: split cells by neighbour counts into splitter cells.

    Cell order is isomorphism-invariant: split fragments replace their cell
    in ascending neighbour-count order, and within-cell vertex order is
    preserved (ascending for ascending input).
    """
    changed = True
    while changed:
        changed = False
        for splitter in cells:
            smask = 0
            for v in splitter:
                smask |= 1 << v
            new_cells: list[list[int]] = []
            split_here = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    split_here = True
                    for k in sorted(groups):
                        new_cells.append(groups[k])
            if split_here:
                cells = new_cells
                changed = True
                break
    return cells


@lru_cache(maxsize=64)
def _pair_weights(n: int) -> tuple[tuple[int, ...], ...]:
    """Bit value of pair (a, b), a < b, in the row-major upper-triangle code."""
    npairs = n * (n - 1) // 2
    weights = [[0] * n for _ in range(n)]
    rank = 0
    for a in range(n):
        for b in range(a + 1, n):
            weights[a][b] = 1 << (npairs - 1 - rank)
            rank += 1
    return tuple(tuple(row) for row in weights)


def _search(adj: tuple[int, ...], n: int) -> tuple[int, int, list[int]]:
    weights = _pair_weights(n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
    best_code = -1
    best_count = 0
    best_perm: list[int] = list(range(n))

    def leaf(cells: list[list[int]]) -> None:
        nonlocal best_code, best_count, best_perm
        perm = [0] * n
        for pos, cell in enumerate(cells):
            perm[cell[0]] = pos
        code = 0
        for u, v in edges:
            a = perm[u]
            b = perm[v]
            code |= weights[a][b] if a < b else weights[b][a]
        if best_code < 0 or code < best_code:
            best_code = code
            best_count = 1
            best_perm = perm
        elif code == best_code:
            best_count += 1

    def rec(cells: list[list[int]]) -> None:
        target = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            leaf(cells)
            return
        cell = cells[target]
        head = cells[:target]
        tail = cells[target + 1:]
        for v in cell:
            rest = [w for w in cell if w != v]
            rec(_refine(adj, head + [[v], rest] + tail))

    rec(_refine(adj, [list(range(n))]))
    return best_code, best_count, best_perm


def _pack_code(n: int, code: int) -> bytes:
    """Stable encoding: one n byte, then the upper triangle of the relabelled
    adjacency in row-major order, most significant bit first, zero-padded."""
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 7) // 8
    return bytes([n]) + (code << (8 * nbytes - npairs)).to_bytes(nbytes, "big")


def decode_canon_bytes(data: bytes) -> Graph:
    """Rebuild the canonically labelled graph from its ``canon_bytes``."""
    if not data:
        raise DomainError("empty canonical encoding")
    n = data[0]
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 7) // 8
    if len(data) != 1 + nbytes:
        raise DomainError("canonical encoding has wrong length")
    code = int.from_bytes(data[1:], "big") >> (8 * nbytes - npairs)
    adj = [0] * n
    rank = 0
    for a in range(n):
        for b in range(a + 1, n):
            if code >> (npairs - 1 - rank) & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            rank += 1
    return Graph(n, tuple(adj))


@lru_cache(maxsize=1 << 16)
def canonicalize(g: Graph) -> CanonicalForm:
    code, count, perm = _search(g.adj, g.n)
    return CanonicalForm(
        canon_bytes=_pack_code(g.n, code),
        aut_order=count,
        canon_map=VertexMap(g.n, g.n, tuple(perm)),
    )


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(map(g1.degree, range(g1.n))) != sorted(map(g2.degree, range(g2.n))):
        return False
    return canonicalize(g1).canon_bytes == canonicalize(g2).canon_bytes


def aut_order(g: Graph) -> int:
    return canonicalize(g).aut_order
