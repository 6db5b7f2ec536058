"""Immutable labelled graphs on at most 64 vertices, with graph6 interchange.

Adjacency is stored as one integer bitmask per vertex, so neighbourhood
intersections and containment tests are single machine-word operations at
desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, Graph6Error

MAX_VERTICES = 64

_G6_HEADER = b">>graph6<<"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[u]`` has bit ``v`` set iff ``uv`` is an edge."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise DomainError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise DomainError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise DomainError(f"adjacency row {u} has bits beyond vertex {self.n - 1}")
            if row >> u & 1:
                raise DomainError(f"self-loop at vertex {u}")
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (self.adj[u] >> v & 1) != (self.adj[v] >> u & 1):
                    raise DomainError(f"asymmetric adjacency between {u} and {v}")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    yield (u, v)
                row >>= 1
                v += 1

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    def with_edge(self, u: int, v: int) -> "Graph":
        """Functional edge insertion (no-op if the edge is present)."""
        if u == v:
            raise DomainError("cannot add a self-loop")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, g6={emit_graph6(self).decode()!r})"


@dataclass(frozen=True)
class VertexMap:
    """Injective vertex map; ``image[u]`` is the target of source vertex ``u``."""

    n_from: int
    n_to: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.n_from:
            raise DomainError("image length does not match n_from")
        if len(set(self.image)) != self.n_from:
            raise DomainError("image entries are not pairwise distinct")
        if any(not 0 <= t < self.n_to for t in self.image):
            raise DomainError("image entry outside target vertex range")

    def apply(self, u: int) -> int:
        return self.image[u]

    def inverse(self, t: int) -> int:
        """Source vertex mapped to ``t``; raises if ``t`` is not hit."""
        try:
            return self.image.index(t)
        except ValueError:
            raise DomainError(f"target vertex {t} not in the image") from None

    @property
    def is_bijection(self) -> bool:
        return self.n_from == self.n_to

    @staticmethod
    def identity(n: int) -> "VertexMap":
        return VertexMap(n, n, tuple(range(n)))


def _bits(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise DomainError("self-loops are unrepresentable")
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u},{v}) outside vertex range")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a permutation: result has edge ``perm[u] perm[v]`` iff ``uv`` in ``g``."""
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabelled 0..k-1 in ascending order."""
    sel = sorted(set(vertices))
    if not sel:
        raise DomainError("induced subgraph needs at least one vertex")
    if sel[-1] >= g.n or sel[0] < 0:
        raise DomainError(f"vertex {sel[-1] if sel[-1] >= g.n else sel[0]} outside graph of order {g.n}")
    pos = {v: i for i, v in enumerate(sel)}
    return from_edges(len(sel), [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos])


def pair_list(n: int) -> list[tuple[int, int]]:
    """All vertex pairs ``(i, j)``, ``i < j``, in row-major order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# --- graph6 codec -----------------------------------------------------------
#
# Published format: header N(n) is one byte n+63 for n <= 62, else 126
# followed by three bytes holding n in 6-bit big-endian groups (+63 each).
# The body packs the upper triangle column-major -- x(0,1), x(0,2), x(1,2),
# x(0,3), ... -- six bits per byte, most significant bit first, zero-padded.


def _column_major_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def parse_graph6(data: bytes | str) -> Graph:
    if isinstance(data, str):
        data = data.encode("ascii")
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    pos = 0
    first = data[0]
    if first == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graphs beyond 258047 vertices unsupported", 1)
        if len(data) < 4:
            raise Graph6Error("truncated extended vertex count", len(data))
        n = 0
        for k in range(1, 4):
            b = data[k]
            if not 63 <= b <= 126:
                raise Graph6Error(f"invalid graph6 byte {b}", k)
            n = (n << 6) | (b - 63)
        pos = 4
    else:
        if not 63 <= first <= 126:
            raise Graph6Error(f"invalid graph6 header byte {first}", 0)
        n = first - 63
        pos = 1
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside supported range 1..{MAX_VERTICES}", 0)
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6Error(f"body needs {nbytes} bytes, found {len(data) - pos}", len(data))
    if len(data) - pos > nbytes:
        raise Graph6Error("trailing bytes after graph6 body", pos + nbytes)
    bits = 0
    for k in range(nbytes):
        b = data[pos + k]
        if not 63 <= b <= 126:
            raise Graph6Error(f"invalid graph6 byte {b}", pos + k)
        bits = (bits << 6) | (b - 63)
    pad = 6 * nbytes - npairs
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    bits >>= pad
    return from_edges(n, [pair for idx, pair in enumerate(_column_major_pairs(n))
                          if bits >> (npairs - 1 - idx) & 1])


def _graph6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def _graph6_body(npairs: int, bits: int) -> bytes:
    """The body bytes of the ``npairs`` column-major pair bits held in the
    low end of ``bits``, first pair most significant, already padded."""
    nbytes = (npairs + 5) // 6
    return bytes(((bits >> (6 * (nbytes - 1 - k))) & 63) + 63 for k in range(nbytes))


def emit_graph6(g: Graph) -> bytes:
    n = g.n
    npairs = n * (n - 1) // 2
    bits = 0
    for i, j in _column_major_pairs(n):
        bits = (bits << 1) | (g.adj[i] >> j & 1)
    pad = (6 - npairs % 6) % 6
    return _graph6_header(n) + _graph6_body(npairs, bits << pad)


def ingest_corpus(path: str, skip_bad: bool = False) -> Iterator[tuple[int, Graph | None, str | None]]:
    """Lazily parse a graph6 file, one graph per non-blank line; yields
    (line number, graph, None), or (line number, None, error message) for a
    bad line under ``skip_bad``, which otherwise raises on the first one."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                yield lineno, parse_graph6(line), None
            except Graph6Error as exc:
                if not skip_bad:
                    raise Graph6Error(f"line {lineno}: {exc.reason}", exc.offset) from exc
                yield lineno, None, str(exc)
