"""Stream every unlabelled graph on n vertices exactly once.

Each level is built by augmenting every (n-1)-vertex class representative
with one new vertex over all 2^(n-1) attachment neighbourhoods and keying
the results by canonical form, which both deduplicates and fixes the
deterministic output order (lexicographic by canon_bytes).

An augmentation is canonicalised only if the new vertex minimises the
isomorphism-invariant phi(v) = (deg v, sum of the degrees of v's
neighbours), compared lexicographically, over the child's vertices; phi is
read off the parent's degrees and the attachment mask, so a rejected mask
costs no Graph and no canonical search.  Nothing is lost: every class G has
a vertex v minimising phi, G - v has a representative P one level down, and
attaching a new vertex to P along the image of N(v) gives a copy of G whose
new vertex plays v and so minimises phi too.  The filter only drops repeat
labellings of a class, and canonical bytes and |Aut| do not depend on which
labelling is canonicalised, so every table is the unfiltered one (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998, with a vertex
invariant in place of the canonical-deletion test).

Of the masks that pass, one per orbit of the parent's automorphism group is
canonicalised.  For an automorphism g of the parent P, g extended to fix
the new vertex maps child(P, m) onto child(P, g(m)), so a mask's whole
orbit gives one class; phi is an isomorphism invariant, so the filter
passes all of an orbit or none of it.  The unit canonicalises the parent
once for generators of Aut(P), walks the masks in ascending order, and
after canonicalising a child marks its mask's orbit, the closure under the
generators' images, as done.  Only repeat labellings are dropped, and the
merge and sort below are unchanged, so every table is the same.

The top level can be split by parent: a parent's children depend on its
canonical bytes alone, so each parent is one work unit on the library's
worker map and returns its own {canon_bytes: |Aut|} children.  The merge
is order-free: equal canonical bytes name one class and carry its one
|Aut|, so whichever unit reports a class first, ``setdefault`` keeps the
same pair, and the sort fixes the output order.  Levels are memoised by n
alone, so a level built at one thread count answers a call at any other.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator

from .canon import canonicalize, decode_canon_bytes
from .errors import DomainError
from .graphs import Graph, _bits, _graph
from .parallel import parallel_map

MAX_ENUMERATION_N = 9
# The lowest level built on the worker map.  On a 2-vCPU VM (levels below
# prebuilt), level 6 took 12-20 ms in one process against 39-56 ms on two
# workers (seven runs each), level 7 75-137 ms against 78-112 ms (ten
# alternated pairs, medians 82 and 86 ms: too little for a pool's start-up
# to pay), and level 8 0.90-1.07 s against 0.56-0.71 s (seven runs each).
POOL_MIN_N = 8


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise DomainError(f"enumeration supports 1..{MAX_ENUMERATION_N} vertices, got {n}")


def _children(work: tuple[bytes, int]) -> dict[bytes, int]:
    """{canon_bytes: aut_order} of the order-n children of one order-(n-1)
    class, given as (its canonical bytes, n): the census's work unit.  One
    attachment mask per orbit of the parent's automorphism group is
    canonicalised, the first of the orbit in ascending order.

    The mask tables are built once per parent, each entry extended from the
    mask without its highest bit: every mask's degree sum and its image under
    each generator.  With ``below[d]``, the parent's vertices of degree < d,
    a new vertex of degree k = |mask| minimises phi only if no vertex
    outside the mask has degree < k and none inside it degree < k - 1; the
    vertices left whose child degree ties k are compared by neighbour-degree
    sum."""
    parent_bytes, n = work
    parent = decode_canon_bytes(parent_bytes)
    adj = parent.adj
    deg = [row.bit_count() for row in adj]
    nbr_sum = [sum(deg[w] for w in _bits(row)) for row in adj]
    below = [sum(1 << u for u, du in enumerate(deg) if du < d) for d in range(n + 1)]
    generators = canonicalize(parent).generators
    degsum = [0]
    images: list[list[int]] = [[0] for _ in generators]
    for v, dv in enumerate(deg):
        degsum += [s + dv for s in degsum]
        for image, g in zip(images, generators):
            bit = 1 << g[v]
            image += [m | bit for m in image]
    base = list(adj) + [0]
    new_bit = 1 << (n - 1)
    done = bytearray(1 << (n - 1))  # masks in the orbit of one already augmented
    children: dict[bytes, int] = {}
    for mask in range(1 << (n - 1)):
        if done[mask]:
            continue
        k = mask.bit_count()
        if below[k] & ~mask or below[k - 1] & mask:  # at k = 0, below[-1] meets the empty mask
            continue
        new_sum = k + degsum[mask]
        ties = below[k + 1] & ~mask | below[k] & mask
        while ties:
            low = ties & -ties
            ties ^= low
            u = low.bit_length() - 1
            if nbr_sum[u] + (adj[u] & mask).bit_count() + (k if mask & low else 0) < new_sum:
                break
        else:
            child = base[:]
            child[n - 1] = mask
            for u in _bits(mask):
                child[u] |= new_bit
            form = canonicalize(_graph(n, tuple(child)))
            children.setdefault(form.canon_bytes, form.aut_order)
            orbit = [mask]
            while orbit:
                member = orbit.pop()
                for image in images:
                    moved = image[member]
                    if not done[moved]:
                        done[moved] = 1
                        orbit.append(moved)
    return children


_levels: dict[int, tuple[tuple[bytes, int], ...]] = {}


def _census(n: int, threads: int | None = 1) -> tuple[tuple[bytes, int], ...]:
    """Sorted (canon_bytes, aut_order) pairs, one per isomorphism class.

    From ``POOL_MIN_N`` up, level n is split across ``threads`` workers; the
    levels below it are built in this process.  Memoised by n alone."""
    if n in _levels:
        return _levels[n]
    if n == 1:
        form = canonicalize(Graph(1, (0,)))
        seen = {form.canon_bytes: form.aut_order}
    else:
        work = [(parent_bytes, n) for parent_bytes, _ in _census(n - 1)]
        seen = {}
        for children in parallel_map(_children, work, threads if n >= POOL_MIN_N else 1):
            for canon_bytes, aut in children.items():
                seen.setdefault(canon_bytes, aut)
    _levels[n] = tuple(sorted(seen.items()))
    return _levels[n]


_census.cache_clear = _levels.clear  # type: ignore[attr-defined]


def census_entries(n: int, threads: int | None = 1) -> tuple[tuple[bytes, int], ...]:
    """(canon_bytes, aut_order) per class, sorted by canonical encoding.

    ``threads`` (None: all cores) splits the level across workers if it is
    not built yet and n >= ``POOL_MIN_N``; the entries do not depend on it."""
    _check_n(n)
    return _census(n, threads)


def enumerate_unlabelled(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class, in canonical-bytes order."""
    _check_n(n)
    for canon_bytes, _ in _census(n):
        yield decode_canon_bytes(canon_bytes)


def unlabelled_count(n: int) -> int:
    _check_n(n)
    return len(_census(n))


def aut_orders(n: int) -> tuple[int, ...]:
    """Automorphism-group orders aligned with the enumeration order."""
    _check_n(n)
    return tuple(order for _, order in _census(n))


@dataclass(frozen=True)
class PolyaReport:
    n: int
    unlabelled_count: int
    polya_estimate: Fraction
    ratio: Fraction


def polya_report(n: int) -> PolyaReport:
    _check_n(n)
    count = unlabelled_count(n)
    estimate = Fraction(2 ** (n * (n - 1) // 2), factorial(n))
    return PolyaReport(n=n, unlabelled_count=count, polya_estimate=estimate,
                       ratio=Fraction(count) / estimate)


def nontrivial_aut_fraction(n: int) -> Fraction:
    _check_n(n)
    orders = aut_orders(n)
    return Fraction(sum(1 for a in orders if a >= 2), len(orders))
