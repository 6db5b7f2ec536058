"""Embedding and subgraph-copy counting, uniqueness tests, and f-values.

An embedding of G into H is an injective vertex map under which every edge
of G lands on an edge of H.  A subgraph copy is a (vertex subset, edge
subset) pair of H isomorphic to G; each copy is hit by exactly |Aut(G)|
embeddings, so copies = embeddings / aut_order(G) throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable

from scipy.stats import beta as _beta

from .canon import aut_order, decode_canon_bytes
from .census import census_entries, enumerate_unlabelled
from .errors import DomainError, ResourceLimitError
from .graphs import Graph, VertexMap, emit_graph6
from .sampling import derive_rng, gnp_half

ALL_SIZES = "all-sizes"
SPANNING_ONLY = "spanning"

F_ALL_SIZES_MAX_N = 7
F_MAX_EXACT_MAX_N = 6
CI_ALPHA = 0.01  # Monte-Carlo estimates carry 99% Clopper-Pearson intervals


@dataclass(frozen=True)
class CountOutcome:
    """Tagged count: zero, one (with witness), at_least (early exit), or exact.

    ``count`` is the exact value for zero/one/exact and the requested
    threshold (a lower bound) for at_least.
    """

    kind: str
    count: int
    witness: VertexMap | None = None

    @staticmethod
    def zero() -> "CountOutcome":
        return CountOutcome("zero", 0)

    @staticmethod
    def one(witness: VertexMap) -> "CountOutcome":
        return CountOutcome("one", 1, witness)

    @staticmethod
    def at_least(threshold: int, witness: VertexMap | None = None) -> "CountOutcome":
        return CountOutcome("at_least", threshold, witness)

    @staticmethod
    def exact(count: int, witness: VertexMap | None = None) -> "CountOutcome":
        if count == 0:
            return CountOutcome.zero()
        if count == 1:
            if witness is None:
                raise DomainError("a count of one requires a witness")
            return CountOutcome.one(witness)
        return CountOutcome("exact", count)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_one(self) -> bool:
        return self.kind == "one"

    @property
    def is_exact(self) -> bool:
        return self.kind != "at_least"


def count_embeddings(g: Graph, h: Graph, early_exit_at: int | None = None) -> CountOutcome:
    """Count injective edge-preserving maps of ``g`` into ``h``.

    With ``early_exit_at=k`` the search stops at the k-th embedding and
    reports ``at_least(k)``.  A larger ``g`` than ``h`` yields zero by
    convention (no injection exists).
    """
    if early_exit_at is not None and early_exit_at < 1:
        raise DomainError("early_exit_at must be at least 1")
    if g.n > h.n:
        return CountOutcome.zero()

    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    prev_nbrs: list[list[int]] = []
    for i, v in enumerate(order):
        prev_nbrs.append([order[j] for j in range(i) if g.has_edge(v, order[j])])

    hadj = h.adj
    hfull = (1 << h.n) - 1
    assigned = [0] * g.n
    count = 0
    witness: tuple[int, ...] | None = None

    def rec(i: int, used: int) -> bool:
        nonlocal count, witness
        if i == g.n:
            count += 1
            if witness is None:
                witness = tuple(assigned)
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
    if count == 0:
        return CountOutcome.zero()
    wmap = VertexMap(g.n, h.n, witness)  # type: ignore[arg-type]
    if aborted:
        return CountOutcome.at_least(early_exit_at, wmap)  # type: ignore[arg-type]
    if count == 1:
        return CountOutcome.one(wmap)
    return CountOutcome.exact(count)


def verify_embedding(g: Graph, h: Graph, vmap: VertexMap) -> bool:
    """Independent re-check that ``vmap`` embeds ``g`` into ``h``."""
    if vmap.n_from != g.n or vmap.n_to != h.n:
        return False
    return all(h.has_edge(vmap.apply(u), vmap.apply(v)) for u, v in g.edges())


def count_subgraph_copies(g: Graph, h: Graph) -> CountOutcome:
    """Number of (vertex subset, edge subset) pairs of ``h`` isomorphic to ``g``."""
    emb = count_embeddings(g, h)
    copies = emb.count // aut_order(g)
    if copies == 1:
        return CountOutcome.one(emb.witness)  # type: ignore[arg-type]
    return CountOutcome.exact(copies) if copies else CountOutcome.zero()


def is_unique_subgraph(g: Graph, h: Graph) -> bool:
    """G is a unique subgraph of H: exactly one subgraph copy."""
    if g.n > h.n:
        return False
    aut = aut_order(g)
    out = count_embeddings(g, h, early_exit_at=aut + 1)
    return out.is_exact and out.count == aut


def has_unique_embedding(g: Graph, h: Graph) -> bool:
    """Exactly one embedding of ``g`` into ``h``; orders must match."""
    if g.n != h.n:
        raise DomainError("unique-embedding test requires equal vertex counts")
    return count_embeddings(g, h, early_exit_at=2).is_one


@dataclass(frozen=True)
class FValue:
    h: Graph
    universe: str
    unique_count: int
    denominator: Fraction
    f: Fraction


def _universe_census(universe: str, n: int) -> Iterable[tuple[bytes, int]]:
    if universe == ALL_SIZES:
        for k in range(1, n + 1):
            yield from census_entries(k)
    elif universe == SPANNING_ONLY:
        yield from census_entries(n)
    else:
        raise DomainError(f"unknown universe {universe!r}")


def f_of_h(h: Graph, universe: str = ALL_SIZES, allow_large: bool = False) -> FValue:
    """Unique-subgraph classes of ``h`` over the universe, scaled by n!/2^N.

    The all-sizes universe ranges over every non-empty graph on 1..n
    vertices (the spanning universe over order-n graphs only) and is guarded
    at n = 7; pass ``allow_large=True`` to override.
    """
    n = h.n
    if universe == ALL_SIZES and n > F_ALL_SIZES_MAX_N and not allow_large:
        raise ResourceLimitError(
            f"all-sizes universe at n={n} exceeds the n={F_ALL_SIZES_MAX_N} guard; "
            "pass allow_large=True to override")
    unique = 0
    for canon_bytes, aut in _universe_census(universe, n):
        g = decode_canon_bytes(canon_bytes)
        out = count_embeddings(g, h, early_exit_at=aut + 1)
        if out.is_exact and out.count == aut:
            unique += 1
    denominator = Fraction(2 ** (n * (n - 1) // 2), factorial(n))
    return FValue(h=h, universe=universe, unique_count=unique,
                  denominator=denominator, f=Fraction(unique) / denominator)


def f_table(n: int, universe: str = ALL_SIZES) -> list[FValue]:
    """f of one host per isomorphism class of order ``n``, in census order."""
    if not 1 <= n <= F_MAX_EXACT_MAX_N:
        raise DomainError(f"exact f maximization supports 1..{F_MAX_EXACT_MAX_N}, got {n}")
    return [f_of_h(h, universe) for h in enumerate_unlabelled(n)]


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
    """Two-sided exact binomial confidence interval at level 1 - CI_ALPHA."""
    if successes == 0:
        lo = 0.0
    else:
        lo = float(_beta.ppf(CI_ALPHA / 2, successes, trials - successes + 1))
    if successes == trials:
        hi = 1.0
    else:
        hi = float(_beta.ppf(1 - CI_ALPHA / 2, successes + 1, trials - successes))
    return lo, hi


def unique_trial(h: Graph, seed: int, index: int) -> bool:
    """Trial ``index``: does G(n, 1/2) drawn from stream (seed, index) embed
    into ``h`` in exactly one way?"""
    return count_embeddings(gnp_half(h.n, derive_rng(seed, index)), h, early_exit_at=2).is_one


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
