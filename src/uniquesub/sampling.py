"""Seedable random sources shared by every stochastic operation.

All sampling runs on counter-based Philox streams so that per-trial
generators can be derived from (seed, trial index) without coordination,
which keeps Monte-Carlo runs reproducible under any work scheduling.

numpy is imported by ``derive_rng`` alone, the one function that builds
numpy objects; the samplers receive its generator.  The commands that never
sample therefore never load numpy.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .graphs import Graph, from_code, pair_list

if TYPE_CHECKING:
    import numpy as np


def derive_rng(seed: int, index: int | None = None) -> np.random.Generator:
    """Generator for a run, or for one trial of a run when ``index`` is given."""
    import numpy as np

    if index is None:
        ss = np.random.SeedSequence(entropy=seed)
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def gnp_half(n: int, rng: np.random.Generator) -> Graph:
    """Uniform labelled graph on n vertices (each pair an edge with prob 1/2).

    Bit i of the drawn bytes, lowest bit of the first byte first, decides
    row-major pair i; the bits past the last pair are drawn and dropped."""
    npairs = n * (n - 1) // 2
    code = int.from_bytes(rng.bytes((npairs + 7) // 8), "little")
    return from_code(n, code & ((1 << npairs) - 1))


def random_pair_order(n: int, rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    """Uniformly random ordering of all vertex pairs."""
    pairs = pair_list(n)
    return tuple(pairs[i] for i in rng.permutation(len(pairs)))
