"""Spans around each layer's public functions, and the per-layer metrics
derived from them.

The package source is not touched: ``Tracer.install`` rebinds a function in
the module that calls it (``census.canonicalize``, ``process.count_embeddings``,
...), so a span covers exactly what that caller sees.  Spans are kept in
flat arrays and written out once, at the end of the run.  A span's self
time is its duration minus the durations of its children; all calls run on
one thread, so children never overlap.
"""
from __future__ import annotations

import random
import statistics
import time
from array import array
from pathlib import Path
from typing import Any, Callable

# (module, attribute, span name, tag): every call site the traced run wraps.
# A tag turns a result into a small value kept with the span.
_OUTCOME = {"zero": 0, "one": 1, "exact": 2, "at_least": 3}
SITES: list[tuple[str, str, str, Callable[[Any], int] | None]] = [
    ("cli", "emit_graph6", "graphs.emit_graph6", None),
    ("embedding", "emit_graph6", "graphs.emit_graph6", None),
    ("cli", "parse_graph6", "graphs.parse_graph6", None),
    ("census", "Graph", "graphs.Graph", None),
    ("canon", "Graph", "graphs.Graph", None),
    ("sampling", "Graph", "graphs.Graph", None),
    ("process", "Graph", "graphs.Graph", None),
    ("census", "canonicalize", "canon.canonicalize", None),
    ("census", "decode_canon_bytes", "canon.decode_canon_bytes", None),
    ("embedding", "decode_canon_bytes", "canon.decode_canon_bytes", None),
    ("cli", "count_embeddings", "embedding.count_embeddings", lambda r: _OUTCOME[r.kind]),
    ("embedding", "count_embeddings", "embedding.count_embeddings", lambda r: _OUTCOME[r.kind]),
    ("process", "count_embeddings", "embedding.count_embeddings", lambda r: _OUTCOME[r.kind]),
    ("cli", "f_of_h", "embedding.f_of_h", lambda r: r.unique_count),
    ("embedding", "f_of_h", "embedding.f_of_h", lambda r: r.unique_count),
    ("cli", "f_max_exact", "embedding.f_max_exact", None),
    ("cli", "sample_trace", "process.sample_trace", None),
    ("cli", "uniqueness_interval", "process.uniqueness_interval", None),
    ("process", "uniqueness_interval", "process.uniqueness_interval", None),
    ("cli", "x_statistic", "process.x_statistic", None),
    ("cli", "derive_rng", "sampling.derive_rng", None),
    ("process", "derive_rng", "sampling.derive_rng", None),
    ("cli", "gnp_half", "sampling.gnp_half", None),
    # The work units the CLI's pool maps, called one by one in the traced run.
    ("cli", "_estimate_trial", "cli.estimate_trial", None),
    ("cli", "_process_one", "cli.process_one", None),
]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.tags: dict[int, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable[..., Any],
             tag: Callable[[Any], int] | None = None) -> Callable[..., Any]:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            i = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if tag is not None:
                self.tags[i] = tag(result)
            return result

        return traced

    def install(self, modules: dict[str, Any]) -> None:
        for mod_name, attr, name, tag in SITES:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, tag))

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        """One tab-separated line per span: name, start, end (us), parent, workload."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_us\tend_us\tparent\tworkload\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.3f}\t"
                         f"{(self.end[i] - t0) * 1e6:.3f}\t{self.parent[i]}\t{self.workload}\n")


class SpanStats:
    """Per-name aggregates over a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        n = len(tracer.start)
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(n)]
        self.by_name: dict[str, list[int]] = {name: [] for name in tracer.names}
        for i in range(n):
            self.by_name[tracer.names[tracer.name[i]]].append(i)

    def spans(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.spans(name))

    def total(self, name: str) -> float:
        return sum(self.dur[i] for i in self.spans(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.spans(name))

    def mean(self, name: str) -> float:
        idx = self.spans(name)
        return self.total(name) / len(idx) if idx else 0.0

    def longest(self, name: str) -> float:
        return max((self.dur[i] for i in self.spans(name)), default=0.0)

    def children_of(self, name: str, parents: set[int]) -> list[int]:
        return [i for i in self.spans(name) if self.t.parent[i] in parents]

    def under(self, name: str, root: str) -> list[int]:
        """Spans of ``name`` that have a ``root`` span among their ancestors."""
        roots = set(self.spans(root))
        out = []
        for i in self.spans(name):
            p = self.t.parent[i]
            while p >= 0 and p not in roots:
                p = self.t.parent[p]
            if p >= 0:
                out.append(i)
        return out

    def tag_share(self, name: str, value: int) -> float:
        idx = self.spans(name)
        return sum(self.t.tags[i] == value for i in idx) / len(idx) if idx else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def canon_probes(seed: int) -> dict[str, float]:
    """Uncached canonicalisations of fixed symmetric graphs and random ones."""
    from uniquesub import canon
    from uniquesub.graphs import Graph, complete_graph, cycle_graph, empty_graph, from_edges

    search = canon.canonicalize.__wrapped__  # bypass the memo table

    def ms(g: Graph) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            search(g)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    petersen = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)])
    rng = random.Random(seed)
    randoms = []
    for _ in range(300):
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.5]
        randoms.append(from_edges(8, edges))
    t0 = time.perf_counter()
    for g in randoms:
        search(g)
    random_us = (time.perf_counter() - t0) / len(randoms) * 1e6
    return {"canon.sym_K8_ms": ms(complete_graph(8)),
            "canon.sym_empty8_ms": ms(empty_graph(8)),
            "canon.sym_petersen_ms": ms(petersen),
            "canon.sym_C32_ms": ms(cycle_graph(32)),
            "canon.random8_us": random_us}


def layer_metrics(s: SpanStats, cache_hits: int, traces: int) -> dict[str, float]:
    """Metrics read from one traced pass; ``traces`` is the number of process traces."""
    levels = s.spans("census.level")  # levels 1, 2, ... in call order, tagged by class count
    aug_levels = set(levels[1:])  # level 1 is the seed graph, not an augmentation
    augmentations = len(s.children_of("canon.canonicalize", aug_levels))
    classes = sum(s.t.tags[i] for i in aug_levels)
    ce = "embedding.count_embeddings"
    f_spans = set(s.spans("embedding.f_of_h"))
    tried = len(s.children_of(ce, f_spans))
    canon_calls = s.calls("canon.canonicalize")
    return {
        "graphs.emit_graph6.us": s.mean("graphs.emit_graph6") * 1e6,
        "graphs.parse_graph6.us": s.mean("graphs.parse_graph6") * 1e6,
        "graphs.Graph.us": s.mean("graphs.Graph") * 1e6,
        "canon.canonicalize.calls": canon_calls,
        "canon.canonicalize.self_s": s.self_total("canon.canonicalize"),
        "canon.canonicalize.us_mean": s.mean("canon.canonicalize") * 1e6,
        "canon.canonicalize.max_ms": s.longest("canon.canonicalize") * 1e3,
        "canon.cache_hit_ratio": _ratio(cache_hits, canon_calls),
        "census.level8_s": s.dur[levels[7]] if len(levels) >= 8 else 0.0,
        "census.self_s": sum(s.self_time[i] for i in levels),
        "census.augmentations": augmentations,
        "census.dedup_ratio": _ratio(classes, augmentations),
        "embedding.count_embeddings.calls": s.calls(ce),
        "embedding.count_embeddings.self_s": s.self_total(ce),
        "embedding.count_embeddings.us_mean": s.mean(ce) * 1e6,
        "embedding.count_embeddings.zero_ratio": s.tag_share(ce, _OUTCOME["zero"]),
        "embedding.count_embeddings.early_exit_ratio": s.tag_share(ce, _OUTCOME["at_least"]),
        "embedding.f_of_h.ms_mean": s.mean("embedding.f_of_h") * 1e3,
        "embedding.f_max_exact.s": s.total("embedding.f_max_exact"),
        "embedding.unique_ratio": _ratio(sum(s.t.tags[i] for i in f_spans), tried),
        "process.uniqueness_interval.ms_mean": s.mean("process.uniqueness_interval") * 1e3,
        "process.counts_per_trace": _ratio(len(s.under(ce, "cli.process_one")), traces),
        "process.sample_trace.us": s.mean("process.sample_trace") * 1e6,
        "sampling.gnp_half.us": s.mean("sampling.gnp_half") * 1e6,
        "sampling.derive_rng.us": s.mean("sampling.derive_rng") * 1e6,
    }
