"""The package names the benchmark's traced run wraps or calls.

Only ``perfbench/tracing.py`` is read from the benchmark, so a change that
drops or renames one of these names fails here, not in the benchmark.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from uniquesub import canon, census, cli
from uniquesub.embedding import count_embeddings, estimate_unique_prob
from uniquesub.graphs import complete_graph, parse_graph6, path_graph
from uniquesub.process import run_traces

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    sites = _tracing().SITES
    assert sites
    for module, attr, _, _ in sites:
        assert callable(getattr(importlib.import_module(f"uniquesub.{module}"), attr)), \
            f"uniquesub.{module}.{attr}"


def test_pool_work_units_keep_their_signatures():
    assert cli._estimate_trial(("C~", 1, 0)) in (True, False)
    record = cli._process_one(("C~", 1, 0, 0.5, False))
    assert record["trace_index"] == 0 and "x" in record
    assert cli.dumps(record).startswith("{")


def test_pool_work_units_agree_with_the_library_runs():
    # the traced montecarlo8 pass compares these units' sums with the CLI's payloads
    h = parse_graph6("Gyh|^k")
    wins = sum(cli._estimate_trial(("Gyh|^k", 1, i)) for i in range(300))
    assert wins == estimate_unique_prob(h, 300, 1).successes
    records = [cli._process_one(("Gyh|^k", 1, i, 0.5, False)) for i in range(5)]
    assert records == run_traces(h, 5, 1, 0.5)


def test_caches_the_traced_run_clears():
    assert callable(canon.canonicalize.cache_clear)
    assert callable(canon.canonicalize.cache_info)
    assert callable(canon.canonicalize.__wrapped__)
    assert callable(census._census.cache_clear)


def test_every_outcome_kind_has_a_trace_tag():
    # the traced run tags each count_embeddings span with _OUTCOME[result.kind]
    k1, k2, k3 = complete_graph(1), complete_graph(2), complete_graph(3)
    outcomes = [count_embeddings(k3, path_graph(3)), count_embeddings(k1, k1),
                count_embeddings(k2, k3), count_embeddings(k2, k3, early_exit_at=2)]
    assert [out.kind for out in outcomes] == ["zero", "one", "exact", "at_least"]
    tag = _tracing()._OUTCOME
    assert len({tag[out.kind] for out in outcomes}) == 4
