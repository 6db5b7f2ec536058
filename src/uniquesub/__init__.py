"""Exact and Monte-Carlo laboratory for unique-subgraph densities of small graphs.

Every public name loads its module on first use (PEP 562), so ``import
uniquesub`` loads no submodule, and a command loads only the modules it runs.
"""
from importlib import import_module

_MODULE_NAMES = {
    "bounds": ("BoundReport", "azuma_tail", "binomial_point_mass_max", "chernoff_l",
               "dense_case_inequality", "density_decay_bound", "expected_embeddings",
               "union_budget"),
    "canon": ("CanonicalForm", "are_isomorphic", "aut_order", "canonicalize"),
    "census": ("MAX_ENUMERATION_N", "PolyaReport", "enumerate_unlabelled",
               "nontrivial_aut_fraction", "polya_report", "unlabelled_count"),
    "embedding": ("ALL_SIZES", "SPANNING_ONLY", "CountOutcome", "EstimateReport", "FValue",
                  "count_embeddings", "count_subgraph_copies", "estimate_unique_prob",
                  "f_max", "f_max_exact", "f_of_h", "f_table", "has_unique_embedding",
                  "is_unique_subgraph", "verify_embedding"),
    "errors": ("DomainError", "Graph6Error", "UniquesubError"),
    "graphs": ("Graph", "VertexMap", "complement", "complete_graph", "cycle_graph",
               "empty_graph", "emit_graph6", "from_edges", "induced_subgraph",
               "ingest_corpus", "parse_graph6", "path_graph", "relabel"),
    "process": ("ProcessTrace", "UniquenessInterval", "XStatistic", "embedding_trajectory",
                "run_traces", "sample_trace", "supergraph_completion_prob",
                "uniqueness_interval", "x_statistic"),
    "switching": ("DegreeClassification", "RefinementResult", "SwitchContext",
                  "apply_switch", "classify_degrees", "default_schedule",
                  "edge_influence_budget", "find_switch", "is_pi_switch", "refine_t",
                  "required_pairs", "switch_probability"),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
