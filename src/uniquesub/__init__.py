"""Exact and Monte-Carlo laboratory for unique-subgraph densities of small graphs."""

from .bounds import (BoundReport, azuma_tail, binomial_point_mass_max, chernoff_l,
                     dense_case_inequality, density_decay_bound, expected_embeddings,
                     union_budget)
from .canon import CanonicalForm, are_isomorphic, aut_order, canonicalize
from .census import (MAX_ENUMERATION_N, PolyaReport, enumerate_unlabelled,
                     nontrivial_aut_fraction, polya_report, unlabelled_count)
from .embedding import (ALL_SIZES, SPANNING_ONLY, CountOutcome, EstimateReport, FValue,
                        count_embeddings, count_subgraph_copies, estimate_unique_prob,
                        f_max, f_max_exact, f_of_h, f_table, has_unique_embedding,
                        is_unique_subgraph, verify_embedding)
from .errors import DomainError, Graph6Error, UniquesubError
from .graphs import (Graph, VertexMap, complement, complete_graph, cycle_graph,
                     empty_graph, emit_graph6, from_edges, induced_subgraph,
                     ingest_corpus, parse_graph6, path_graph, relabel)
from .process import (ProcessTrace, UniquenessInterval, XStatistic, embedding_trajectory,
                      sample_trace, supergraph_completion_prob, uniqueness_interval,
                      x_statistic)
from .switching import (DegreeClassification, RefinementResult, SwitchContext,
                        apply_switch, classify_degrees, default_schedule,
                        edge_influence_budget, find_switch, is_pi_switch, refine_t,
                        required_pairs, switch_probability)

__version__ = "0.1.0"
