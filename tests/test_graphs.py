"""graph-core: construction, complement, induced subgraphs, graph6 codec."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_labelled, graph_from_mask
from uniquesub.errors import DomainError, Graph6Error
from uniquesub.graphs import (Graph, VertexMap, complement, complete_graph, cycle_graph,
                              empty_graph, emit_graph6, from_code, from_edges, graph6_of_code,
                              induced_subgraph, parse_graph6, path_graph, pair_list, relabel)


def small_graphs(max_n: int = 8):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        return graph_from_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    return build()


class TestGraph:
    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            Graph(0, ())
        with pytest.raises(DomainError):
            Graph(65, (0,) * 65)

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            Graph(2, (1, 2))

    def test_rejects_asymmetry(self):
        with pytest.raises(DomainError):
            Graph(2, (2, 0))

    def test_edge_iteration(self):
        g = path_graph(4)
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert g.edge_count() == 3

    @given(small_graphs())
    def test_degree_sum_is_twice_edges(self, g):
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()


class TestComplement:
    def test_complete_flips_to_empty(self):
        assert complement(complete_graph(3)) == empty_graph(3)

    def test_path_three(self):
        # a-b-c flips to the single edge a-c
        assert complement(path_graph(3)) == from_edges(3, [(0, 2)])

    @given(small_graphs())
    def test_involution_and_edge_split(self, g):
        assert complement(complement(g)) == g
        assert g.edge_count() + complement(g).edge_count() == g.n * (g.n - 1) // 2


class TestInducedSubgraph:
    def test_complete_restricts_to_complete(self):
        assert induced_subgraph(complete_graph(4), {0, 1, 2}) == complete_graph(3)

    def test_identity(self):
        g = cycle_graph(5)
        assert induced_subgraph(g, range(5)) == g

    def test_cycle_prefix_is_path(self):
        assert induced_subgraph(cycle_graph(5), {0, 1, 2}) == path_graph(3)

    def test_out_of_range_vertex(self):
        with pytest.raises(DomainError):
            induced_subgraph(complete_graph(3), {0, 3})


class TestVertexMap:
    def test_inverse_roundtrip(self):
        vm = VertexMap(3, 5, (4, 0, 2))
        assert [vm.inverse(vm.apply(u)) for u in range(3)] == [0, 1, 2]

    def test_rejects_repeats(self):
        with pytest.raises(DomainError):
            VertexMap(2, 3, (1, 1))


class TestGraph6:
    def test_one_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.edge_count() == 0
        assert emit_graph6(g) == b"@"

    def test_known_star(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert sorted(g.degree(v) for v in range(5)) == [1, 1, 1, 1, 4]
        assert emit_graph6(g) == b"D?{"

    def test_k3(self):
        assert emit_graph6(complete_graph(3)) == b"Bw"

    def test_truncated(self):
        with pytest.raises(Graph6Error):
            parse_graph6("B")

    def test_trailing_bytes(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("BwBw")
        assert exc.value.offset >= 2

    def test_bad_byte(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"B\x07")

    def test_zero_vertices_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("?")

    def test_optional_file_header(self):
        assert parse_graph6(b">>graph6<<Bw") == complete_graph(3)

    @given(small_graphs())
    def test_roundtrip(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    @settings(max_examples=20)
    @given(small_graphs(max_n=64))
    def test_roundtrip_large_orders(self, g):
        # n = 63, 64 exercise the extended header
        assert parse_graph6(emit_graph6(g)) == g

    def test_roundtrip_exhaustive_n4(self):
        for g in all_labelled(4):
            assert parse_graph6(emit_graph6(g)) == g


class TestFromCode:
    def test_every_mask_to_five(self):
        for n in range(1, 6):
            for mask in range(1 << n * (n - 1) // 2):
                assert from_code(n, mask) == graph_from_mask(n, mask)

    @pytest.mark.parametrize("n", [8, 9, 62, 63, 64])
    def test_seeded_masks(self, n):
        rng = random.Random(n)
        for _ in range(20):
            mask = rng.getrandbits(n * (n - 1) // 2)
            assert from_code(n, mask) == graph_from_mask(n, mask)

    def test_unchecked_rows_pass_the_checks(self):
        # from_code and complement skip Graph's checks; their rows pass them
        rng = random.Random(2026)
        for n in (*range(1, 13), 64):
            for _ in range(20):
                g = from_code(n, rng.getrandbits(n * (n - 1) // 2))
                assert g == Graph(n, g.adj)
                assert complement(g) == Graph(n, complement(g).adj)

    @pytest.mark.parametrize("n, code", [(4, -1), (4, 1 << 6), (0, 0), (65, 0), (2000, 0)])
    def test_rejects_an_order_or_code_out_of_range(self, n, code):
        with pytest.raises(DomainError):
            from_code(n, code)
        with pytest.raises(DomainError):
            graph6_of_code(n, code)


def test_relabel_preserves_structure():
    g = path_graph(4)
    h = relabel(g, (3, 2, 1, 0))
    assert h.edge_count() == g.edge_count()
    assert sorted(h.degree(v) for v in range(4)) == sorted(g.degree(v) for v in range(4))


@pytest.mark.parametrize("perm", [(0, 1, 0, 1), (0, 1, 2, 3, 9), (0, 1, 2), (1, 2, 3, 4)])
def test_relabel_refuses_a_non_permutation(perm):
    with pytest.raises(DomainError, match="not a permutation of 0..3"):
        relabel(path_graph(4), perm)


@given(small_graphs(), st.data())
def test_relabel_maps_each_pair(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, perm)
    assert all(h.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
               for u, v in pair_list(g.n))


@given(small_graphs(), st.data())
def test_induced_subgraph_keeps_pairs_inside(g, data):
    sel = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    h = induced_subgraph(g, sel)
    assert h.n == len(sel)
    assert all(h.has_edge(i, j) == g.has_edge(sel[i], sel[j])
               for i, j in pair_list(len(sel)))


class TestGraph6AgainstNetworkx:
    def test_all_classes_up_to_six(self):
        import networkx as nx
        from uniquesub.census import enumerate_unlabelled
        for n in range(1, 7):
            for g in enumerate_unlabelled(n):
                ng = nx.from_graph6_bytes(emit_graph6(g))
                assert ng.number_of_nodes() == g.n
                assert {tuple(sorted(e)) for e in ng.edges()} == set(g.edges())
                assert parse_graph6(nx.to_graph6_bytes(ng, header=False).strip()) == g

    def test_extended_header_orders(self):
        import networkx as nx
        import numpy as np
        rng = np.random.default_rng(7)
        for n in (63, 64):
            pairs = pair_list(n)
            chosen = [pairs[i] for i in rng.choice(len(pairs), size=200, replace=False)]
            g = from_edges(n, chosen)
            ng = nx.from_graph6_bytes(emit_graph6(g))
            assert ng.number_of_nodes() == n and ng.number_of_edges() == 200
            assert parse_graph6(nx.to_graph6_bytes(ng, header=False).strip()) == g
