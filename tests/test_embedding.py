"""embed-unique: counting, uniqueness predicates, f-values, estimates."""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (beta_ppf_interval, brute_count_embeddings, brute_f_value,
                     graph_from_mask, plain_count_embeddings, plain_unique_count,
                     random_graph, vf2_count_embeddings)
from uniquesub import census, embedding
from uniquesub.canon import aut_order, canonicalize
from uniquesub.census import enumerate_unlabelled
from uniquesub.embedding import (ALL_SIZES, SPANNING_ONLY, clopper_pearson,
                                 count_embeddings, count_subgraph_copies,
                                 estimate_unique_prob, f_max, f_max_exact, f_of_h, f_table,
                                 has_unique_embedding, is_unique_subgraph, unique_trial)
from uniquesub.errors import DomainError
from uniquesub.graphs import (Graph, VertexMap, complement, complete_graph, emit_graph6,
                              empty_graph, from_edges, pair_list, parse_graph6, path_graph)
from uniquesub.process import sample_trace, uniqueness_interval
from uniquesub.sampling import derive_rng, gnp_half


def _all_labelled(n):
    pairs = pair_list(n)
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


class TestCountEmbeddings:
    def test_edge_into_triangle(self):
        out = count_embeddings(complete_graph(2), complete_graph(3))
        assert out.kind == "exact" and out.count == 6

    def test_no_constraints(self):
        out = count_embeddings(empty_graph(3), path_graph(3))
        assert out.count == 6

    def test_path_into_triangle(self):
        assert count_embeddings(path_graph(3), complete_graph(3)).count == 6

    def test_larger_pattern_is_zero(self):
        assert count_embeddings(complete_graph(4), complete_graph(3)).is_zero

    def test_early_exit_threshold(self):
        out = count_embeddings(complete_graph(2), complete_graph(3), early_exit_at=2)
        assert out.kind == "at_least" and out.count == 2
        with pytest.raises(DomainError):
            count_embeddings(complete_graph(2), complete_graph(3), early_exit_at=0)

    @pytest.mark.parametrize("g, h", [
        (empty_graph(3), complete_graph(3)),  # all six leaves at the last position
        (empty_graph(1), complete_graph(4)),  # one position, first and last
        (complete_graph(1), path_graph(3)),
        (path_graph(3), complete_graph(5)),  # three candidates at each last position
    ], ids=["3K1-K3", "K1-K4", "K1-P3", "P3-K5"])
    def test_last_position_count_clamps_at_early_exit(self, g, h):
        # the last position's candidates are counted at once, clamped to the
        # early exit where a leaf-by-leaf search would have stopped
        for early in (None, *range(1, 8)):
            assert count_embeddings(g, h, early) == plain_count_embeddings(g, h, early), early

    def test_against_brute_force_small(self):
        rng = derive_rng(20240, 0)
        for _ in range(150):
            g = gnp_half(int(rng.integers(1, 5)), derive_rng(int(rng.integers(0, 2 ** 32)), 0))
            h = gnp_half(int(rng.integers(1, 6)), derive_rng(int(rng.integers(0, 2 ** 32)), 1))
            assert count_embeddings(g, h).count == brute_count_embeddings(g, h)

    def test_early_exit_matches_exact_projection(self):
        rng = derive_rng(555, 0)
        gen = derive_rng(7000, None)
        for trial in range(10_000):
            g = gnp_half(int(rng.integers(2, 6)), gen)
            h = gnp_half(int(rng.integers(4, 7)), gen)
            exact = count_embeddings(g, h).count
            fast = count_embeddings(g, h, early_exit_at=2)
            assert min(exact, 2) == min(fast.count, 2)

    def test_matches_plain_search_on_class_pairs(self):
        # the degree filter drops only dead branches: same count and exit
        classes = {n: list(enumerate_unlabelled(n)) for n in range(1, 6)}
        for nh in classes:
            for h in classes[nh]:
                for ng in range(1, nh + 1):
                    for g in classes[ng]:
                        for early in (None, 1, 2, aut_order(g) + 1):
                            assert (count_embeddings(g, h, early)
                                    == plain_count_embeddings(g, h, early)), (g, h, early)

    def test_matches_plain_search_on_montecarlo_host(self):
        h = parse_graph6("Gyh|^k")
        for i in range(500):
            g = gnp_half(8, derive_rng(2024, i))
            assert count_embeddings(g, h, 2) == plain_count_embeddings(g, h, 2), i

    @settings(max_examples=60)
    @given(st.integers(0, 2 ** 10 - 1), st.integers(0, 2 ** 10 - 1), st.integers(0, 9))
    def test_adding_pattern_edge_never_increases(self, gmask, hmask, pair_idx):
        g = graph_from_mask(5, gmask)
        h = graph_from_mask(5, hmask)
        u, v = pair_list(5)[pair_idx]
        before = count_embeddings(g, h).count
        after = count_embeddings(g.with_edge(u, v), h).count
        assert after <= before


class TestAgainstVF2:
    def test_early_exit_counts_match_vf2(self):
        rng = random.Random(12)
        pairs = []
        for n in (10, 11, 12):
            all_pairs = pair_list(n)
            for _ in range(10):  # into the complement of n random edges: the paper's dense case
                h = complement(from_edges(n, rng.sample(all_pairs, n)))
                k, p = rng.choice((n, n - 1, n - 2)), rng.choice((0.3, 0.5))
                pairs.append((random_graph(k, p, rng), h))
            for _ in range(4):  # into sparse hosts, where about half have no embedding
                pairs.append((random_graph(n - 4, 0.4, rng), random_graph(n, 0.3, rng)))
        counts = set()
        for g, h in pairs:
            count = count_embeddings(g, h, early_exit_at=3).count
            assert count == vf2_count_embeddings(g, h, early_exit_at=3), (g, h)
            counts.add(count)
        assert {0, 3} <= counts


class TestCopies:
    def test_edges_in_triangle(self):
        assert count_subgraph_copies(complete_graph(2), complete_graph(3)).count == 3

    def test_triangle_in_triangle(self):
        out = count_subgraph_copies(complete_graph(3), complete_graph(3))
        assert out.is_one

    def test_path_in_triangle(self):
        assert count_subgraph_copies(path_graph(3), complete_graph(3)).count == 3

    def test_duality_exhaustive_classes(self):
        # embeddings = copies * aut, over all class pairs of equal order <= 5
        for n in (2, 3, 4, 5):
            classes = list(enumerate_unlabelled(n))
            for g in classes:
                for h in classes:
                    emb = count_embeddings(g, h).count
                    cop = count_subgraph_copies(g, h).count
                    assert emb == cop * aut_order(g)


class TestUniquePredicates:
    def test_triangle_examples(self):
        k3 = complete_graph(3)
        assert is_unique_subgraph(k3, k3)
        assert not is_unique_subgraph(complete_graph(2), k3)
        assert is_unique_subgraph(empty_graph(3), k3)

    def test_unique_embedding_examples(self):
        k3 = complete_graph(3)
        assert not has_unique_embedding(k3, k3)
        for g in _all_labelled(3):
            assert not has_unique_embedding(g, k3)

    def test_rigid_graph_into_itself(self):
        rigid = next(g for g in enumerate_unlabelled(6) if aut_order(g) == 1)
        assert has_unique_embedding(rigid, rigid)

    def test_requires_equal_orders(self):
        with pytest.raises(DomainError):
            has_unique_embedding(complete_graph(2), complete_graph(3))

    @pytest.mark.parametrize("host_g6", ["DhC", "Dhc", "D{O", "D~{", "D]o"],
                             ids=["P5", "C5", "bull", "K5", "K2,3"])
    def test_shortcuts_agree_with_a_plain_search_at_five(self, host_g6):
        # every labelled 5-vertex pattern; K5 and K2,3 have twins, the
        # others none, and P5 and C5 fail the degree rule for most patterns
        h = parse_graph6(host_g6)
        for g in _all_labelled(5):
            assert has_unique_embedding(g, h) == (plain_count_embeddings(g, h, 2).count == 1)

    @pytest.mark.parametrize("host_g6", ["Gyh|^k", "GZehmW"])  # rigid, 20 and 16 edges
    def test_shortcuts_agree_with_a_plain_search_at_eight(self, host_g6):
        h = parse_graph6(host_g6)
        outcomes = set()
        for i in range(2000):
            g = gnp_half(8, derive_rng(808, i))
            unique = has_unique_embedding(g, h)
            assert unique == (plain_count_embeddings(g, h, 2).count == 1)
            outcomes.add(unique)
        assert outcomes == {True, False}

    def test_equivalence_law_exhaustive_n3(self):
        for g in _all_labelled(3):
            rigid = aut_order(g) == 1
            for h in _all_labelled(3):
                assert has_unique_embedding(g, h) == (is_unique_subgraph(g, h) and rigid)


class TestFValues:
    def test_f_triangle(self):
        fv = f_of_h(complete_graph(3))
        assert fv.unique_count == 2
        assert fv.f == Fraction(3, 2)

    def test_f_single_vertex(self):
        assert f_of_h(Graph(1, (0,))).f == 1

    def test_spanning_at_most_all_sizes(self):
        for n in (2, 3, 4, 5):
            for h in enumerate_unlabelled(n):
                spanning = f_of_h(h, SPANNING_ONLY)
                full = f_of_h(h, ALL_SIZES)
                assert spanning.unique_count <= full.unique_count
                assert spanning.unique_count >= 1  # H is its own unique spanning copy

    def test_all_sizes_at_eight(self):
        # only the empty order-8 graph is a unique subgraph of the empty host
        assert f_of_h(empty_graph(8), ALL_SIZES).unique_count == 1
        assert f_of_h(empty_graph(8), SPANNING_ONLY).unique_count == 1

    def test_resource_guard(self, monkeypatch):
        # the census guard refuses order 10 before any level is built or counted
        calls = {"canonicalize": 0, "_plan_count": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(census, "canonicalize", counting("canonicalize", canonicalize))
        monkeypatch.setattr(embedding, "_plan_count",
                            counting("_plan_count", embedding._plan_count))
        census._census.cache_clear()
        try:
            for universe in (ALL_SIZES, SPANNING_ONLY):
                with pytest.raises(DomainError, match=r"1\.\.9 vertices, got 10"):
                    f_of_h(empty_graph(10), universe)
        finally:
            census._census.cache_clear()
        assert calls == {"canonicalize": 0, "_plan_count": 0}

    def test_one_pattern_pass_serves_both_universes(self, monkeypatch):
        # all-sizes f reads the order-6 census alone: of 156 patterns per host,
        # those the host's degrees dominate, less the empty one, are searched
        calls = []
        search = embedding._plan_count

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(embedding, "_plan_count", counting)
        per_universe = {}
        for universe in (ALL_SIZES, SPANNING_ONLY):
            calls.clear()
            f_table(6, universe)
            per_universe[universe] = len(calls)
        assert per_universe == {ALL_SIZES: 8_787, SPANNING_ONLY: 8_787}
        calls.clear()
        assert f_of_h(empty_graph(6)).unique_count == 1
        assert calls == []

    def test_matches_plain_pattern_loop(self):
        # every host to n=6, then K7, the empty 7-vertex graph and G(7,1/2) hosts
        hosts = [h for n in range(1, 7) for h in enumerate_unlabelled(n)]
        hosts += [complete_graph(7), empty_graph(7)]
        hosts += [gnp_half(7, derive_rng(77, i)) for i in range(8)]
        for h in hosts:
            for universe in (ALL_SIZES, SPANNING_ONLY):
                assert f_of_h(h, universe).unique_count == plain_unique_count(h, universe), h

    def test_f_max_small(self):
        fv, g6 = f_max_exact(1)
        assert fv.f == 1 and g6 == "@"
        fv, _ = f_max_exact(2)
        assert fv.f == 2

    def test_f_max_three_matches_oracle_table(self):
        table = {tuple(sorted(h.degree(v) for v in range(3))): f_of_h(h).f
                 for h in enumerate_unlabelled(3)}
        assert table[(0, 0, 0)] == Fraction(3, 4)
        assert table[(0, 1, 1)] == Fraction(9, 4)
        assert table[(1, 1, 2)] == Fraction(3, 2)
        assert table[(2, 2, 2)] == Fraction(3, 2)
        fv, _ = f_max_exact(3)
        assert fv.f == Fraction(9, 4)

    def test_f_of_h_matches_brute_on_classes_to_n5(self):
        # the oracle enumerates vertex and edge subsets of every order itself
        for n in range(1, 6):
            for h in enumerate_unlabelled(n):
                assert f_of_h(h).f == brute_f_value(h)

    def test_f_table_seven_on_two_workers(self):
        # the first order split across the worker map; one "g6 count" line per
        # class, and the all-sizes maximum f(7) = 132 * 7! / 2^21
        table = f_table(7, threads=2)
        lines = "".join(f"{emit_graph6(fv.h).decode()} {fv.unique_count}\n" for fv in table)
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "850fb6013175234e62e6ea812f236226d21a440ca9b9c1e682d62cd857acb3ef")
        best = f_max(table)
        assert (emit_graph6(best.h), best.unique_count) == (b"FDZJw", 132)
        assert best.f == Fraction(132 * 5040, 2 ** 21)

    @pytest.mark.parametrize("g6, universe, count", [("FDZJw", ALL_SIZES, 132),
                                                      ("F@U~w", SPANNING_ONLY, 118)])
    def test_maximisers_at_seven_match_plain_pattern_loop(self, g6, universe, count):
        h = parse_graph6(g6)
        assert f_of_h(h, universe).unique_count == plain_unique_count(h, universe) == count

    def test_f_table_below_the_pool_floor_starts_no_pool(self, pools):
        assert len(f_table(6, threads=2)) == 156 and pools == []

    def test_f_table_is_the_same_on_the_worker_map(self, monkeypatch):
        # with the floor lowered to 6, the table split across two forked
        # workers is the one-process table
        monkeypatch.setattr(embedding, "F_POOL_MIN_N", 6)
        assert f_table(6, threads=2) == f_table(6, threads=1)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            f_max_exact(8)


class TestEstimate:
    def test_triangle_is_exactly_zero(self):
        rep = estimate_unique_prob(complete_graph(3), trials=300, seed=11)
        assert rep.estimate == 0.0 and rep.successes == 0

    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError):
            estimate_unique_prob(complete_graph(3), trials=0, seed=1)

    def test_interval_contains_estimate(self):
        rep = estimate_unique_prob(path_graph(4), trials=200, seed=5)
        assert rep.ci_low <= rep.estimate <= rep.ci_high
        assert 0.0 <= rep.ci_low <= rep.ci_high <= 1.0

    def test_four_vertex_exact_probability_in_interval(self):
        # exhaustive truth over all 64 labelled patterns
        h = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        exact = sum(has_unique_embedding(g, h) for g in _all_labelled(4)) / 64
        rep = estimate_unique_prob(h, trials=400, seed=23)
        assert rep.ci_low <= exact <= rep.ci_high

    def test_six_vertex_host_nontrivial_probability(self):
        rigid = next(g for g in enumerate_unlabelled(6) if aut_order(g) == 1)
        rep = estimate_unique_prob(rigid, trials=400, seed=17)
        assert rep.ci_low <= rep.estimate <= rep.ci_high

    def test_interval_is_bit_identical_to_beta_ppf(self):
        # Every successes count up to 60 trials, and 100 seeded counts at each
        # larger size, including the montecarlo8 benchmark's 6000 trials.
        rng = random.Random(2024)
        grid = [(s, t) for t in range(1, 61) for s in range(t + 1)]
        grid += [(s, t) for t in (150, 6000, 10000) for s in rng.sample(range(t + 1), 100)]
        assert [clopper_pearson(s, t) for s, t in grid] == [beta_ppf_interval(s, t)
                                                             for s, t in grid]

    def test_reproducible(self):
        a = estimate_unique_prob(path_graph(4), trials=100, seed=99)
        b = estimate_unique_prob(path_graph(4), trials=100, seed=99)
        assert a == b


def test_searches_build_no_vertex_map(monkeypatch, fresh_census):
    """A search returns counts, codes and |Aut| only: the census, exact f,
    Monte-Carlo trials and the process interval build no ``VertexMap``."""
    def refuse(self):
        raise AssertionError("a search built a VertexMap")

    monkeypatch.setattr(VertexMap, "__post_init__", refuse)
    assert len(census.census_entries(6)) == 156
    assert len(f_table(5)) == 34
    h = parse_graph6("Gyh|^k")
    for i in range(200):
        unique_trial(h, 2024, i)
    uniqueness_interval(sample_trace(8, 2024, 0), h)
