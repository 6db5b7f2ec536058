"""embed-unique: counting, uniqueness predicates, f-values, estimates."""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (all_labelled, beta_ppf_interval, brute_count_embeddings, brute_f_value,
                     graph_from_mask, numpy_generator, plain_count_embeddings,
                     plain_unique_count, random_graph, vf2_count_embeddings)
from uniquesub import census, embedding, parallel
from uniquesub.canon import aut_order, canonicalize, decode_canon_bytes
from uniquesub.census import enumerate_unlabelled
from uniquesub.embedding import (ALL_SIZES, SPANNING_ONLY, clopper_pearson,
                                 count_embeddings, count_subgraph_copies,
                                 estimate_unique_prob, f_max, f_max_exact, f_of_h, f_table,
                                 has_unique_embedding, is_unique_subgraph, unique_trial)
from uniquesub.errors import DomainError
from uniquesub.graphs import (Graph, VertexMap, complement, complete_graph, emit_graph6,
                              empty_graph, from_edges, pair_list, parse_graph6, path_graph,
                              relabel)
from uniquesub.process import sample_trace, uniqueness_interval
from uniquesub.sampling import derive_rng, gnp_half


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
        (empty_graph(3), complete_graph(3)),  # no live vertex: six fills
        (empty_graph(1), complete_graph(4)),  # one isolated vertex, four fills
        (complete_graph(1), path_graph(3)),
        (path_graph(3), complete_graph(5)),  # three candidates at each last position
    ], ids=["3K1-K3", "K1-K4", "K1-P3", "P3-K5"])
    def test_last_position_count_clamps_at_early_exit(self, g, h):
        # isolated vertices and the last position's candidates are counted at
        # once, clamped to the early exit where a leaf-by-leaf search stops
        for early in (None, *range(1, 8)):
            assert count_embeddings(g, h, early) == plain_count_embeddings(g, h, early), early

    def test_isolated_vertices_are_counted_not_searched(self):
        # a search over the isolated vertices would visit 64! leaves
        assert count_embeddings(empty_graph(64), complete_graph(64)).count == factorial(64)
        k2_62k1 = from_edges(64, [(0, 1)])
        assert count_embeddings(k2_62k1, complete_graph(64)).count == 64 * 63 * factorial(62)
        assert count_subgraph_copies(empty_graph(9), complete_graph(9)).count == 1

    def test_against_brute_force_small(self):
        rng = numpy_generator(20240, 0)
        for _ in range(150):
            g = gnp_half(int(rng.integers(1, 5)), derive_rng(int(rng.integers(0, 2 ** 32)), 0))
            h = gnp_half(int(rng.integers(1, 6)), derive_rng(int(rng.integers(0, 2 ** 32)), 1))
            assert count_embeddings(g, h).count == brute_count_embeddings(g, h)

    def test_early_exit_matches_exact_projection(self):
        rng = numpy_generator(555, 0)
        gen = derive_rng(7000, None)
        for trial in range(10_000):
            g = gnp_half(int(rng.integers(2, 6)), gen)
            h = gnp_half(int(rng.integers(4, 7)), gen)
            exact = count_embeddings(g, h).count
            fast = count_embeddings(g, h, early_exit_at=2)
            assert min(exact, 2) == min(fast.count, 2)

    def test_matches_plain_search_on_class_pairs(self):
        # the degree filter drops only dead branches, and the isolated
        # vertices' fill and its early exit match their leaves: same count and exit
        classes = {n: list(enumerate_unlabelled(n)) for n in range(1, 6)}
        for nh in classes:
            for h in classes[nh]:
                for ng in range(1, nh + 1):
                    for g in classes[ng]:
                        aut = aut_order(g)
                        for early in (None, 1, 2, 3, aut, aut + 1):
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


def _equal_order_class_pairs(max_n: int):
    for n in range(1, max_n + 1):
        classes = list(enumerate_unlabelled(n))
        for g in classes:
            for h in classes:
                yield g, h


def test_both_sides_match_plain_search_at_equal_order():
    # pi embeds G into H iff pi^-1 embeds H^c into G^c, so both sides give
    # every count, clamped or not; the complement pair is the true one
    for g, h in _equal_order_class_pairs(5):
        hc, gc = complement(h), complement(g)
        assert hc == from_edges(h.n, [p for p in pair_list(h.n) if not h.has_edge(*p)])
        assert gc == from_edges(g.n, [p for p in pair_list(g.n) if not g.has_edge(*p)])
        for early in (None, 1, 2, 3):
            plain = plain_count_embeddings(g, h, early)
            direct = embedding._count(*embedding._plan(g), embedding._host(h), early)
            flipped = embedding._count(*embedding._plan(hc), embedding._host(gc), early)
            assert direct == flipped == plain.count, (g, h, early)
            assert count_embeddings(g, h, early) == plain, (g, h, early)


def test_equal_order_counts_search_the_pattern_with_fewer_edges(monkeypatch):
    searched = []
    real_count = embedding._count

    def spy(degrees, prev, host, early_exit_at):
        searched.append((degrees, prev, host[1]))
        return real_count(degrees, prev, host, early_exit_at)

    monkeypatch.setattr(embedding, "_count", spy)
    pairs = list(_equal_order_class_pairs(4))
    h8 = parse_graph6("Gyh|^k")
    pairs += [(gnp_half(8, derive_rng(11, i)), h8) for i in range(100)]
    pairs += [(h8, gnp_half(8, derive_rng(12, i))) for i in range(100)]
    sides = set()
    for g, h in pairs:
        searched.clear()
        count_embeddings(g, h, 2)
        flip = g.edge_count() + h.edge_count() > g.n * (g.n - 1) // 2
        pattern, host = (complement(h), complement(g)) if flip else (g, h)
        assert searched == [(*embedding._plan(pattern), host.adj)], (g, h)
        sides.add(flip)
    assert sides == {True, False}
    # a smaller pattern is always searched directly
    searched.clear()
    count_embeddings(complete_graph(3), h8)
    assert searched == [(*embedding._plan(complete_graph(3)), h8.adj)]


def test_host_side_is_built_once_per_host():
    embedding._host_side.cache_clear()
    estimate_unique_prob(parse_graph6("Gyh|^k"), 300, 5)
    info = embedding._host_side.cache_info()
    assert info.misses == 1 and info.hits >= 299  # each trial looks the host up


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
        for g in all_labelled(3):
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
        for g in all_labelled(5):
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
        for g in all_labelled(3):
            rigid = aut_order(g) == 1
            for h in all_labelled(3):
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
        hosts = list(enumerate_unlabelled(6))
        per_universe = {}
        for universe in (ALL_SIZES, SPANNING_ONLY):
            calls.clear()
            for h in hosts:
                f_of_h(h, universe)
            per_universe[universe] = len(calls)
        assert len(hosts) == 156
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

    @pytest.mark.parametrize("universe, digest, g6, count", [
        (ALL_SIZES, "850fb6013175234e62e6ea812f236226d21a440ca9b9c1e682d62cd857acb3ef",
         b"FDZJw", 132),
        (SPANNING_ONLY, "e1216e2930ad921a17c757998afad00ecd040cd5e1d5ed8c04079f9f263a7f1b",
         b"F@U~w", 118)], ids=[ALL_SIZES, SPANNING_ONLY])
    def test_f_table_seven(self, universe, digest, g6, count):
        # one "g6 count" line per class, and the maximum f(7) = count * 7! / 2^21
        table = f_table(7, universe)
        lines = "".join(f"{emit_graph6(fv.h).decode()} {fv.unique_count}\n" for fv in table)
        assert hashlib.sha256(lines.encode()).hexdigest() == digest
        best = f_max(table)
        assert (emit_graph6(best.h), best.unique_count) == (g6, count)
        assert best.f == Fraction(count * 5040, 2 ** 21)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_f_table_matches_f_of_h(self, n):
        # the edge-deletion pass against the per-host pattern loop, every host
        for universe in (ALL_SIZES, SPANNING_ONLY):
            table = f_table(n, universe)
            assert [fv.h for fv in table] == list(enumerate_unlabelled(n))
            assert table == [f_of_h(fv.h, universe) for fv in table]

    @pytest.mark.parametrize("g6, universe, count", [("FDZJw", ALL_SIZES, 132),
                                                      ("F@U~w", SPANNING_ONLY, 118),
                                                      ("GLLm]{", ALL_SIZES, 1163),
                                                      ("GBhu~[", SPANNING_ONLY, 1097)])
    def test_maximisers_match_plain_pattern_loop(self, g6, universe, count):
        h = parse_graph6(g6)
        assert f_of_h(h, universe).unique_count == plain_unique_count(h, universe) == count

    def test_f_table_starts_no_pool(self, pools):
        # every host is decided in this process, whatever the order
        assert len(f_table(7)) == 1044 and pools == []

    def test_out_of_range(self):
        with pytest.raises(DomainError, match=r"1\.\.8, got 9"):
            f_max_exact(9)
        with pytest.raises(DomainError, match="unknown universe"):
            f_table(3, "induced")


@pytest.mark.parametrize("n", range(1, 6))
def test_children_holding_a_class_count_its_copies(n):
    """The fact ``f_table`` rests on, by oracle counts alone: with s spanning
    copies of G in H and e(G) < e(H), the number of edges e for which H - e
    holds G is 0 when s = 0, exactly e(H) - e(G) when s = 1, and more when
    s >= 2."""
    classes = list(enumerate_unlabelled(n))
    auts = [plain_count_embeddings(g, g).count for g in classes]
    for h in classes:
        edges = list(h.edges())
        children = [from_edges(n, edges[:k] + edges[k + 1:]) for k in range(len(edges))]
        for g, aut in zip(classes, auts):
            if g.edge_count() >= len(edges):
                continue
            s = plain_count_embeddings(g, h).count // aut
            holding = sum(plain_count_embeddings(g, c, early_exit_at=1).count for c in children)
            gap = len(edges) - g.edge_count()
            assert holding == 0 if s == 0 else holding == gap if s == 1 else holding > gap


@pytest.mark.parametrize("n, unique_keys", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34),
                                             (6, 156), (7, 1044)])
def test_a_unique_key_names_the_class_of_every_child(n, unique_keys):
    """Every child H - e whose signature one class alone has is of that
    class, by ``canonicalize``; the classes with a signature of their own
    are counted."""
    entries = census.census_entries(n)
    index = {canon_bytes: i for i, (canon_bytes, _) in enumerate(entries)}
    hosts = [decode_canon_bytes(canon_bytes) for canon_bytes, _ in entries]
    by_key = embedding._classes_by_key(hosts)
    for h in hosts:
        for u, v in h.edges():
            child = from_edges(n, [edge for edge in h.edges() if edge != (u, v)])
            named = by_key[embedding._signature(child.adj)]
            if named >= 0:
                assert named == index[canonicalize(child).canon_bytes]
    assert sum(i >= 0 for i in by_key.values()) == unique_keys


@given(st.integers(1, 8), st.integers(0, 2 ** 28 - 1), st.randoms(use_true_random=False))
def test_signature_invariant_under_relabelling(n, seed_mask, rnd):
    g = graph_from_mask(n, seed_mask & ((1 << n * (n - 1) // 2) - 1))
    perm = list(range(n))
    rnd.shuffle(perm)
    assert embedding._signature(relabel(g, perm).adj) == embedding._signature(g.adj)


@pytest.mark.parametrize("universe", [ALL_SIZES, SPANNING_ONLY])
def test_f_table_canonicalises_a_child_whose_key_is_shared(monkeypatch, universe):
    # with one signature for every graph, every child takes the canonical search
    expected = f_table(6, universe)
    searches = []

    def counted(g):
        searches.append(g)
        return canonicalize(g)

    monkeypatch.setattr(embedding, "_signature", lambda adj: b"")
    monkeypatch.setattr(embedding, "canonicalize", counted)
    assert f_table(6, universe) == expected
    assert len(searches) == sum(fv.h.edge_count() for fv in expected) == 1170


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
        exact = sum(has_unique_embedding(g, h) for g in all_labelled(4)) / 64
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

    def test_thread_count_does_not_change_report(self):
        h = parse_graph6("Gyh|^k")
        serial = estimate_unique_prob(h, 6000, 1)
        assert estimate_unique_prob(h, 6000, 1, threads=2) == serial
        assert serial.successes == 109

    @pytest.mark.parametrize("trials, seed", [(0, 1), (64, -1)], ids=["trials-0", "seed-minus-1"])
    def test_refuses_bad_input_before_any_worker_starts(self, monkeypatch, pools, trials, seed):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        h = parse_graph6("Gyh|^k")
        with pytest.raises(DomainError):
            estimate_unique_prob(h, trials, seed, threads=2)
        assert pools == []
        estimate_unique_prob(h, 64, 1, threads=2)
        assert pools == [2]


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
