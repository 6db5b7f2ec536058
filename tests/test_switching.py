"""switch-analysis: switch detection, probabilities, degree classes, influence."""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import sqrt

import pytest

from oracles import (all_labelled, numpy_generator, switch_required_pairs_restated,
                     toggle_influence_oracle)
from uniquesub.bounds import azuma_tail
from uniquesub.census import enumerate_unlabelled
from uniquesub.embedding import clopper_pearson
from uniquesub.errors import DomainError
from uniquesub.graphs import (VertexMap, complete_graph, empty_graph, from_edges,
                              pair_list, path_graph)
from uniquesub.sampling import derive_rng, gnp_half
from uniquesub.switching import (SwitchContext, apply_switch, classify_degrees,
                                 default_schedule, edge_influence_budget, find_switch,
                                 is_embedding, is_pi_switch, refine_t, required_pairs,
                                 switch_probability)


def _identity(n):
    return VertexMap.identity(n)


def _random_sparse(n, edges, rng):
    pairs = pair_list(n)
    chosen = rng.permutation(len(pairs))[:edges]
    return from_edges(n, [pairs[i] for i in chosen])


class TestIsPiSwitch:
    def test_identical_neighbourhoods_vacuous(self):
        hc = from_edges(4, [(0, 2), (1, 2)])  # N(0) = N(1) = {2}
        ctx = SwitchContext(hc, empty_graph(4), _identity(4))
        assert is_pi_switch(ctx, 0, 1)

    def test_single_edge_complement_example(self):
        hc = from_edges(4, [(0, 1)])
        pi = _identity(4)
        missing = SwitchContext(hc, empty_graph(4), pi)
        present = SwitchContext(hc, from_edges(4, [(1, 2)]), pi)
        assert not is_pi_switch(missing, 0, 2)  # needs the edge (2, pi(1))
        assert is_pi_switch(present, 0, 2)

    def test_rejects_equal_vertices(self):
        ctx = SwitchContext(empty_graph(3), empty_graph(3), _identity(3))
        with pytest.raises(DomainError):
            is_pi_switch(ctx, 1, 1)

    def test_exhaustive_agreement_with_restatement_n4(self):
        # every class of Hc, every labelled G, every bijection, every pair
        for hc in enumerate_unlabelled(4):
            for g in all_labelled(4):
                for image in permutations(range(4)):
                    pi = VertexMap(4, 4, image)
                    ctx = SwitchContext(hc, g, pi)
                    for u in range(4):
                        for v in range(u + 1, 4):
                            req = switch_required_pairs_restated(hc, image, u, v)
                            expected = all(g.has_edge(*p) for p in req)
                            assert is_pi_switch(ctx, u, v) == expected
                            assert required_pairs(hc, pi, u, v) == req


class TestApplySwitch:
    def test_five_vertex_instance(self):
        hc = from_edges(5, [(0, 1), (1, 2), (3, 4)])
        g = from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 2), (2, 3), (1, 4)])
        pi = _identity(5)
        ctx = SwitchContext(hc, g, pi)
        assert is_embedding(ctx)
        pair = find_switch(ctx)
        assert pair is not None
        swapped = apply_switch(ctx, *pair)
        assert is_embedding(SwitchContext(hc, g, swapped))
        assert swapped != pi

    def test_involution(self):
        hc = from_edges(4, [(0, 1)])
        g = complete_graph(4)
        ctx = SwitchContext(hc, g, _identity(4))
        pair = find_switch(ctx)
        once = apply_switch(ctx, *pair)
        twice = apply_switch(SwitchContext(hc, g, once), *pair)
        assert twice == _identity(4)

    def test_precondition_names_failure(self):
        hc = from_edges(3, [(0, 1)])
        ctx = SwitchContext(hc, empty_graph(3), _identity(3))
        with pytest.raises(DomainError, match="embedding"):
            apply_switch(ctx, 0, 1)
        ctx2 = SwitchContext(hc, from_edges(3, [(0, 1)]), _identity(3))
        with pytest.raises(DomainError, match="switch"):
            apply_switch(ctx2, 0, 2)

    def test_soundness_over_classes_n4(self):
        for hc in enumerate_unlabelled(4):
            for g in all_labelled(4):
                for image in permutations(range(4)):
                    ctx = SwitchContext(hc, g, VertexMap(4, 4, image))
                    if not is_embedding(ctx):
                        continue
                    for u in range(4):
                        for v in range(u + 1, 4):
                            if is_pi_switch(ctx, u, v):
                                swapped = apply_switch(ctx, u, v)
                                assert is_embedding(SwitchContext(hc, g, swapped))


class TestFindSwitch:
    def test_complete_pattern_first_pair(self):
        hc = path_graph(4)
        ctx = SwitchContext(hc, complete_graph(4), _identity(4))
        assert find_switch(ctx) == (0, 1)

    def test_empty_pattern_no_switch(self):
        # the path complement demands at least one edge for every pair
        hc = path_graph(4)
        for image in permutations(range(4)):
            ctx = SwitchContext(hc, empty_graph(4), VertexMap(4, 4, image))
            assert find_switch(ctx) is None

    def test_restriction_filters_scan(self):
        hc = from_edges(5, [(0, 1)])
        ctx = SwitchContext(hc, complete_graph(5), _identity(5))
        members = [2, 3, 4]
        restricted = find_switch(ctx, members)
        full = [p for p in [(u, v) for u in range(5) for v in range(u + 1, 5)]
                if is_pi_switch(ctx, *p) and p[0] in members and p[1] in members]
        assert restricted == full[0]

    @pytest.mark.parametrize("pairs, vertex", [([0, 1, 5], 5), ([0, 1, -1], -1),
                                               ([0, 1, 9, 9], 9)])
    def test_every_candidate_is_checked_before_the_scan(self, pairs, vertex):
        # (0, 1) is a switch, so a scan would stop before reaching the bad
        # vertex; a repeated vertex forms no pair of its own and is still checked
        ctx = SwitchContext(path_graph(4), complete_graph(4), _identity(4))
        with pytest.raises(DomainError, match=rf"vertex {vertex}\b"):
            find_switch(ctx, pairs)


class TestSwitchProbability:
    def test_identical_neighbourhoods(self):
        hc = from_edges(4, [(0, 2), (1, 2)])
        assert switch_probability(hc, _identity(4), 0, 1) == 1

    def test_disjoint_neighbourhoods(self):
        hc = from_edges(6, [(0, 2), (0, 3), (1, 4)])
        assert switch_probability(hc, _identity(6), 0, 1) == Fraction(1, 8)

    def test_exact_by_full_enumeration_small(self):
        # dyadic value equals the fraction of all labelled patterns with a switch
        for n in (3, 4):
            npairs = n * (n - 1) // 2
            images = [tuple(range(n)), tuple(range(1, n)) + (0,)]
            for hc in enumerate_unlabelled(n):
                for image in images:
                    pi = VertexMap(n, n, image)
                    for u in range(n):
                        for v in range(u + 1, n):
                            hits = sum(
                                1 for g in all_labelled(n)
                                if is_pi_switch(SwitchContext(hc, g, pi), u, v))
                            assert Fraction(hits, 1 << npairs) == \
                                switch_probability(hc, pi, u, v)

    def test_lower_bound_under_degree_cap(self):
        big_c = 1.0
        for hc in enumerate_unlabelled(5):
            pi = _identity(5)
            for u in range(5):
                for v in range(u + 1, 5):
                    if hc.degree(u) <= 4 * big_c and hc.degree(v) <= 4 * big_c:
                        assert switch_probability(hc, pi, u, v) >= \
                            Fraction(1, 2 ** int(8 * big_c))

    def test_monte_carlo_matches_exact(self):
        contexts = [
            (from_edges(6, [(0, 1), (2, 3)]), 0, 2),
            (from_edges(6, [(0, 1), (0, 2), (3, 4)]), 0, 3),
            (path_graph(6), 1, 4),
            (from_edges(6, [(0, 5), (1, 5), (2, 3)]), 0, 2),
            (from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]), 0, 3),
        ]
        trials = 100_000
        for which, (hc, u, v) in enumerate(contexts):
            pi = _identity(6)
            p = float(switch_probability(hc, pi, u, v))
            rng = derive_rng(42_000 + which, 0)
            hits = 0
            for _ in range(trials):
                g = gnp_half(6, rng)
                if is_pi_switch(SwitchContext(hc, g, pi), u, v):
                    hits += 1
            sigma = sqrt(p * (1 - p) / trials)
            assert abs(hits / trials - p) <= 3 * sigma


class TestClassifyDegrees:
    def test_empty_complement(self):
        dc = classify_degrees(empty_graph(5), 1.0)
        assert dc.a == () and dc.b_prime == (0, 1, 2, 3, 4)

    def test_matching_on_eight(self):
        hc = from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        dc = classify_degrees(hc, 1.0)
        assert dc.a == ()
        assert dc.b_prime == (0, 2, 4, 6)

    def test_partition_and_independence(self):
        rng = derive_rng(77, 0)
        for trial in range(200):
            hc = gnp_half(8, rng)
            dc = classify_degrees(hc, 1.5)
            assert sorted(dc.a + dc.b) == list(range(8))
            chosen = set(dc.b_prime)
            for u in chosen:
                assert not any(hc.has_edge(u, v) for v in chosen if v != u)
            # maximal: nothing in B is addable
            for v in set(dc.b) - chosen:
                assert any(hc.has_edge(v, u) for u in chosen)

    def test_sparse_instances_small_a(self):
        # e(Hc) <= C n with C >= 1 forces |A| <= n/2
        n, c = 10, 1.0
        rng = numpy_generator(123, 0)
        for _ in range(1000):
            hc = _random_sparse(n, int(rng.integers(0, int(c * n) + 1)), rng)
            dc = classify_degrees(hc, c)
            assert len(dc.a) <= n / 2
            assert len(dc.b_prime) >= n / (2 * (4 * c + 1))

    @pytest.mark.parametrize("c", [float("inf"), float("nan")])
    def test_rejects_non_finite_constant(self, c):
        with pytest.raises(DomainError, match="finite"):
            classify_degrees(empty_graph(4), c)
        with pytest.raises(DomainError, match="finite"):
            default_schedule(4, c)

    @pytest.mark.parametrize("b", [0, 1, 2, 64])
    def test_schedule_refused_exactly_when_a_threshold_underflows(self, b):
        # the thresholds of every c that yields a schedule are unchanged, and
        # the refused ones are those whose last threshold rounds to zero
        for c in [0.0, 1.0, 200.0] + [x / 4 for x in range(1060, 1090)]:
            thresholds = [b / 2 ** (i + 1) for i in range(int(4 * c) + 1)]
            if thresholds[-1] > 0:
                assert default_schedule(b, c) == thresholds
            else:
                with pytest.raises(DomainError, match="thresholds must be strictly positive"):
                    default_schedule(b, c)

    @pytest.mark.parametrize("c", [300.0, 1e300, 1.7e308])
    def test_huge_constant_refused_before_building(self, c):
        with pytest.raises(DomainError, match="thresholds must be strictly positive"):
            default_schedule(64, c)

    def test_degree_sum_bound(self):
        rng = derive_rng(321, 0)
        for trial in range(300):
            hc = gnp_half(7, rng)
            for c in (0.5, 1.0, 2.0):
                dc = classify_degrees(hc, c)
                assert len(dc.a) * 4 * c <= 2 * hc.edge_count()


class TestRefineT:
    def test_immediate_fixpoint(self):
        hc = from_edges(6, [(0, 1)])
        result = refine_t(hc, [2, 3, 4, 5], [3.0])
        assert result.t == (2, 3, 4, 5) and result.depth == 0
        assert not result.depth_exceeded

    def test_star_center_disqualified(self):
        star = from_edges(6, [(0, i) for i in range(1, 6)])
        result = refine_t(star, [1, 2, 3, 4, 5], [2.0])
        assert result.t == (1, 2, 3, 4, 5)
        assert result.steps == ()

    def test_depth_exceeded_carries_chain(self):
        # one refinement is forced but the schedule has length one
        hc = from_edges(6, [(0, 1), (0, 2), (3, 4)])
        result = refine_t(hc, [1, 2, 5], [1.0])
        assert result.depth_exceeded and len(result.steps) == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            refine_t(empty_graph(3), [0], [])
        with pytest.raises(DomainError):
            refine_t(empty_graph(3), [0], [0.0])

    @pytest.mark.parametrize("b_prime, vertex", [([9], 9), ([-1], -1), ([0, 1, 9], 9)])
    def test_refuses_a_vertex_outside_the_graph(self, b_prime, vertex):
        # refused before the first step, which T = {0, 1} would otherwise take
        with pytest.raises(DomainError, match=rf"vertex {vertex} outside 0\.\.3"):
            refine_t(path_graph(4), b_prime, [1.0])

    @pytest.mark.parametrize("thr", [float("inf"), float("nan")])
    def test_rejects_non_finite_threshold(self, thr):
        with pytest.raises(DomainError, match="schedule thresholds must be finite"):
            refine_t(empty_graph(3), [0], [1.0, thr])

    def test_distinct_steps_and_postcondition(self):
        rng = numpy_generator(999, 0)
        for trial in range(1000):
            hc = _random_sparse(8, int(rng.integers(0, 9)), rng)
            dc = classify_degrees(hc, 1.0)
            schedule = default_schedule(len(dc.b_prime), 1.0)
            result = refine_t(hc, dc.b_prime, schedule)
            picked = [v for v, _ in result.steps]
            assert len(picked) == len(set(picked))
            assert set(result.t) <= set(dc.b_prime)
            if not result.depth_exceeded:
                t_mask = 0
                for v in result.t:
                    t_mask |= 1 << v
                for v in range(8):
                    if t_mask >> v & 1:
                        continue
                    inter = hc.adj[v] & t_mask
                    covered = inter == t_mask
                    below = inter.bit_count() < result.final_threshold
                    assert covered or below


class TestEdgeInfluence:
    def test_empty_complement_all_zero(self):
        budget, total = edge_influence_budget(empty_graph(6), _identity(6), (0, 1, 2))
        assert budget == {} and total == 0

    def test_pairs_inside_t_are_zero(self):
        hc = from_edges(6, [(0, 3), (1, 4)])
        budget, _ = edge_influence_budget(hc, _identity(6), (0, 1, 2))
        assert all(not (y in (0, 1, 2) and z in (0, 1, 2)) for y, z in budget)

    def test_requires_independent_t(self):
        hc = from_edges(4, [(0, 1)])
        with pytest.raises(DomainError):
            edge_influence_budget(hc, _identity(4), (0, 1))

    @pytest.mark.parametrize("t, vertex", [([9], 9), ([-1], -1), ([0, 1, 9], 9)])
    def test_refuses_a_vertex_outside_the_graph(self, t, vertex):
        # refused before the independence check, which T = {0, 1} would fail
        with pytest.raises(DomainError, match=rf"vertex {vertex} outside 0\.\.3"):
            edge_influence_budget(path_graph(4), _identity(4), t)

    @pytest.mark.parametrize("order", [3, 6])
    def test_refuses_a_map_of_another_order(self, order):
        hc = from_edges(4, [(0, 3)])
        with pytest.raises(DomainError, match="pi must be a bijection"):
            edge_influence_budget(hc, _identity(order), [0, 1])

    def test_influence_bounded_by_t_degree(self):
        rng = derive_rng(4242, 0)
        for trial in range(100):
            hc = gnp_half(6, rng)
            dc = classify_degrees(hc, 1.0)
            t = dc.b_prime
            t_mask = 0
            for v in t:
                t_mask |= 1 << v
            budget, _ = edge_influence_budget(hc, _identity(6), t)
            for (y, z), b in budget.items():
                w = z if y in t else y
                assert b <= (hc.adj[w] & t_mask).bit_count()

    def test_matches_toggle_oracle_small(self):
        images = {4: [(0, 1, 2, 3), (1, 2, 3, 0)], 5: [(0, 1, 2, 3, 4), (4, 0, 1, 2, 3)]}
        for n in (4, 5):
            for hc in enumerate_unlabelled(n):
                dc = classify_degrees(hc, 1.0)
                for image in images[n]:
                    pi = VertexMap(n, n, image)
                    budget, total = edge_influence_budget(hc, pi, dc.b_prime)
                    oracle_budget, oracle_total = toggle_influence_oracle(
                        hc, image, dc.b_prime)
                    assert budget == oracle_budget
                    assert total == oracle_total

    def test_matches_toggle_oracle_seven_vertex_instance(self):
        hc = from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6), (1, 5)])
        t = classify_degrees(hc, 1.0).b_prime
        image = (2, 0, 6, 1, 4, 3, 5)
        budget, total = edge_influence_budget(hc, VertexMap(7, 7, image), t)
        oracle_budget, oracle_total = toggle_influence_oracle(hc, image, t)
        assert budget == oracle_budget
        assert total == oracle_total


def test_azuma_bound_dominates_switch_failure_probability():
    contexts = [
        from_edges(7, [(0, 1), (2, 3), (4, 5)]),
        path_graph(7),
        from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)]),
    ]
    trials = 20_000
    for which, hc in enumerate(contexts):
        dc = classify_degrees(hc, 1.0)
        t = dc.b_prime
        pi = _identity(7)
        pairs = [(u, v) for i, u in enumerate(t) for v in t[i + 1:]]
        mean = sum(switch_probability(hc, pi, pi.apply(u), pi.apply(v))
                   for u, v in pairs)
        budget, _ = edge_influence_budget(hc, pi, t)
        bound = float(azuma_tail(float(mean), list(budget.values())))
        rng = derive_rng(31337 + which, 0)
        zeros = 0
        for _ in range(trials):
            g = gnp_half(7, rng)
            ctx = SwitchContext(hc, g, pi)
            if not any(is_pi_switch(ctx, pi.apply(u), pi.apply(v)) for u, v in pairs):
                zeros += 1
        lo, _ = clopper_pearson(zeros, trials)
        assert lo <= bound
