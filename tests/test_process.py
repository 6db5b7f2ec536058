"""process-sim: traces, trajectories, uniqueness intervals, completion odds."""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from scipy.stats import chi2

from uniquesub.canon import aut_order
from uniquesub.census import enumerate_unlabelled
from uniquesub.embedding import count_embeddings
from uniquesub.errors import DomainError
from uniquesub.graphs import complete_graph, pair_list
from uniquesub.process import (ProcessTrace, embedding_trajectory, sample_trace,
                               supergraph_completion_prob, uniqueness_interval,
                               x_statistic)
from uniquesub.sampling import derive_rng, gnp_half


class TestTrace:
    def test_endpoints(self):
        tr = sample_trace(5, seed=1)
        assert tr.graph_at(0).edge_count() == 0
        assert tr.graph_at(10) == complete_graph(5)

    def test_edge_order_is_permutation(self):
        tr = sample_trace(6, seed=2)
        assert sorted(tr.edge_order) == pair_list(6)

    def test_reproducible_and_indexed(self):
        assert sample_trace(5, 7).edge_order == sample_trace(5, 7).edge_order
        assert sample_trace(5, 7, index=0).edge_order != sample_trace(5, 7, index=1).edge_order

    def test_uniformity_chi_square_n4_m3(self):
        # classes of 3-edge graphs on 4 vertices: triangle 4/20, star 4/20, path 12/20
        trials = 100_000
        rng = derive_rng(314159, None)
        observed = {(0, 2, 2, 2): 0, (1, 1, 1, 3): 0, (1, 1, 2, 2): 0}
        for i in range(trials):
            tr = sample_trace(4, 314159, index=i)
            g = tr.graph_at(3)
            observed[tuple(sorted(g.degree(v) for v in range(4)))] += 1
        expected = {(0, 2, 2, 2): trials * 4 / 20, (1, 1, 1, 3): trials * 4 / 20,
                    (1, 1, 2, 2): trials * 12 / 20}
        stat = sum((observed[k] - expected[k]) ** 2 / expected[k] for k in expected)
        assert stat < chi2.ppf(0.99, df=2)


class TestTrajectory:
    def test_empty_start_counts_everything(self):
        tr = sample_trace(4, seed=3)
        h = gnp_half(4, derive_rng(4, 0))
        out = embedding_trajectory(tr, h, [0])
        assert out[0].count == factorial(4)

    def test_complete_host_full_count_at_end(self):
        tr = sample_trace(4, seed=5)
        traj = embedding_trajectory(tr, complete_graph(4), [6])
        assert traj[6].count == factorial(4)

    def test_non_increasing_full_scans(self):
        for t in range(25):
            tr = sample_trace(5, seed=900, index=t)
            h = gnp_half(5, derive_rng(901, t))
            counts = [count_embeddings(tr.graph_at(m), h).count for m in range(11)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_order_mismatch(self):
        with pytest.raises(DomainError):
            embedding_trajectory(sample_trace(4, 1), complete_graph(5), [0])


class TestUniquenessInterval:
    def test_complete_host_empty(self):
        tr = sample_trace(3, seed=8)
        assert uniqueness_interval(tr, complete_graph(3)).is_empty

    def test_trace_reaching_rigid_host(self):
        h = next(g for g in enumerate_unlabelled(6) if aut_order(g) == 1)
        edges = list(h.edges())
        rest = [p for p in pair_list(6) if p not in edges]
        tr = ProcessTrace(6, 0, tuple(edges + rest))
        iv = uniqueness_interval(tr, h)
        assert not iv.is_empty and iv.lo <= h.edge_count() <= iv.hi

    def test_nonempty_intervals_for_every_rigid_host(self):
        # n=5 intervals are always empty (no rigid order-5 graph), so the
        # non-empty branch is exercised with traces that realize each rigid
        # 6-vertex host at step e(H); endpoints re-verified by direct counts
        rng = derive_rng(321321, None)
        for h in enumerate_unlabelled(6):
            if aut_order(h) != 1:
                continue
            edges = list(h.edges())
            rest = [p for p in pair_list(6) if p not in edges]
            order = ([edges[i] for i in rng.permutation(len(edges))]
                     + [rest[i] for i in rng.permutation(len(rest))])
            tr = ProcessTrace(6, 0, tuple(order))
            iv = uniqueness_interval(tr, h)
            assert not iv.is_empty and iv.lo <= h.edge_count() <= iv.hi
            ones = [m for m in range(tr.total_pairs + 1)
                    if count_embeddings(tr.graph_at(m), h).count == 1]
            assert (iv.lo, iv.hi) == (min(ones), max(ones))

    def test_binary_search_equals_full_scan(self):
        for t in range(50):
            tr = sample_trace(5, seed=402, index=t)
            h = gnp_half(5, derive_rng(403, t))
            ones = [m for m in range(11)
                    if count_embeddings(tr.graph_at(m), h).count == 1]
            iv = uniqueness_interval(tr, h)
            if ones:
                assert (iv.lo, iv.hi) == (min(ones), max(ones))
                assert ones == list(range(min(ones), max(ones) + 1))
            else:
                assert iv.is_empty


class TestXStatistic:
    def test_complete_host_zero(self):
        tr = sample_trace(4, seed=10)
        assert x_statistic(tr, complete_graph(4), 1.0).x == 0

    def test_huge_window_equals_interval_length(self):
        for t in range(10):
            tr = sample_trace(5, seed=77, index=t)
            h = gnp_half(5, derive_rng(78, t))
            xs = x_statistic(tr, h, 1000.0)
            assert (xs.i_lo, xs.i_hi) == (0, 10)
            assert xs.interval == uniqueness_interval(tr, h)
            assert xs.x == xs.interval.length()

    def test_two_computations_agree(self):
        for t in range(50):
            tr = sample_trace(5, seed=600, index=t)
            h = gnp_half(5, derive_rng(601, t))
            xs = x_statistic(tr, h, 0.7)
            direct = sum(1 for m in range(xs.i_lo, xs.i_hi + 1)
                         if count_embeddings(tr.graph_at(m), h).count == 1)
            assert xs.x == direct
            assert 0 <= xs.x <= xs.i_hi - xs.i_lo + 1

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            x_statistic(sample_trace(4, 1), complete_graph(4), 0.0)

    @pytest.mark.parametrize("L", [float("inf"), float("nan")])
    def test_rejects_non_finite_width(self, L):
        with pytest.raises(DomainError, match="finite"):
            x_statistic(sample_trace(4, 1), complete_graph(4), L)


class TestCompletionProbability:
    def test_degenerate_cases(self):
        assert supergraph_completion_prob(4, 6, 2, 2) == 1
        assert supergraph_completion_prob(6, 6, 2, 4) == 1

    def test_worked_example(self):
        assert supergraph_completion_prob(4, 6, 2, 4) == Fraction(1, 6)

    def test_telescopes(self):
        for e_h, total, m_star, m2 in [(4, 6, 2, 4), (7, 10, 3, 6), (10, 15, 0, 5)]:
            prod = Fraction(1)
            for m in range(m_star, m2):
                prod *= Fraction(e_h - m, total - m)
            assert supergraph_completion_prob(e_h, total, m_star, m2) == prod

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            supergraph_completion_prob(4, 6, 5, 4)
        with pytest.raises(DomainError):
            supergraph_completion_prob(1, 6, 2, 4)

    def test_matches_urn_simulation(self):
        # add pairs one at a time; success iff all land inside the host set
        e_h, total, m_star, m2 = 4, 6, 2, 4
        p = supergraph_completion_prob(e_h, total, m_star, m2)
        trials = 20_000
        rng = derive_rng(112233, None)
        hits = 0
        for _ in range(trials):
            remaining = rng.permutation(total - m_star)[: m2 - m_star]
            if all(slot < e_h - m_star for slot in remaining):
                hits += 1
        freq = hits / trials
        sigma = float(np.sqrt(float(p) * (1 - float(p)) / trials))
        assert abs(freq - float(p)) <= 3 * sigma

    def test_bound_chain(self):
        for e_h in range(0, 7):
            for m_star in range(0, e_h + 1):
                for m2 in range(m_star, 7):
                    if m2 > 6:
                        continue
                    prob = supergraph_completion_prob(e_h, 6, m_star, m2)
                    steps = m2 - m_star
                    sharp = Fraction(e_h - m_star, 6 - m_star) ** steps if steps else Fraction(1)
                    loose = Fraction(e_h, 6) ** steps if steps else Fraction(1)
                    assert prob <= sharp <= loose


def test_g_m_has_m_edges():
    tr = sample_trace(6, seed=55)
    for m in (0, 3, 9, 15):
        assert tr.graph_at(m).edge_count() == m
    assert comb(6, 2) == tr.total_pairs
