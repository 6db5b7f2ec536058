"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-rA`` to see the
printed lines).  Exact criteria use integer/rational equality; stochastic
criteria use the stated sigma or interval tolerances with fixed seeds.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, sqrt

import mpmath
import numpy as np

from oracles import (all_labelled, brute_f_max, brute_f_value, bucket_all_labelled,
                     numpy_generator, toggle_influence_oracle)
from uniquesub.bounds import azuma_tail, binomial_point_mass_max, density_decay_bound
from uniquesub.canon import aut_order
from uniquesub.census import (aut_orders, enumerate_unlabelled, nontrivial_aut_fraction,
                              polya_report, unlabelled_count)
from uniquesub.cli import main as cli_main
from uniquesub.embedding import (count_embeddings, f_max_exact, f_of_h,
                                 has_unique_embedding, is_unique_subgraph)
from uniquesub.graphs import VertexMap, complete_graph, pair_list, parse_graph6
from uniquesub.process import (sample_trace, supergraph_completion_prob,
                               uniqueness_interval)
from uniquesub.sampling import derive_rng, gnp_half
from uniquesub.switching import (SwitchContext, apply_switch, classify_degrees,
                                 edge_influence_budget, is_embedding, is_pi_switch,
                                 switch_probability)


def _passed(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def test_c01_polya_identity():
    for n in range(1, 8):
        total = sum(factorial(n) // a for a in aut_orders(n))
        assert total == 2 ** (n * (n - 1) // 2), f"identity fails at n={n}"
    _passed(1, "sum of n!/|Aut| over classes equals 2^(n choose 2) for n=1..7")


def test_c02_unlabelled_counts_and_ratio_decrease():
    for n in range(1, 7):
        canon, _ = bucket_all_labelled(n)
        assert unlabelled_count(n) == len(set(canon.tolist())), f"count differs at n={n}"
    ratios = [polya_report(n).ratio for n in range(4, 9)]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    assert nontrivial_aut_fraction(8) < nontrivial_aut_fraction(7)
    _passed(2, "counts match the bucketing oracle (n<=6); ratio strictly falls on 4..8")


def test_c03_equivalence_law_n4():
    graphs = list(all_labelled(4))
    rigid = {i: aut_order(g) == 1 for i, g in enumerate(graphs)}
    for i, g in enumerate(graphs):
        for h in graphs:
            lhs = has_unique_embedding(g, h)
            rhs = is_unique_subgraph(g, h) and rigid[i]
            assert lhs == rhs
    _passed(3, "unique embedding <=> unique subgraph and rigidity, all 64x64 pairs")


def test_c04_expected_embedding_formula_n4():
    graphs = list(all_labelled(4))
    for h in enumerate_unlabelled(4):
        mean = Fraction(sum(count_embeddings(g, h).count for g in graphs), 64)
        assert mean == Fraction(factorial(4) * 2 ** h.edge_count(), 2 ** 6)
    _passed(4, "exhaustive mean embedding count equals n! 2^(e(H)-N) for all 11 hosts")


def test_c05_process_structure_n5():
    violations = 0
    for t in range(100):
        trace = sample_trace(5, seed=50_000, index=t)
        host = gnp_half(5, derive_rng(50_001, t))
        counts = [count_embeddings(trace.graph_at(m), host).count for m in range(11)]
        if any(a < b for a, b in zip(counts, counts[1:])):
            violations += 1
        ones = [m for m, c in enumerate(counts) if c == 1]
        if ones and ones != list(range(min(ones), max(ones) + 1)):
            violations += 1
        interval = uniqueness_interval(trace, host)
        scanned = (min(ones), max(ones)) if ones else (None, None)
        if (interval.lo, interval.hi) != scanned:
            violations += 1
    assert violations == 0
    _passed(5, "100 full scans at n=5: monotone, contiguous, binary search agrees")


def test_c06_supergraph_conditional_simulation():
    tuples = [(4, 6, 2, 4), (7, 10, 3, 6), (10, 15, 2, 7)]
    trials = 100_000
    for which, (e_h, total, m_star, m2) in enumerate(tuples):
        p = supergraph_completion_prob(e_h, total, m_star, m2)
        assert (e_h, total, m_star, m2) != tuples[0] or p == Fraction(1, 6)
        rng = numpy_generator(60_000 + which, 0)
        draw = m2 - m_star
        pool = total - m_star
        grid = np.tile(np.arange(pool), (trials, 1))
        rng.permuted(grid, axis=1, out=grid)
        freq = float(np.mean(np.all(grid[:, :draw] < e_h - m_star, axis=1)))
        sigma = sqrt(float(p) * (1 - float(p)) / trials)
        assert abs(freq - float(p)) <= 3 * sigma, (e_h, total, m_star, m2, freq)
    _passed(6, "closed-form completion odds within 3 sigma of 1e5-trace simulation x3")


def test_c07_switch_soundness_exhaustive_n4():
    pairs4 = pair_list(4)
    checked = 0
    for hc in all_labelled(4):
        hc_edges = list(hc.edges())
        for image in permutations(range(4)):
            pi = VertexMap(4, 4, image)
            mapped = [(image[x], image[y]) for x, y in hc_edges]
            for g in all_labelled(4):
                if not all(g.has_edge(a, b) for a, b in mapped):
                    continue
                ctx = SwitchContext(hc, g, pi)
                for u, v in pairs4:
                    if is_pi_switch(ctx, u, v):
                        swapped = apply_switch(ctx, u, v)
                        assert is_embedding(SwitchContext(hc, g, swapped))
                        assert swapped.image != pi.image
                        checked += 1
    assert checked > 0
    _passed(7, f"exhaustive n=4: {checked} (embedding, switch) pairs all re-embed")


def test_c08_switch_probability_exact_and_bounded():
    for n in (3, 4, 5):
        npairs = n * (n - 1) // 2
        graphs = list(all_labelled(n))
        images = [tuple(range(n)), tuple(range(1, n)) + (0,)]
        for hc in enumerate_unlabelled(n):
            for image in images:
                pi = VertexMap(n, n, image)
                for u in range(n):
                    for v in range(u + 1, n):
                        prob = switch_probability(hc, pi, u, v)
                        hits = sum(1 for g in graphs
                                   if is_pi_switch(SwitchContext(hc, g, pi), u, v))
                        assert Fraction(hits, 1 << npairs) == prob
                        a, b = pi.inverse(u), pi.inverse(v)
                        cap = max(hc.degree(a), hc.degree(b), 1) / 4
                        assert prob >= Fraction(1, 2 ** int(8 * cap))
    _passed(8, "dyadic switch probability equals full enumeration (n<=5), >= 2^-8C")


def test_c09_influence_bookkeeping_matches_toggle_oracle():
    mismatches = 0
    for n in (3, 4, 5, 6):
        rotation = tuple(range(1, n)) + (0,)
        for hc in enumerate_unlabelled(n):
            t = classify_degrees(hc, 1.0).b_prime
            for image in (tuple(range(n)), rotation):
                pi = VertexMap(n, n, image)
                budget, total = edge_influence_budget(hc, pi, t)
                oracle_budget, oracle_total = toggle_influence_oracle(hc, image, t)
                if budget != oracle_budget or total != oracle_total:
                    mismatches += 1
    assert mismatches == 0
    _passed(9, "case-analysis influence map equals the toggle oracle, all n<=6 classes")


def test_c10_bound_domination_grids():
    exceptions = [n for n in range(1, 1201) if binomial_point_mass_max(n).slack < 0]
    assert exceptions == []  # documented exception table is empty

    azuma_points = 0
    for m in (2, 5, 8, 12, 16, 20, 25, 30, 35, 40):
        for step in range(1, 101):
            t = Fraction(step * m, 200)
            exact = Fraction(0)
            k = 0
            while k <= Fraction(m, 2) - t:
                exact += Fraction(comb(m, k), 2 ** m)
                k += 1
            bound = azuma_tail(float(t), [1.0] * m)
            assert mpmath.mpf(exact.numerator) / exact.denominator <= bound
            azuma_points += 1
    assert azuma_points == 1000

    decay_points = 0
    for total in (6, 10, 15, 21):
        for e_h in range(total + 1):
            for m_star in range(0, e_h + 1, 2):
                for m2 in range(m_star, min(total, m_star + 6) + 1):
                    prob = supergraph_completion_prob(e_h, total, m_star, m2)
                    loose, sharp = density_decay_bound(e_h, total, m2 - m_star,
                                                       m_star=m_star)
                    assert prob <= sharp <= loose
                    decay_points += 1
    assert decay_points >= 1000
    _passed(10, "point-mass, Azuma, and decay bounds dominate on 1000+ point grids")


def test_c11_exact_f_tables_against_brute_oracle():
    for n in range(1, 6):
        oracle_max, _ = brute_f_max(n)
        fv, argmax_g6 = f_max_exact(n)
        assert fv.f == oracle_max, f"f({n}) differs from oracle"
        assert brute_f_value(parse_graph6(argmax_g6)) == oracle_max
    assert f_of_h(complete_graph(3)).f == Fraction(3, 2)
    _passed(11, "f-max for n<=5 matches the vertex/edge-subset oracle; f(K_3)=3/2")


def test_c12_reproducibility(capsys, tmp_path):
    record = tmp_path / "replay.jsonl"
    for _ in range(2):
        assert cli_main(["--record", str(record), "estimate", "--g6", "D?{",
                         "--trials", "40", "--seed", "2024"]) == 0
    for _ in range(2):
        assert cli_main(["--record", str(record), "process", "--g6", "DK[",
                         "--traces", "4", "--seed", "77", "--L", "0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[1]                      # estimate stdout identical
    assert out[2:6] == out[6:10]                 # process stdout identical
    rows = [json.loads(line) for line in record.read_text().splitlines()]
    assert rows[0]["payload"] == rows[1]["payload"]
    assert rows[2]["payload"] == rows[3]["payload"]
    _passed(12, "stochastic commands replay byte-identically from recorded seeds")
