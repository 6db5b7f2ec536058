"""canon-auto: canonical forms, isomorphism, automorphism-group orders."""
from __future__ import annotations

import random
from itertools import permutations
from math import factorial

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (bucket_all_labelled, exhaustive_canon, graph_from_mask, mask_from_graph,
                     random_graph, to_networkx)
from uniquesub.canon import (are_isomorphic, aut_order, canon_graph6, canonicalize,
                             decode_canon_bytes)
from uniquesub.census import census_entries, enumerate_unlabelled
from uniquesub.graphs import (complement, complete_graph, cycle_graph, emit_graph6, empty_graph,
                              from_edges, parse_graph6, path_graph, relabel)


class TestAutOrder:
    def test_known_orders(self):
        assert aut_order(complete_graph(3)) == 6
        assert aut_order(path_graph(3)) == 2
        assert aut_order(empty_graph(4)) == 24
        assert aut_order(complete_graph(2)) == 2
        assert aut_order(cycle_graph(5)) == 10

    def test_invariant_under_relabelling(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        for perm in permutations(range(5)):
            assert aut_order(relabel(g, perm)) == aut_order(g)

    def test_matches_brute_force(self):
        # every class at n = 5 and n = 6, the 8 rigid six-vertex ones included
        for n in (5, 6):
            canon, aut = bucket_all_labelled(n)
            for mask in sorted(set(canon.tolist())):
                g = graph_from_mask(n, int(mask))
                assert aut_order(g) == int(aut[int(mask)])

    def test_rigid_first_appears_at_six(self):
        # K_1 is trivially rigid; no other graph below six vertices is
        assert aut_order(empty_graph(1)) == 1
        for n in range(2, 6):
            assert all(aut_order(g) >= 2 for g in enumerate_unlabelled(n))
        rigid = [g for g in enumerate_unlabelled(6) if aut_order(g) == 1]
        # frozen from the all-permutations oracle over every labelled 6-vertex graph
        assert len(rigid) == 8

    def test_rigid_count_six_against_oracle(self):
        canon, aut = bucket_all_labelled(6)
        rigid_classes = {int(canon[m]) for m in range(len(aut)) if aut[m] == 1}
        assert len(rigid_classes) == 8


class TestCanonicalForm:
    def test_invariance_exhaustive_small(self):
        # every labelled graph on up to 4 vertices, every relabelling
        for n in (2, 3, 4):
            for g in _all_labelled(n):
                expected = canonicalize(g).canon_bytes
                for perm in permutations(range(n)):
                    assert canonicalize(relabel(g, perm)).canon_bytes == expected

    def test_invariance_covers_all_labelled_n5(self):
        # class representatives x all 120 permutations reach every labelled graph
        for g in enumerate_unlabelled(5):
            expected = canonicalize(g).canon_bytes
            for perm in permutations(range(5)):
                assert canonicalize(relabel(g, perm)).canon_bytes == expected

    def test_aut_order_divides_factorial(self):
        for n in (3, 4, 5):
            for g in enumerate_unlabelled(n):
                assert factorial(n) % aut_order(g) == 0

    def test_graph6_read_off_the_code(self):
        # every class to n = 8, and seeded graphs past it: the graph6 header
        # takes four bytes from n = 63
        codes = [b for n in range(1, 9) for b, _ in census_entries(n)]
        rng = random.Random(63)
        codes += [canonicalize(random_graph(n, p, rng)).canon_bytes
                  for n in (9, 16, 62, 63, 64) for p in (0.2, 0.5, 0.8)]
        for data in codes:
            assert canon_graph6(data) == emit_graph6(decode_canon_bytes(data)).decode()

    def test_classes_match_brute_buckets(self):
        # production canonical keys induce exactly the brute-force partition
        for n in (3, 4, 5, 6):
            canon, _ = bucket_all_labelled(n)
            by_bucket: dict[int, set[bytes]] = {}
            for mask in range(len(canon)):
                key = canonicalize(graph_from_mask(n, mask)).canon_bytes
                by_bucket.setdefault(int(canon[mask]), set()).add(key)
            keys = [next(iter(s)) for s in by_bucket.values()]
            assert all(len(s) == 1 for s in by_bucket.values())
            assert len(set(keys)) == len(keys)


class TestAgainstExhaustiveSearch:
    """The pruned search returns the unpruned search's code and |Aut|."""

    def test_every_class_to_seven_relabelled(self):
        rng = random.Random(11)
        for n in range(1, 8):
            for g in enumerate_unlabelled(n):
                perm = list(range(n))
                rng.shuffle(perm)
                h = relabel(g, perm)
                assert canonicalize(h) == exhaustive_canon(h)

    def test_best_leaf_inside_the_child_being_searched(self):
        # A leaf matching a best leaf found below the same first-path child
        # proves only the subtree below their common prefix a copy; ending
        # the whole child there returned a code above the minimum here.
        g = parse_graph6(r"Jnr~t|n}\|_")
        assert canonicalize(g) == exhaustive_canon(g)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_random_graphs(self, n):
        rng = random.Random(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for density in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for _ in range(3):
                g = from_edges(n, [p for p in pairs if rng.random() < density])
                if g.edge_count() in (0, len(pairs)):
                    continue  # n! leaves unpruned; K_n and the empty graph are in SYMMETRIC
                assert canonicalize(g) == exhaustive_canon(g)


def _hypercube(d: int):
    return from_edges(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d)
                               if not v >> i & 1])


_PETERSEN = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])

SYMMETRIC = {
    **{f"K{n}": (complete_graph(n), factorial(n)) for n in (9, 16, 32, 64)},
    **{f"empty{n}": (empty_graph(n), factorial(n)) for n in (9, 16, 32, 64)},
    **{f"C{n}": (cycle_graph(n), 2 * n) for n in (32, 64)},
    "petersen": (_PETERSEN, 120),
    "K3,5": (from_edges(8, [(a, b) for a in range(3) for b in range(3, 8)]),
             factorial(3) * factorial(5)),
    "Q6": (_hypercube(6), 2 ** 6 * factorial(6)),
    # complement of C4 + K3 + 9 K1: off the first path a C4 vertex heads a
    # subtree of 9! leaves, none matching the first leaf
    "co-(C4+K3+9K1)": (complement(from_edges(16, [(0, 1), (1, 2), (2, 3), (3, 0),
                                                  (4, 5), (5, 6), (4, 6)])),
                       8 * 6 * factorial(9)),
}


@pytest.mark.parametrize("name", list(SYMMETRIC))
def test_symmetric_graph_aut_order_and_relabelling(name):
    # closed-form group orders far beyond any exhaustive search
    g, order = SYMMETRIC[name]
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    form_g, form_h = canonicalize(g), canonicalize(relabel(g, perm))
    assert form_g.aut_order == form_h.aut_order == order
    assert form_h.canon_bytes == form_g.canon_bytes


def _group_order(n, generators):
    """Order of the permutation group the generators generate, by closure."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        element = frontier.pop()
        for gen in generators:
            product = tuple(gen[element[u]] for u in range(n))
            if product not in group:
                group.add(product)
                frontier.append(product)
    return len(group)


def _generator_cases():
    for n in range(1, 7):
        for g in enumerate_unlabelled(n):
            yield g
    for n in (7, 8):
        rng = random.Random(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(20):
            g = from_edges(n, [p for p in pairs if rng.random() < 0.5])
            perm = list(range(n))
            rng.shuffle(perm)
            yield relabel(g, perm)
    for n in range(1, 8):
        yield complete_graph(n)
        yield empty_graph(n)
    yield _PETERSEN


def test_generators_are_automorphisms_generating_aut():
    for g in _generator_cases():
        form = canonicalize(g)
        for gen in form.generators:
            assert sorted(gen) == list(range(g.n))
            assert relabel(g, gen) == g
        order = _group_order(g.n, form.generators)
        assert order == form.aut_order
        if g.n <= 7:
            assert order == exhaustive_canon(g).aut_order


def _networkx_cases():
    rng = random.Random(64)
    for n in (16, 24, 32, 48, 64):
        for p in (0.1, 0.3, 0.5):  # nx.is_isomorphic takes 1 s on G(64, 0.8)
            yield random_graph(n, p, rng)
    yield _PETERSEN
    yield _hypercube(4)
    yield cycle_graph(32)
    yield SYMMETRIC["K3,5"][0]
    yield from_edges(24, [(2 * i, 2 * i + 1) for i in range(8)])  # 8 K2 + 8 K1
    yield complement(from_edges(32, [(0, 1)]))  # moving its one non-edge keeps the class


class TestAgainstNetworkx:
    """Orders ``exhaustive_canon`` cannot reach, checked by networkx's VF2."""

    def test_relabelled_graphs_share_bytes_that_decode_to_them(self):
        rng = random.Random(7)
        for g in _networkx_cases():
            perm = list(range(g.n))
            rng.shuffle(perm)
            form = canonicalize(g)
            assert canonicalize(relabel(g, perm)).canon_bytes == form.canon_bytes
            assert nx.is_isomorphic(to_networkx(decode_canon_bytes(form.canon_bytes)),
                                    to_networkx(g))

    def test_one_edge_moved_shares_bytes_iff_isomorphic(self):
        rng = random.Random(8)
        outcomes = set()
        for g in _networkx_cases():
            edges = list(g.edges())
            non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                         if not g.has_edge(u, v)]
            for _ in range(3):
                gone = rng.choice(edges)
                moved = from_edges(g.n, [e for e in edges if e != gone]
                                   + [rng.choice(non_edges)])
                iso = nx.is_isomorphic(to_networkx(g), to_networkx(moved))
                assert (canonicalize(g).canon_bytes == canonicalize(moved).canon_bytes) == iso
                outcomes.add(iso)
        assert outcomes == {True, False}


class TestIsomorphism:
    def test_self_complementary_cycle(self):
        assert are_isomorphic(cycle_graph(5), complement(cycle_graph(5)))

    def test_distinguishes_triangle_from_path(self):
        assert not are_isomorphic(complete_graph(3), path_graph(3))

    def test_relabelling_is_isomorphic(self):
        g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)])
        assert are_isomorphic(g, relabel(g, (5, 3, 1, 0, 2, 4)))

    def test_equivalence_relation_on_corpus(self):
        corpus = list(enumerate_unlabelled(4)) + [relabel(g, (1, 0, 2, 3))
                                                  for g in enumerate_unlabelled(4)]
        for a in corpus:
            assert are_isomorphic(a, a)
        for a in corpus:
            for b in corpus:
                assert are_isomorphic(a, b) == are_isomorphic(b, a)


@given(st.integers(2, 6), st.integers(0, 2 ** 15 - 1), st.randoms(use_true_random=False))
def test_canon_invariant_under_random_relabelling(n, seed_mask, rnd):
    npairs = n * (n - 1) // 2
    g = graph_from_mask(n, seed_mask & ((1 << npairs) - 1))
    perm = list(range(n))
    rnd.shuffle(perm)
    assert canonicalize(relabel(g, perm)).canon_bytes == canonicalize(g).canon_bytes
    assert are_isomorphic(g, relabel(g, perm))


def test_orbit_stabilizer_identity():
    # sum of n!/|Aut| over classes equals the number of labelled graphs
    for n in range(1, 6):
        total = sum(factorial(n) // aut_order(g) for g in enumerate_unlabelled(n))
        assert total == 2 ** (n * (n - 1) // 2)


def _all_labelled(n):
    from uniquesub.graphs import pair_list
    pairs = pair_list(n)
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def test_n3_orbit_stabilizer_worked_example():
    orders = sorted(aut_order(g) for g in enumerate_unlabelled(3))
    assert orders == [2, 2, 6, 6]
    assert sum(6 // a for a in orders) == 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canon_bytes_equal_iff_isomorphic_tiny(n):
    graphs = list(_all_labelled(n))
    for a in graphs:
        for b in graphs:
            brute = mask_from_graph(a) in {mask_from_graph(relabel(b, p))
                                           for p in permutations(range(n))}
            assert are_isomorphic(a, b) == brute
