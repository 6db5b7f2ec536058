"""enumerate: unlabelled streams, Polya ratios, automorphism fractions."""
from __future__ import annotations

import gc
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from oracles import bucket_all_labelled, minimising_masks, plain_children, unfiltered_census
from uniquesub import canon, census, parallel
from uniquesub.canon import CanonicalForm, canonicalize, decode_canon_bytes
from uniquesub.census import (MAX_ENUMERATION_N, aut_orders, census_entries,
                              enumerate_unlabelled, nontrivial_aut_fraction, polya_report,
                              unlabelled_count)
from uniquesub.errors import DomainError

# A000088, derived here from the labelled bucketing oracle for n <= 6 and
# by one augmentation level beyond it for n = 7.
KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


class TestEnumeration:
    @pytest.mark.parametrize("n", list(KNOWN_COUNTS))
    def test_counts(self, n):
        assert unlabelled_count(n) == KNOWN_COUNTS[n]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_bucketing_oracle(self, n):
        canon, _ = bucket_all_labelled(n)
        assert unlabelled_count(n) == len(set(canon.tolist()))

    def test_no_two_emitted_isomorphic_and_order_deterministic(self):
        graphs = list(enumerate_unlabelled(5))
        keys = [canonicalize(g).canon_bytes for g in graphs]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            list(enumerate_unlabelled(0))
        with pytest.raises(DomainError):
            list(enumerate_unlabelled(MAX_ENUMERATION_N + 1))

    def test_orbit_stabilizer_over_stream(self):
        for n in range(1, 8):
            total = sum(factorial(n) // a for a in aut_orders(n))
            assert total == 2 ** (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_unfiltered_augmentation(self, n):
        assert census_entries(n) == unfiltered_census(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_mask_per_orbit_equals_every_mask(self, n):
        # the children of every order-n parent, one attachment mask per
        # orbit of its automorphism group against every mask
        for parent_bytes, _ in census_entries(n):
            work = (parent_bytes, n + 1)
            assert census._children(work) == plain_children(work)

    def test_table_filter_accepts_the_reference_masks(self, monkeypatch):
        # Every mask of every parent of order 1..7.  The stand-in search
        # gives the parent no generators, so no mask is skipped as a repeat
        # in an orbit, and each child reaching it carries its mask as its
        # last row.
        parents = [(b, n) for n in range(1, 8) for b, _ in census_entries(n)]
        searched: list[int] = []

        def no_search(g):
            searched.append(g.adj[-1])
            return CanonicalForm(bytes(g.adj), 1, ())

        monkeypatch.setattr(census, "canonicalize", no_search)
        for parent_bytes, n in parents:
            searched.clear()
            census._children((parent_bytes, n + 1))
            assert searched[1:] == minimising_masks(decode_canon_bytes(parent_bytes))

    def test_complete_at_eight(self):
        # A000088(8), and the Polya identity: a class dropped by the
        # augmentation filter would break both
        assert unlabelled_count(8) == 12346
        assert sum(factorial(8) // a for a in aut_orders(8)) == 2 ** 28


class TestPolyaReport:
    def test_n1(self):
        rep = polya_report(1)
        assert rep.ratio == 1

    def test_n4_worked_example(self):
        rep = polya_report(4)
        assert rep.polya_estimate == Fraction(64, 24)
        assert rep.ratio == Fraction(11 * 24, 64) == Fraction(33, 8)
        assert float(rep.ratio) == 4.125

    def test_ratio_at_least_one(self):
        for n in range(1, 8):
            assert polya_report(n).ratio >= 1

    def test_ratio_decreasing_from_four(self):
        ratios = [polya_report(n).ratio for n in range(4, 8)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestAutFraction:
    def test_all_symmetric_small(self):
        assert nontrivial_aut_fraction(3) == 1
        assert nontrivial_aut_fraction(5) == 1

    def test_values_at_six_seven(self):
        # 8 and 152 asymmetric classes, from the permutation oracle
        assert nontrivial_aut_fraction(6) == Fraction(156 - 8, 156)
        assert nontrivial_aut_fraction(7) == Fraction(1044 - 152, 1044)

    def test_decreasing_six_to_seven(self):
        assert nontrivial_aut_fraction(7) < nontrivial_aut_fraction(6)


def test_graph6_roundtrip_over_enumerate_stream():
    from uniquesub.graphs import emit_graph6, parse_graph6
    for n in range(1, 9):
        for g in enumerate_unlabelled(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_augmentation_agrees_with_oracle_class_sets():
    # every enumerated 5-vertex class hits exactly one oracle bucket
    canon, _ = bucket_all_labelled(5)
    buckets = set(canon.tolist())
    seen = set()
    for g in enumerate_unlabelled(5):
        hits = {int(canon[_mask(g)])}
        assert len(hits) == 1
        seen |= hits
    assert seen == buckets


def _mask(g):
    from oracles import mask_from_graph
    return mask_from_graph(g)


# canonicalize calls for census(1..7) by the order of the graph: the
# children canonicalised at each level, plus each class below the top once
# more as a parent, for its automorphism generators (1, 2, 4, 11, 34 and 156
# at orders 1..6).  The unfiltered augmentation makes |classes(n-1)| * 2^(n-1)
# of them: 2, 8, 32, 176, 1088, 9984.  Canonicalising every mask that passes
# the augmentation filter, not one per orbit of the parent's automorphism
# group, made 1, 2, 5, 16, 60, 290 and 2024.
CANONICALIZE_CALLS = {1: 2, 2: 4, 3: 8, 4: 22, 5: 68, 6: 314, 7: 1087}


def test_canonicalize_calls_per_level(monkeypatch):
    calls: Counter[int] = Counter()

    def counting(g):
        calls[g.n] += 1
        return canonicalize(g)

    monkeypatch.setattr(census, "canonicalize", counting)
    census._census.cache_clear()
    try:
        census_entries(7)
    finally:
        census._census.cache_clear()
    assert calls == CANONICALIZE_CALLS


# Canonical-search nodes (calls of the equitable refinement) for
# census(1..7) by the order of the graph, parents' searches included.
# Without automorphism pruning the search made 1, 6, 29, 174, 988, 6751 and
# 48974; canonicalising every mask that passes the augmentation filter made
# 1, 6, 21, 88, 360, 1797 and 10963.  A lost pruning rule shows up here on
# any machine.
SEARCH_NODES = {1: 2, 2: 12, 3: 36, 4: 134, 5: 450, 6: 2117, 7: 6061}


def test_search_nodes_per_level(monkeypatch):
    nodes: Counter[int] = Counter()
    refine = canon._refine

    def counting(adj, cells):
        nodes[len(adj)] += 1
        return refine(adj, cells)

    monkeypatch.setattr(canon, "_refine", counting)
    census._census.cache_clear()
    canonicalize.cache_clear()
    try:
        census_entries(7)
    finally:
        census._census.cache_clear()
    assert nodes == SEARCH_NODES


def test_census_keeps_no_canonical_form_alive():
    # The census's (canon_bytes, |Aut|) table is the only class table: each
    # CanonicalForm dies with the augmentation that made it.  A memo on
    # canonicalize would keep all 2,398 forms of census(1..7) alive.
    def live_forms():
        gc.collect()
        return sum(isinstance(obj, canon.CanonicalForm) for obj in gc.get_objects())

    census._census.cache_clear()
    canonicalize.cache_clear()
    before = live_forms()
    census_entries(7)
    assert live_forms() - before == 0


class TestWorkerMap:
    """The top level on the library's worker map, here from order 6 up so
    that no test builds level 8 for it."""

    @pytest.fixture(autouse=True)
    def pool_from_six(self, monkeypatch, fresh_census):
        monkeypatch.setattr(census, "POOL_MIN_N", 6)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)

    def test_serial_level_answers_a_threaded_call(self, pools):
        serial = census_entries(6)
        assert census_entries(6, threads=2) is serial
        assert census_entries(6, threads=None) is serial
        assert pools == []

    def test_threaded_level_answers_a_serial_call(self, pools):
        pooled = census_entries(6, threads=2)
        assert pools == [2]
        assert census_entries(6) is pooled
        assert census_entries(6, threads=None) is pooled
        assert pools == [2]

    def test_only_the_top_level_goes_on_the_map(self, pools):
        census_entries(7, threads=2)
        assert pools == [2]  # level 7's; level 6 was built in this process

    def test_cache_clear_forgets_every_level(self, monkeypatch, pools):
        # census(1..7): the order-6 count includes level 7's parents
        census_entries(7, threads=2)
        census._census.cache_clear()
        calls: Counter[int] = Counter()

        def counting(g):
            calls[g.n] += 1
            return canonicalize(g)

        monkeypatch.setattr(census, "canonicalize", counting)
        census_entries(7, threads=2)
        assert pools == [2, 2]
        assert calls == CANONICALIZE_CALLS

    @pytest.mark.parametrize("n", [6, 7])
    def test_pooled_level_equals_serial(self, monkeypatch, n):
        # a real pool of two workers
        monkeypatch.setattr(census, "POOL_MIN_N", n)
        serial = census_entries(n)
        census._census.cache_clear()
        assert census_entries(n, threads=2) == serial
