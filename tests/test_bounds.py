"""bounds-calc: exact evaluators and bound-domination properties."""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isclose, log10

import mpmath
import pytest

from uniquesub.bounds import (azuma_tail, binomial_point_mass_log10, binomial_point_mass_max,
                              chernoff_l, dense_case_inequality, density_decay_bound,
                              density_decay_log10, exact_edge_count_tail, expected_embeddings,
                              expected_embeddings_log10, union_budget, union_budget_log10)
from uniquesub.embedding import count_embeddings
from uniquesub.errors import DomainError
from uniquesub.graphs import from_edges, pair_list
from uniquesub.process import supergraph_completion_prob


class TestBinomialPointMass:
    def test_single_trial(self):
        rep = binomial_point_mass_max(1)
        assert rep.exact_value == Fraction(1, 2)
        assert float(rep.bound_value) == 1.0

    def test_four_trials(self):
        assert binomial_point_mass_max(4).exact_value == Fraction(6, 16)

    def test_six_trials_worked_example(self):
        rep = binomial_point_mass_max(6)
        assert rep.exact_value == Fraction(20, 64)
        assert isclose(float(rep.bound_value), 1 / 6 ** 0.5)
        assert rep.slack > 0

    def test_domination_grid_with_empty_exception_table(self):
        # decided exactly via mass^2 * N <= 1; no failing N exists
        exceptions = [n for n in range(1, 1201)
                      if binomial_point_mass_max(n).slack < 0]
        assert exceptions == []


class TestChernoffL:
    def test_minimality_contract(self):
        for delta, n in [(0.5, 6), (0.9, 5), (0.1, 8), (0.25, 7)]:
            level, tail = chernoff_l(delta, n)
            target = Fraction(delta) / 4
            assert tail <= target
            assert exact_edge_count_tail(n, level) == tail
            if level > 0:
                assert exact_edge_count_tail(n, level - 1) > target

    def test_radius_zero_tail_is_one(self):
        assert exact_edge_count_tail(5, 0) == 1

    def test_worked_example(self):
        level, tail = chernoff_l(0.5, 6)
        assert level == 1
        assert tail == Fraction(32, 2 ** 15)

    def test_large_delta_small_level(self):
        level, _ = chernoff_l(0.99, 4)
        assert level <= 1

    def test_validation(self):
        with pytest.raises(DomainError):
            chernoff_l(0.0, 5)
        with pytest.raises(DomainError):
            chernoff_l(1.0, 5)

    def test_tail_matches_binomial_sum(self):
        for n in range(1, 13):
            total = n * (n - 1) // 2
            for level in range(n + 2):
                want = sum(Fraction(comb(total, t), 2 ** total) for t in range(total + 1)
                           if abs(Fraction(total, 2) - t) >= level * n)
                assert exact_edge_count_tail(n, level) == want

    def test_refuses_orders_beyond_the_measured_limit(self):
        for call in (lambda: chernoff_l(0.5, 651),
                     lambda: dense_case_inequality(0.5, 100.0, 651)):
            with pytest.raises(DomainError, match=r"n <= 650, got n=651"):
                call()


class TestAzumaTail:
    def test_zero_deviation(self):
        assert azuma_tail(0, [1.0, 2.0]) == 1

    def test_two_unit_influences(self):
        value = azuma_tail(1, [1, 1])
        assert isclose(float(value), float(mpmath.e ** -1), rel_tol=1e-12)

    def test_degenerate_sum(self):
        assert azuma_tail(1.0, [0.0, 0.0]) == 0
        assert azuma_tail(0.0, []) == 1

    def test_clamped(self):
        assert azuma_tail(0.0, [5.0]) <= 1

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_rejects_non_finite_deviation(self, t):
        with pytest.raises(DomainError, match="deviation t must be finite"):
            azuma_tail(t, [1.0])

    @pytest.mark.parametrize("b", [float("inf"), float("nan")])
    def test_rejects_non_finite_influence(self, b):
        with pytest.raises(DomainError, match="influences b must be finite"):
            azuma_tail(1.0, [1.0, b])

    def test_dominates_exact_binomial_tail_grid(self):
        # X = heads in m fair flips, f = X, b_i = 1: Hoeffding's inequality
        points = 0
        for m in (2, 5, 8, 12, 16, 20, 25, 30, 35, 40):
            for step in range(1, 101):
                t = Fraction(step * m, 200)  # t in (0, m/2]
                cutoff = Fraction(m, 2) - t
                exact = Fraction(0)
                k = 0
                while k <= cutoff:
                    exact += Fraction(comb(m, k), 2 ** m)
                    k += 1
                bound = azuma_tail(float(t), [1.0] * m)
                assert mpmath.mpf(exact.numerator) / exact.denominator <= bound
                points += 1
        assert points == 1000


class TestExpectedEmbeddings:
    def test_triangle_value(self):
        assert expected_embeddings(3, 3) == 6

    def test_empty_host(self):
        assert expected_embeddings(4, 0) == Fraction(24, 64)

    def test_validation(self):
        with pytest.raises(DomainError):
            expected_embeddings(4, 7)
        for n in (0, -3):
            with pytest.raises(DomainError, match="need at least one vertex"):
                expected_embeddings(n, 0)

    def test_matches_exhaustive_mean_n4(self):
        pairs = pair_list(4)
        hosts = [from_edges(4, [(0, 1)]),
                 from_edges(4, [(0, 1), (1, 2), (2, 3)]),
                 from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])]
        for h in hosts:
            total = 0
            for mask in range(1 << 6):
                g = from_edges(4, [pairs[i] for i in range(6) if mask >> i & 1])
                total += count_embeddings(g, h).count
            assert Fraction(total, 64) == expected_embeddings(4, h.edge_count())


class TestDensityDecay:
    def test_zero_steps(self):
        assert density_decay_bound(3, 6, 0) == (Fraction(1), Fraction(1))

    def test_full_host(self):
        loose, sharp = density_decay_bound(6, 6, 2)
        assert loose == 1 and sharp == 1

    def test_worked_example(self):
        loose, sharp = density_decay_bound(4, 6, 2, m_star=2)
        assert loose == Fraction(4, 9)
        assert sharp == Fraction(1, 4)
        assert supergraph_completion_prob(4, 6, 2, 4) == Fraction(1, 6) <= sharp

    def test_dominates_completion_probability_grid(self):
        points = 0
        for total in (6, 10, 15, 21):
            for e_h in range(total + 1):
                for m_star in range(0, e_h + 1, 2):
                    for m2 in range(m_star, min(total, m_star + 6) + 1):
                        prob = supergraph_completion_prob(e_h, total, m_star, m2)
                        loose, sharp = density_decay_bound(
                            e_h, total, m2 - m_star, m_star=m_star)
                        assert prob <= sharp <= loose
                        points += 1
        assert points >= 1000


class TestDenseCaseInequality:
    def test_monotone_in_c(self):
        weak = dense_case_inequality(0.5, 1.0, 8)
        strong = dense_case_inequality(0.5, 200.0, 8)
        assert strong.exact_value < weak.exact_value
        assert strong.slack > weak.slack

    def test_large_c_closes_the_gap(self):
        rep = dense_case_inequality(0.5, 500.0, 8)
        assert rep.slack > 0

    def test_validation(self):
        with pytest.raises(DomainError):
            dense_case_inequality(0.5, 0.0, 8)

    @pytest.mark.parametrize("c", [float("inf"), float("nan")])
    def test_rejects_non_finite_constant(self, c):
        with pytest.raises(DomainError, match="density constant c must be finite"):
            dense_case_inequality(0.5, c, 8)


class TestUnionBudget:
    def test_tiny_values(self):
        assert union_budget(1) == 1
        assert union_budget(2) == Fraction(1, 2)

    def test_decreasing_on_grid(self):
        values = [union_budget(n) for n in range(3, 51)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_stirling_cross_check(self):
        # log(n!) - n log n approaches -n; the ratio tends to 1 from below
        with mpmath.workdps(50):
            for n in (10, 20, 40):
                lhs = mpmath.log(mpmath.mpf(factorial(n))) - n * mpmath.log(n)
                assert lhs < -n + mpmath.log(n) * 2  # crude but monotone-safe
                assert lhs > -n

    def test_log_base_flag(self):
        natural = union_budget(5)
        base_e = union_budget(5, log_base=float(mpmath.e))
        assert isclose(float(natural), float(base_e), rel_tol=1e-12)
        assert float(union_budget(5, log_base=2.0)) < float(natural)

    def test_validation(self):
        with pytest.raises(DomainError):
            union_budget(0)
        with pytest.raises(DomainError):
            union_budget(3, log_base=1.0)

    @pytest.mark.parametrize("log_base", [float("inf"), float("nan")])
    def test_rejects_non_finite_log_base(self, log_base):
        with pytest.raises(DomainError, match="log base must be finite"):
            union_budget(3, log_base=log_base)


def _log10_size(value: Fraction) -> float:
    """log10 of the larger of the reduced numerator and denominator."""
    return log10(max(value.numerator, value.denominator))


class TestDigitLowerBounds:
    """Each log10 bound stays at or below the exact value's size, so the CLI,
    which refuses a value only when its bound passes the limit by a digit,
    never refuses a printable one."""

    def test_expected_embeddings(self):
        for n in range(1, 26):
            for e_h in range(n * (n - 1) // 2 + 1):
                bound = expected_embeddings_log10(n, e_h)
                assert bound <= _log10_size(expected_embeddings(n, e_h)) + 1e-9

    def test_binomial_point_mass(self):
        for total in [*range(1, 300), 1023, 1024, 1025, 4096, 14294]:
            bound = binomial_point_mass_log10(total)
            assert bound <= _log10_size(binomial_point_mass_max(total).exact_value) + 1e-9

    def test_union_budget(self):
        for n in [*range(1, 300), 1716]:
            assert union_budget_log10(n) <= _log10_size(union_budget(n)) + 1e-9

    def test_density_decay(self):
        for total in range(13):
            for e_h in range(total + 1):
                for m_star in range(e_h + 1):
                    for steps in (0, 1, 2, 7, 30):
                        bound = density_decay_log10(e_h, total, steps, m_star)
                        sizes = map(_log10_size, density_decay_bound(e_h, total, steps, m_star))
                        assert bound <= max(sizes) + 1e-9

    def test_validation_matches_the_evaluators(self):
        for bound, evaluator, args in [
            (expected_embeddings_log10, expected_embeddings, (0, 0)),
            (expected_embeddings_log10, expected_embeddings, (4, 7)),
            (binomial_point_mass_log10, binomial_point_mass_max, (0,)),
            (union_budget_log10, union_budget, (0,)),
            (density_decay_log10, density_decay_bound, (5, 4, 1)),
            (density_decay_log10, density_decay_bound, (2, 4, -1)),
            (density_decay_log10, density_decay_bound, (2, 4, 1, 3)),
        ]:
            with pytest.raises(DomainError) as want:
                evaluator(*args)
            with pytest.raises(DomainError) as got:
                bound(*args)
            assert str(got.value) == str(want.value)
