import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opmono import (
    LengthSequence,
    Regime,
    SelfCheckError,
    check_symmetry_a1,
    closed_form_free,
    euler_exp_log,
    length_sequence,
    series_for,
)
from opmono import series
from opmono.counting import layer_lengths
from opmono.series import _exp, _inv, _mul, _sqrt


def euler_log_derivative(b, n):
    # z*L' for L = sum_j B(z^j)/j: c_m = sum_{k | m} k*b_k, so exp(L) is integral
    return [sum(k * b[k] for k in range(1, m + 1) if m % k == 0 and k < len(b))
            for m in range(n)]


class TestArithmetic:
    """The integer list kernels the solvers run on."""

    def test_mul_truncates(self):
        assert _mul([0, 1], [0, 1], 3) == [0, 0, 1]
        assert _mul([0, 0, 1], [0, 0, 1], 4) == [0, 0, 0, 0]

    def test_inverse(self):
        assert _inv([1, -1], 7) == [1] * 7
        with pytest.raises(ValueError):
            _inv([0, 1], 3)

    def test_square_root(self):
        assert _sqrt([1, -4, 0, 0, 0, 0], 6) == [1, -2, -2, -4, -10, -28]

    def test_exp_of_divisor_sums_counts_partitions(self):
        sigma = [0] + [sum(k for k in range(1, m + 1) if m % k == 0) for m in range(1, 11)]
        assert _exp(sigma, 11) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_exp_of_z(self):
        # exp(z) = sum z^n/n! is not integral: 2*e_2 = 1 fails the exact division
        with pytest.raises(SelfCheckError):
            _exp([0, 1], 3)

    @given(st.lists(st.integers(-6, 6), max_size=12), st.lists(st.integers(-6, 6), max_size=12))
    def test_exp_turns_sum_into_product(self, f, g):
        n = 13
        f, g = [0] + f, [0] + g
        both = [a + b for a, b in zip(f + [0] * n, g + [0] * n)]
        assert _exp(euler_log_derivative(both, n), n) == _mul(
            _exp(euler_log_derivative(f, n), n), _exp(euler_log_derivative(g, n), n), n)


def test_unary_layer_series():
    # free: d*z^2; commuting: 1 - (1 - z^2)^d, as the length form series_for reads
    assert layer_lengths(False, 3, 6) == {2: 3}
    assert layer_lengths(True, 2, 6) == {2: 2, 4: -1}


class TestQuadraticSolvers:
    def test_catalan(self):
        s = series_for(Regime.FREE, 1, 2, 10)
        assert [s.values[2 * n] for n in range(1, 6)] == [1, 2, 5, 14, 42]

    def test_lowest_order_is_single_term(self):
        for d, ell in [(1, 1), (3, 2), (2, 3)]:
            s = series_for(Regime.FREE, d, ell, ell)
            assert s == LengthSequence(Regime.FREE, d, ell, (0,) * ell + (1,))

    def test_comm_unary_row(self):
        s = series_for(Regime.COMM_UNARY, 3, 1, 6)
        assert list(s.values[1:]) == [1, 1, 4, 10, 25, 76]

    def test_newton_agrees_with_fixpoint(self):
        for d in (1, 2, 3, 4):
            for ell in (1, 2, 3):
                assert series_for(Regime.FREE, d, ell, 40) == length_sequence(
                    Regime.FREE, d, ell, 40)

    def test_order_below_ell_rejected(self):
        with pytest.raises(ValueError):
            series_for(Regime.FREE, 1, 3, 2)


class TestEulerConstruction:
    def test_rooted_tree_row(self):
        e = series_for(Regime.COMM_MULT, 1, 2, 12)
        assert [e.values[2 * n] for n in range(1, 7)] == [1, 2, 4, 9, 20, 48]

    def test_more_rows(self):
        e = series_for(Regime.COMM_MULT, 3, 2, 8)
        assert [e.values[2 * n] for n in range(1, 5)] == [1, 4, 16, 70]
        e = series_for(Regime.COMM_BOTH, 3, 2, 8)
        assert [e.values[2 * n] for n in range(1, 5)] == [1, 4, 13, 47]

    def test_builder_form(self):
        # multisets of plain stars: one object per size
        ones = euler_exp_log([0, 1], [0], 8)
        assert ones == (0,) + (1,) * 8
        # the atom z^2 and one free label as the weight: rooted trees
        trees = euler_exp_log([0, 0, 1], [0, 0, 1], 12)
        assert trees == series_for(Regime.COMM_MULT, 1, 2, 12).values

    def test_rejects_unit_constant_atom_series(self):
        with pytest.raises(ValueError):
            euler_exp_log([1], [0], 6)


def test_dual_route_against_recurrences_spot():
    for regime in Regime:
        assert series_for(regime, 2, 2, 24) == length_sequence(regime, 2, 2, 24)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Regime)), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 120))
def test_series_matches_recurrences(regime, d, ell, order):
    order = max(order, ell)
    assert series_for(regime, d, ell, order) == length_sequence(regime, d, ell, order)


@pytest.mark.parametrize("regime", list(Regime), ids=[r.value for r in Regime])
def test_order_200_smoke(regime):
    ser = series_for(regime, 3, 2, 200)
    assert ser.n_max == 200
    assert ser.values[2] == 1 and ser.values[199] == 0
    assert all(type(c) is int for c in ser.values)


@pytest.mark.parametrize("regime", list(Regime), ids=[r.value for r in Regime])
def test_unary_layer_series_is_the_shared_length_form(regime):
    for d in range(1, 7):
        order = 2 * d + 2
        # d*z^2, or 1 - (1 - z^2)^d = -sum_{j>=1} C(d, j)*(-z^2)^j
        if regime.unary_commute:
            want = {2 * j: -math.comb(d, j) * (-1) ** j for j in range(1, d + 1)}
        else:
            want = {2: d}
        assert layer_lengths(regime.unary_commute, d, order) == want


@pytest.mark.parametrize("regime", [Regime.COMM_UNARY, Regime.COMM_BOTH],
                         ids=["c", "cm"])
def test_many_commuting_operators(regime):
    # the commuting layer has 2^d - 1 label sets; its length form must be
    # built from d binomials, never by listing the sets
    start = time.perf_counter()
    seq = length_sequence(regime, 40, 2, 40)
    ser = series_for(regime, 40, 2, 40)
    assert time.perf_counter() - start < 1.0
    assert ser == seq
    assert seq.value(4) == 1 + 40  # z^2 twice, or one label over z^2


class TestSeriesArguments:
    SOLVERS = [lambda *a, regime=regime: series_for(regime, *a) for regime in Regime]
    SOLVERS.append(closed_form_free)

    @pytest.mark.parametrize("args", [(1, 3, 2), (0, 2, 8), (1, 0, 8)],
                             ids=["order-below-ell", "d0", "ell0"])
    def test_rejected_by_every_solver(self, args):
        for solve in self.SOLVERS:
            with pytest.raises(ValueError):
                solve(*args)

    def test_exp_log_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order"):
            euler_exp_log([0, 1], [0], -1)
        # an order below the atom's lowest term is the zero series
        assert euler_exp_log([0] * 5 + [1], [0], 4) == (0,) * 5

    def test_exp_log_require_right_constant_terms(self):
        for atom, weight in [([1, 1], [0, 0, 1]), ([0, 1], [1])]:
            with pytest.raises(ValueError, match="zero constant term"):
                euler_exp_log(atom, weight, 6)

    def test_exp_log_rejects_non_integer_lists(self):
        with pytest.raises(ValueError, match="integers"):
            euler_exp_log([0, Fraction(1, 2)], [0], 6)


def test_series_result_keeps_the_benchmark_names():
    # perfbench/worker.py reads a series result as order and coeffs
    ser = series_for(Regime.FREE, 2, 2, 12)
    assert ser.order == ser.n_max == 12 and ser.coeffs is ser.values
    with pytest.raises(AttributeError):
        ser.order = 13


def raised(kernel, index, by=1):
    """``kernel`` with coefficient ``index`` of its answer raised by ``by``."""
    def wrong(*args):
        out = kernel(*args)
        out[index] += by
        return out
    return wrong


class TestSelfChecksFire:
    """Each solver's closing check catches a kernel that returns one wrong
    coefficient."""

    def test_closed_form_numerator(self, monkeypatch):
        monkeypatch.setattr(series, "_sqrt", raised(series._sqrt, 1))
        for regime in (Regime.FREE, Regime.COMM_UNARY):
            with pytest.raises(SelfCheckError,
                               match=r"^quadratic-formula numerator not divisible by z\^2$"):
                series_for(regime, 2, 2, 12)

    @pytest.mark.parametrize("regime", [Regime.FREE, Regime.COMM_UNARY], ids=["free", "c"])
    def test_quadratic_solution_substituted_back(self, monkeypatch, regime):
        # raising the last root coefficient by 2*d keeps every division exact,
        # so only the substitution sees the wrong last term
        monkeypatch.setattr(series, "_sqrt", raised(series._sqrt, -1, 2 * 2))
        with pytest.raises(SelfCheckError,
                           match="^quadratic-formula solution does not satisfy the quadratic$"):
            series_for(regime, 2, 2, 12)

    @pytest.mark.parametrize("regime", [Regime.COMM_MULT, Regime.COMM_BOTH], ids=["m", "cm"])
    def test_newton_solution_substituted_back(self, monkeypatch, regime):
        monkeypatch.setattr(series, "_newton", raised(series._newton, -1))
        with pytest.raises(SelfCheckError,
                           match="^Newton solution does not satisfy the exp-log equation$"):
            series_for(regime, 2, 2, 12)


def test_substitution_identity():
    b14 = series_for(Regime.FREE, 1, 4, 42)
    b11 = series_for(Regime.FREE, 1, 1, 20)
    for n in range(1, 21):
        assert b14.values[2 * n + 2] == b11.values[n]


def test_symmetry_check():
    assert check_symmetry_a1(2)
    assert check_symmetry_a1(10)
    assert check_symmetry_a1(15)
    with pytest.raises(ValueError):
        check_symmetry_a1(1)
