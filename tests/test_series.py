import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opmono import (
    Regime,
    SelfCheckError,
    Series,
    check_symmetry_a1,
    closed_form_free,
    euler_exp_log,
    euler_series,
    length_sequence,
    series_for,
    solve_quadratic_fe,
    unary_layer_series,
)
from opmono.counting import layer_lengths


def int_series(order=12):
    return st.lists(st.integers(-6, 6), min_size=0, max_size=order).map(
        lambda tail: Series([0] + tail, order))


class TestArithmetic:
    def test_mul_truncates(self):
        a = Series([0, 1], 3)              # z
        assert a * a == Series([0, 0, 1], 3)
        assert (a * a) * (a * a) == Series([0, 0, 0, 0], 3)

    def test_inverse(self):
        f = Series([1, -1], 6)             # 1 - z
        g = f.inverse()
        assert g.coeffs == tuple(Fraction(1) for _ in range(7))
        assert f * g == Series([1], 6)
        with pytest.raises(ValueError):
            Series([0, 1], 3).inverse()

    def test_substitute_power(self):
        f = Series([0, 1, 2, 3], 7)
        assert f.substitute_power(2) == Series([0, 0, 1, 0, 2, 0, 3, 0], 7)

    def test_exp_log_require_right_constant_terms(self):
        with pytest.raises(ValueError):
            Series([1, 1], 4).exp()
        with pytest.raises(ValueError):
            Series([0, 1], 4).log()

    def test_exp_of_z(self):
        e = Series([0, 1], 6).exp()
        assert e.coeffs == tuple(Fraction(1, __import__("math").factorial(n))
                                 for n in range(7))

    @given(int_series())
    def test_log_inverts_exp(self, f):
        assert f.exp().log() == f

    @given(int_series())
    def test_exp_turns_sum_into_product(self, f):
        g = Series([0, 2, 0, -1], f.order)
        assert (f + g).exp() == f.exp() * g.exp()

    def test_integer_coeffs_trap(self):
        with pytest.raises(SelfCheckError):
            Series([0, Fraction(1, 2)], 2).integer_coeffs()

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            Series([1], 2) + Series([1], 3)


def test_unary_layer_series():
    # free: d*z^2; commuting: 1 - (1 - z^2)^d
    assert unary_layer_series(Regime.FREE, 3, 6) == Series([0, 0, 3], 6)
    assert unary_layer_series(Regime.COMM_UNARY, 2, 6) == Series([0, 0, 2, 0, -1], 6)


class TestQuadraticSolvers:
    def test_catalan(self):
        s = solve_quadratic_fe(Regime.FREE, 1, 2, 10)
        assert [s.coeff(2 * n) for n in range(1, 6)] == [1, 2, 5, 14, 42]

    def test_lowest_order_is_single_term(self):
        for d, ell in [(1, 1), (3, 2), (2, 3)]:
            s = solve_quadratic_fe(Regime.FREE, d, ell, ell)
            assert s == Series.term(ell, ell)

    def test_comm_unary_row(self):
        s = solve_quadratic_fe(Regime.COMM_UNARY, 3, 1, 6)
        assert s.integer_coeffs()[1:] == [1, 1, 4, 10, 25, 76]

    def test_newton_agrees_with_fixpoint(self):
        for d in (1, 2, 3, 4):
            for ell in (1, 2, 3):
                assert closed_form_free(d, ell, 40) == solve_quadratic_fe(
                    Regime.FREE, d, ell, 40)

    def test_rejects_commutative_product_regimes(self):
        with pytest.raises(ValueError):
            solve_quadratic_fe(Regime.COMM_MULT, 1, 2, 8)

    def test_order_below_ell_rejected(self):
        with pytest.raises(ValueError):
            solve_quadratic_fe(Regime.FREE, 1, 3, 2)


class TestEulerConstruction:
    def test_rooted_tree_row(self):
        e = euler_series(Regime.COMM_MULT, 1, 2, 12)
        assert [int(e.coeff(2 * n)) for n in range(1, 7)] == [1, 2, 4, 9, 20, 48]

    def test_more_rows(self):
        e = euler_series(Regime.COMM_MULT, 3, 2, 8)
        assert [int(e.coeff(2 * n)) for n in range(1, 5)] == [1, 4, 16, 70]
        e = euler_series(Regime.COMM_BOTH, 3, 2, 8)
        assert [int(e.coeff(2 * n)) for n in range(1, 5)] == [1, 4, 13, 47]

    def test_builder_form(self):
        # multisets of plain stars: one object per size
        ones = euler_exp_log(lambda b: Series.term(8, 1), 1, 8)
        assert ones.integer_coeffs() == [0] + [1] * 8

    def test_rejects_unit_constant_atom_series(self):
        with pytest.raises(ValueError):
            euler_exp_log(lambda b: Series([1], 6), 1, 6)

    def test_rejects_noncommutative_regimes(self):
        with pytest.raises(ValueError):
            euler_series(Regime.FREE, 1, 2, 8)


def test_dual_route_against_recurrences_spot():
    for regime in Regime:
        ser = series_for(regime, 2, 2, 24)
        seq = length_sequence(regime, 2, 2, 24)
        assert [int(ser.coeff(n)) for n in range(1, 25)] == list(seq.values[1:])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Regime)), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 120))
def test_series_matches_recurrences(regime, d, ell, order):
    order = max(order, ell)
    ser = series_for(regime, d, ell, order)
    assert list(ser.coeffs) == list(length_sequence(regime, d, ell, order).values)


@pytest.mark.parametrize("regime", list(Regime), ids=[r.value for r in Regime])
def test_order_200_smoke(regime):
    ser = series_for(regime, 3, 2, 200)
    assert ser.order == 200
    assert ser.coeff(2) == 1 and ser.coeff(199) == 0
    assert all(c.denominator == 1 for c in ser.coeffs)


@pytest.mark.parametrize("regime", list(Regime), ids=[r.value for r in Regime])
def test_unary_layer_series_is_the_shared_length_form(regime):
    for d in range(1, 7):
        order = 2 * d + 2
        got = unary_layer_series(regime, d, order)
        form = layer_lengths(regime.unary_commute, d, order)
        assert got.integer_coeffs() == [form.get(k, 0) for k in range(order + 1)]
        z2 = Series.term(order, 2)
        want = Series.term(order, 0) - (Series.term(order, 0) - z2).power(d) \
            if regime.unary_commute else z2.scaled(d)
        assert got == want


@pytest.mark.parametrize("regime", [Regime.COMM_UNARY, Regime.COMM_BOTH],
                         ids=["c", "cm"])
def test_many_commuting_operators(regime):
    # the commuting layer has 2^d - 1 label sets; its length form must be
    # built from d binomials, never by listing the sets
    start = time.perf_counter()
    seq = length_sequence(regime, 40, 2, 40)
    ser = series_for(regime, 40, 2, 40)
    assert time.perf_counter() - start < 1.0
    assert list(ser.coeffs) == list(seq.values)
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

    def test_exp_log_rejects_order_below_ell(self):
        with pytest.raises(ValueError):
            euler_exp_log(lambda b: Series.term(4, 5), 5, 4)

    def test_exp_log_rejects_nonaffine_atoms(self):
        with pytest.raises(ValueError, match="affine"):
            euler_exp_log(lambda b: Series.term(8, 1) + (b * b).shifted(1), 1, 8)


def test_substitution_identity():
    b14 = solve_quadratic_fe(Regime.FREE, 1, 4, 42)
    b11 = solve_quadratic_fe(Regime.FREE, 1, 1, 20)
    for n in range(1, 21):
        assert b14.coeff(2 * n + 2) == b11.coeff(n)


def test_symmetry_check():
    assert check_symmetry_a1(2)
    assert check_symmetry_a1(10)
    assert check_symmetry_a1(15)
    with pytest.raises(ValueError):
        check_symmetry_a1(1)
