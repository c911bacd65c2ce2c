import math
import time
from fractions import Fraction

import pytest

from opmono import (
    Regime,
    counting,
    growth,
    growth_estimate,
)

# four-decimal reference values for the exact panels
FREE_VALUES = {
    (1, 1): 2.618, (2, 1): 3.2043, (3, 1): 3.6399, (8, 1): 5.083,
    (1, 2): 2.0, (2, 2): 2.4142, (4, 2): 3.0, (8, 2): 3.8284,
    (1, 3): 1.7549, (2, 3): 2.1037, (8, 3): 3.3729,
}
COMM_UNARY_VALUES = {
    (1, 1): 2.618, (2, 1): 3.1542, (8, 1): 4.8213,
    (1, 2): 2.0, (2, 2): 2.3486, (3, 2): 2.6062, (8, 2): 3.4504,
    (1, 3): 1.7549, (2, 3): 2.0277, (8, 3): 2.9017,
}


@pytest.mark.parametrize("d,ell", sorted(FREE_VALUES))
def test_growth_free_panel(d, ell):
    res = growth(Regime.FREE, d, ell)
    assert abs(float(res.g) - FREE_VALUES[(d, ell)]) < 1e-3
    assert res.method == "exact-root"
    assert 0 < float(res.rho) < 1
    assert math.isclose(float(res.g * res.rho), 1.0, rel_tol=1e-15)


@pytest.mark.parametrize("d,ell", sorted(COMM_UNARY_VALUES))
def test_growth_comm_unary_panel(d, ell):
    res = growth(Regime.COMM_UNARY, d, ell)
    assert abs(float(res.g) - COMM_UNARY_VALUES[(d, ell)]) < 1e-3


def test_exact_algebraic_specializations():
    # ell=2: rho*(1+sqrt(d)) = 1, so g = 1 + sqrt(d)
    for d in range(1, 9):
        assert abs(float(growth(Regime.FREE, d, 2).g) - (1 + math.sqrt(d))) < 1e-10


def test_residuals_meet_tolerance():
    tol = 1e-12
    for d in (1, 3, 7):
        for ell in (1, 2, 3):
            rho = growth(Regime.FREE, d, ell, tol=tol).rho
            resid = float(math.sqrt(rho) ** ell + math.sqrt(d) * float(rho) - 1)
            assert abs(resid) < 1e-11
            rho = growth(Regime.COMM_UNARY, d, ell, tol=tol).rho
            z = float(rho)
            resid = (1 - z * z) ** d + z ** ell - 2 * math.sqrt(z) ** ell
            assert abs(resid) < 1e-11


def test_quotient_growth_is_no_faster():
    for d in range(1, 9):
        for ell in (1, 2, 3):
            g_free = float(growth(Regime.FREE, d, ell).g)
            g_c = float(growth(Regime.COMM_UNARY, d, ell).g)
            if d == 1:
                assert abs(g_free - g_c) < 1e-10
            else:
                assert g_free > g_c


ESTIMATOR_VALUES = [
    (Regime.COMM_MULT, 1, 1.7194),
    (Regime.COMM_MULT, 2, 2.1201),
    (Regime.COMM_BOTH, 2, 2.0343),
]


@pytest.mark.parametrize("regime,d,want", ESTIMATOR_VALUES,
                         ids=[f"{r.value}-d{d}" for r, d, _ in ESTIMATOR_VALUES])
def test_estimator_panel(regime, d, want):
    res = growth_estimate(regime, d, 2, 100)
    assert abs(float(res.g) - want) < 2e-2
    assert res.method == "ratio-estimate"
    assert res.estimate_n == 100


def test_estimator_matches_exact_roots():
    # ratio estimator on 200 computed terms against the exact roots
    for d in range(1, 9):
        for ell in (1, 2, 3):
            for regime in (Regime.FREE, Regime.COMM_UNARY):
                exact = float(growth(regime, d, ell).g)
                est = float(growth_estimate(regime, d, ell, 99).g)
                assert abs(exact - est) < 5e-2, (regime, d, ell)


def test_growth_dispatch():
    assert growth(Regime.FREE, 1, 2).method == "exact-root"
    assert growth(Regime.COMM_MULT, 1, 2, n=20).method == "ratio-estimate"


def test_bad_arguments():
    with pytest.raises(ValueError):
        growth(Regime.FREE, 0, 1)
    with pytest.raises(ValueError):
        growth(Regime.FREE, 1, 1, tol=0)
    for tol in (math.inf, math.nan):  # inf used to stop at the first midpoint
        with pytest.raises(ValueError):
            growth(Regime.COMM_UNARY, 2, 2, tol=tol)
        with pytest.raises(ValueError):
            growth(Regime.FREE, 2, 2, tol=tol)
    with pytest.raises(ValueError, match="below the working precision"):
        growth(Regime.FREE, 2, 4, tol=1e-300)
    with pytest.raises(ValueError):
        growth_estimate(Regime.COMM_MULT, 1, 2, 0)


def test_many_commuting_operators_root():
    # w(rho) = 1 - (1 - rho^2)^d in product form; the expanded alternating
    # binomial sum would lose about d bits of the working precision
    import mpmath

    res = growth(Regime.COMM_UNARY, 200, 2)
    with mpmath.workprec(192):
        z = res.rho
        resid = (1 - z * z) ** 200 + z ** 2 - 2 * z
    assert abs(resid) < 1e-11
    assert abs(float(res.g) - 10.7713720039) < 1e-9


def test_free_enclosure_is_certified():
    # ell=2: g* = 1 + sqrt(d) lies in [a, b] = [1/(rho + tol/2), 1/(rho - tol/2)];
    # for a, b >= 1 that is (a - 1)^2 <= d <= (b - 1)^2, decided exactly
    tol = 2.0 ** -150
    for d in range(1, 9):
        res = growth(Regime.FREE, d, 2, tol=tol)
        assert isinstance(res.rho, Fraction) and res.g == 1 / res.rho
        a, b = 1 / (res.rho + Fraction(tol) / 2), 1 / (res.rho - Fraction(tol) / 2)
        assert 1 <= a < b
        assert (a - 1) ** 2 <= d <= (b - 1) ** 2


@pytest.mark.parametrize("d,ell", sorted(COMM_UNARY_VALUES))
def test_comm_unary_matches_an_independent_root(d, ell):
    # mpmath at 192 bits solves sqrt(w(rho)) + rho^(ell/2) = 1 with the
    # secant method, started from the float value of the certified root
    import mpmath

    res = growth(Regime.COMM_UNARY, d, ell, tol=2.0 ** -150)
    with mpmath.workprec(192):
        f = lambda z: mpmath.sqrt(1 - (1 - z * z) ** d) + mpmath.sqrt(z) ** ell - 1
        root = mpmath.findroot(f, mpmath.mpf(float(res.rho)))
        assert abs(mpmath.mpf(res.rho.numerator) / res.rho.denominator - root) < 1e-40


def exact_bisection(commuting, d, ell, tol):
    # the bisection on the exact sign of F(t) over Fractions alone
    lo, hi = Fraction(0), Fraction(1)
    while hi * hi - lo * lo >= tol:
        mid = (lo + hi) / 2
        f = (1 - mid ** ell) ** 2 - counting.layer_weight(commuting, d, mid * mid)
        lo, hi = (mid, hi) if f > 0 else (lo, mid) if f < 0 else (mid, mid)
    return (lo * lo + hi * hi) / 2


@pytest.mark.parametrize("d", [1, 2, 3, 4, 1000])
def test_bounded_signs_give_the_exact_bisection(d):
    # signs decided from fixed-point bounds leave every bracket, and so rho
    # and g, as the exact signs do.  Free d=4, ell=1 has F(1/2) = 0 at the
    # first midpoint, where the bounds cannot decide and the exact sign does
    for regime in (Regime.FREE, Regime.COMM_UNARY):
        for ell in (1, 2, 3):
            for tol in (1e-12, 2.0 ** -150) if d < 5 else (1e-12,):
                res = growth(regime, d, ell, tol=tol)
                rho = exact_bisection(regime.unary_commute, d, ell, tol)
                assert (res.rho, res.g) == (rho, 1 / rho)


def test_large_d_root_is_fast():
    # the exact power (1 - t^4)^d has about 4*d*log2(1/tol) bits: d = 30000
    # took about 9 s by exact signs alone
    start = time.perf_counter()
    res = growth(Regime.COMM_UNARY, 30000, 2)
    assert time.perf_counter() - start < 0.5
    assert abs(float(res.g) - 88.86028062439203) < 1e-9
