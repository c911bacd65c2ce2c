"""Exponential growth rates of the length-graded families.

For the noncommutative-product regimes the growth rate is exact: it is the
reciprocal of the root rho of sqrt(w(rho)) + rho^(ell/2) = 1, with w the
unary-layer weight, isolated by bisection (the left side is strictly
increasing on (0, 1)).  For the commutative-product regimes no comparable
closed equation is available, so a finite-n ratio estimator with the
n^(-3/2) subexponential correction is reported instead.

``mpmath`` is imported by the functions that use it, so that importing
opmono does not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .counting import layer_weight, length_sequence
from .monomial import Regime

if TYPE_CHECKING:
    import mpmath

_PREC_BITS = 192  # working precision for bisection and the estimator
_MAX_BISECT = 600


@dataclass(frozen=True)
class GrowthResult:
    regime: Regime
    d: int
    ell: int
    g: mpmath.mpf
    method: str                       # "exact-root" or "ratio-estimate"
    rho: mpmath.mpf | None = None     # exact-root only; g == 1/rho
    estimate_n: int | None = None     # ratio-estimate only
    tol: float | None = None


def _bisect(f, a, b, tol):
    """Root of a monotone f on [a, b] with a sign change; stops once both the
    bracket width and |f| at the midpoint are below tol."""
    fa = f(a)
    fb = f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa < 0) == (fb < 0):
        raise ValueError("no sign change on the bracketing interval")
    for _ in range(_MAX_BISECT):
        c = (a + b) / 2
        fc = f(c)
        if fc == 0 or (b - a < tol and abs(fc) < tol):
            return c
        if (fc < 0) == (fa < 0):
            a, fa = c, fc
        else:
            b, fb = c, fc
    raise ValueError("bisection did not reach the requested tolerance; "
                     "tol is below the working precision")


def _exact_root(regime: Regime, d: int, ell: int, tol: float) -> GrowthResult:
    # The quadratic's discriminant vanishes where sqrt(w) + sqrt(rho)^ell = 1;
    # the left side increases from 0 to sqrt(w(1)) + 1 on (0, 1).
    import mpmath

    if d < 1 or ell < 1 or not 0 < tol < math.inf:  # also rejects nan
        raise ValueError("need d >= 1, ell >= 1 and a finite tol > 0")
    with mpmath.workprec(_PREC_BITS):
        commuting = regime.unary_commute
        f = lambda z: mpmath.sqrt(layer_weight(commuting, d, z)) + mpmath.sqrt(z) ** ell - 1
        rho = _bisect(f, mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(tol))
        g = 1 / rho
    return GrowthResult(regime, d, ell, g, "exact-root", rho=rho, tol=tol)


def growth_free(d: int, ell: int, tol: float = 1e-12) -> GrowthResult:
    """Exact growth rate with nothing commuting: g = 1/rho where rho is the
    unique root in (0, 1) of rho^(ell/2) + sqrt(d)*rho = 1 (increasing)."""
    return _exact_root(Regime.FREE, d, ell, tol)


def growth_comm_unary(d: int, ell: int, tol: float = 1e-12) -> GrowthResult:
    """Exact growth rate with commuting unary operators: g = 1/rho where rho
    is the unique root in (0, 1) of (1-rho^2)^d + rho^ell = 2*rho^(ell/2)
    (the left-minus-right side is strictly decreasing)."""
    return _exact_root(Regime.COMM_UNARY, d, ell, tol)


def growth_estimate(regime: Regime, d: int, ell: int, n: int) -> GrowthResult:
    """Finite-n growth estimate sqrt(b(2n+2)/b(2n)) * ((n+1)/n)^(3/4).

    Intended for the commutative-product regimes, which have no exact-root
    equation here, but usable on any regime for cross-checks.  The two
    terms are read from the family's shared length table, which is extended
    to length 2n + 2 only if it is shorter."""
    import mpmath

    if n < 1:
        raise ValueError("n must be >= 1")
    seq = length_sequence(regime, d, ell, 2 * n + 2)
    lo, hi = seq.value(2 * n), seq.value(2 * n + 2)
    if lo == 0:
        raise ValueError(f"sequence vanishes at length {2 * n}; increase n")
    with mpmath.workprec(_PREC_BITS):
        ratio = mpmath.mpf(hi) / mpmath.mpf(lo)
        corr = (mpmath.mpf(n + 1) / n) ** (mpmath.mpf(3) / 4)
        g = mpmath.sqrt(ratio) * corr
    return GrowthResult(regime, d, ell, g, "ratio-estimate", estimate_n=n)


def growth(regime: Regime, d: int, ell: int, tol: float = 1e-12,
           n: int = 100) -> GrowthResult:
    """Exact root for the noncommutative products, ratio estimate otherwise."""
    if regime.mult_commute:
        return growth_estimate(regime, d, ell, n)
    return _exact_root(regime, d, ell, tol)
