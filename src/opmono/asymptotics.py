"""Exponential growth rates of the length-graded families.

For the noncommutative-product regimes the growth rate is exact and
certified.  It is 1/rho, where the quadratic's discriminant vanishes:
sqrt(w(rho)) + rho^(ell/2) = 1, with w the unary-layer weight.  With
t = sqrt(rho) that is the one root in (0, 1) of the integer polynomial
F(t) = (1 - t^ell)^2 - w(t^2), which falls strictly from 1 at t = 0 to
-w(1) at t = 1.  Bisection on the exact sign of F over Fractions brackets
the root, so the returned rho is within tol/2 of the true one.  For the
commutative-product regimes no comparable closed equation is available, so
a finite-n ratio estimator with the n^(-3/2) subexponential correction is
reported instead.  All arithmetic is exact, from the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import layer_weight, length_sequence
from .monomial import Regime

_PREC_BITS = 192  # the finest tol is 2^-192; the estimate keeps 192 bits


@dataclass(frozen=True)
class GrowthResult:
    regime: Regime
    d: int
    ell: int
    g: Fraction
    method: str                       # "exact-root" or "ratio-estimate"
    rho: Fraction | None = None       # exact-root only; g == 1/rho
    estimate_n: int | None = None     # ratio-estimate only
    tol: float | None = None          # exact-root only; |rho - rho*| < tol/2


class _Bounds:
    """[lo, hi] * 2^-_FIX_BITS with integer ends, rounded outward: the
    arithmetic F(t) = (1 - t^ell)^2 - layer_weight(t^2) needs, on bounds."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo, self.hi = lo, hi

    def __rsub__(self, n: int) -> _Bounds:
        return _Bounds((n << _FIX_BITS) - self.hi, (n << _FIX_BITS) - self.lo)

    def __sub__(self, other: _Bounds) -> _Bounds:
        return _Bounds(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: _Bounds | int) -> _Bounds:
        if isinstance(other, int):
            other = _Bounds(other << _FIX_BITS, other << _FIX_BITS)
        ends = [x * y for x in (self.lo, self.hi) for y in (other.lo, other.hi)]
        return _Bounds(min(ends) >> _FIX_BITS, -(-max(ends) >> _FIX_BITS))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> _Bounds:
        out, base = _Bounds(1 << _FIX_BITS, 1 << _FIX_BITS), self
        while n:
            if n & 1:
                out = out * base
            base, n = base * base, n >> 1
        return out


# a bisection midpoint is dyadic with at most about _PREC_BITS + 2 bits, so
# it is exact here; the bounds' width grows about as d ulps, far below |F(t)|
# at all but a few midpoints
_FIX_BITS = 2 * _PREC_BITS + 64


def _sign(commuting: bool, d: int, ell: int, t: Fraction) -> int:
    # the sign of F(t), from the bounds when they exclude 0 (for large d the
    # exact power (1 - t^4)^d is huge), from exact Fractions otherwise
    n = t.numerator << (_FIX_BITS + 1 - t.denominator.bit_length())
    x = _Bounds(n, n)
    f = (1 - x ** ell) ** 2 - layer_weight(commuting, d, x * x)
    if f.lo > 0 or f.hi < 0:
        return 1 if f.lo > 0 else -1
    f = (1 - t ** ell) ** 2 - layer_weight(commuting, d, t * t)
    return (f > 0) - (f < 0)


def _exact_root(regime: Regime, d: int, ell: int, tol: float) -> GrowthResult:
    if tol < 2.0 ** -_PREC_BITS:
        raise ValueError(f"tol {tol!r} is below the working precision 2^-{_PREC_BITS}")
    commuting = regime.unary_commute
    lo, hi = Fraction(0), Fraction(1)  # F(lo) > 0 > F(hi); rho* in [lo^2, hi^2]
    while hi * hi - lo * lo >= tol:
        mid = (lo + hi) / 2
        sign = _sign(commuting, d, ell, mid)
        if sign > 0:
            lo = mid
        elif sign < 0:
            hi = mid
        else:
            lo = hi = mid
    rho = (lo * lo + hi * hi) / 2
    return GrowthResult(regime, d, ell, 1 / rho, "exact-root", rho=rho, tol=tol)


def growth_estimate(regime: Regime, d: int, ell: int, n: int) -> GrowthResult:
    """Finite-n growth estimate sqrt(b(2n+2)/b(2n)) * ((n+1)/n)^(3/4).

    Intended for the commutative-product regimes, which have no exact-root
    equation here, but usable on any regime for cross-checks.  The two
    terms are read from the family's shared length table, which is extended
    to length 2n + 2 only if it is shorter.  g is the integer fourth root of
    g^4 = (b(2n+2)/b(2n))^2 * ((n+1)/n)^3 on a 2^-192 grid, rounded down."""
    if n < 1:
        raise ValueError("n must be >= 1")
    seq = length_sequence(regime, d, ell, 2 * n + 2)
    lo, hi = seq.value(2 * n), seq.value(2 * n + 2)
    if lo == 0:
        raise ValueError(f"sequence vanishes at length {2 * n}; increase n")
    g4 = (hi * hi * (n + 1) ** 3 << 4 * _PREC_BITS) // (lo * lo * n ** 3)
    g = Fraction(math.isqrt(math.isqrt(g4)), 1 << _PREC_BITS)
    return GrowthResult(regime, d, ell, g, "ratio-estimate", estimate_n=n)


def growth(regime: Regime, d: int, ell: int, tol: float = 1e-12,
           n: int = 100) -> GrowthResult:
    """Exact root for the noncommutative products, ratio estimate otherwise;
    ``tol`` and ``n`` are checked in every regime.  g = 1/rho, where rho in
    (0, 1) is the one root of rho^(ell/2) + sqrt(d)*rho = 1 (free), or of
    (1-rho^2)^d + rho^ell - 2*rho^(ell/2) = 0 (c); both left sides are monotone."""
    if d < 1 or ell < 1 or not 0 < tol < math.inf:  # also rejects nan
        raise ValueError("need d >= 1, ell >= 1 and a finite tol > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if regime.mult_commute:
        return growth_estimate(regime, d, ell, n)
    return _exact_root(regime, d, ell, tol)
