"""Truncated one-variable formal power series with integer coefficients,
and the length-graded series of the four regimes.

:func:`series_for` is the one entry point, with the regime an argument.
It is independent of the counting recurrences; it shares only the unary
layer, read from :func:`counting.layer_lengths`.  Everything runs on plain
integer coefficient lists through a handful of shared kernels: truncated
multiplication, the inverse of a series with constant term +-1, the
exponential from its log-derivative, and the square root.  Every division
inside a kernel is asserted exact and raises :class:`SelfCheckError`
otherwise.  The solvers of a regime return a :class:`counting.LengthSequence`,
the same value type as :func:`counting.length_sequence`, so the dual-route
check is plain equality.

* The noncommutative-product regimes (free, c) solve the quadratic
  Q(B) = w*B^2 + (w + z^ell - 1)*B + z^ell = 0 by its formula
  B = (L - sqrt(L^2 - 4*w*z^ell)) / (2*w), L = 1 - z^ell - w, with an
  integer series square root.  w = d*z^2 + ..., so the division by 2*w is
  asserted exact term by term.  :func:`closed_form_free` is the free case
  under its old name.
* The commutative-product regimes (m, cm) solve the multiset construction
  1 + Y = exp(sum_{j>=1} Bbar(z^j)/j), Bbar = z^ell + w*Y, which is not
  algebraic, by precision-doubling Newton iteration (Brent & Kung 1978).
  :func:`euler_exp_log` solves it for any atom and weight given as two
  integer lists.  The j >= 2 terms R only read Y at half the index, so each
  step fixes R from the half-precision iterate (Otter, Polya) and takes one
  Newton step on Y = exp(z^ell + w*Y + R) - 1.  The exponential is formed
  from the integral log-derivative sum_n (sum_{k|n} k*bbar_k) z^n, so the
  division by n in m*e_m = sum_k c_k*e_{m-k} is asserted exact.

Every solver finishes by substituting its answer back into its equation at
full order.
"""

from __future__ import annotations

from operator import mul

from .counting import LengthSequence, SelfCheckError, layer_lengths
from .monomial import Regime


# ---------------------------------------------------------------------------
# List kernels.  A list holds the coefficients of z^0, z^1, ...; ``n`` is the
# number of coefficients wanted (the order plus one).

def _div(a: int, m: int, what: str) -> int:
    """a / m, which must be exact."""
    q, rem = divmod(a, m)
    if rem:
        raise SelfCheckError(f"{what}: {a} is not divisible by {m}")
    return q


def _add(*terms, n: int) -> list:
    out = [0] * n
    for t in terms:
        for i, c in enumerate(t[:n]):
            out[i] += c
    return out


def _mul(a, b, n: int) -> list:
    """The first n coefficients of a*b."""
    a, rb = a[:n], b[:n][::-1]
    la, lb = len(a), len(rb)
    out = []
    for k in range(n):
        lo, hi = max(0, k - lb + 1), min(k, la - 1)
        out.append(sum(map(mul, a[lo:hi + 1], rb[lb - 1 - k + lo:lb - k + hi]))
                   if lo <= hi else 0)
    return out


def _inv(f, n: int) -> list:
    """The first n coefficients of 1/f; f[0] must be +-1."""
    g0 = f[0]
    if g0 not in (1, -1):
        raise ValueError("an integer series is invertible only with constant term +-1")
    g = [g0]
    for m in range(1, n):
        hi = min(m, len(f) - 1)
        g.append(-g0 * sum(map(mul, f[1:hi + 1], g[m - hi:m][::-1])))
    return g


def _exp(c, n: int) -> list:
    """The first n coefficients of exp(L), where c = z*L' (so c[0] = 0):
    m*e_m = sum_{k=1}^{m} c_k*e_{m-k}."""
    e = [1]
    for m in range(1, n):
        hi = min(m, len(c) - 1)
        e.append(_div(sum(map(mul, c[1:hi + 1], e[m - hi:m][::-1])), m,
                      f"exp coefficient of z^{m}"))
    return e


def _sqrt(f, n: int) -> list:
    """The first n coefficients of sqrt(f) for f[0] = 1:
    2*s_m = f_m - sum_{k=1}^{m-1} s_k*s_{m-k}."""
    s = [1]
    for m in range(1, n):
        s.append(_div(f[m] - sum(map(mul, s[1:m], s[m - 1:0:-1])), 2,
                      f"square-root coefficient of z^{m}"))
    return s


def _newton(step, n: int) -> list:
    """Precision-doubling loop: ``step(y, h, p)`` lifts y, correct to h
    coefficients, to p <= 2h.  Starts from the zero constant term."""
    y, h = [0], 1
    while h < n:
        p = min(2 * h, n)
        y = step(y + [0] * (p - h), h, p)
        h = p
    return y


def _term(k: int, n: int, c: int = 1) -> list:
    out = [0] * n
    if k < n:
        out[k] = c
    return out


# ---------------------------------------------------------------------------
# Solvers.

def _quadratic(w: list, ell: int, order: int) -> list:
    # B = (L - sqrt(D)) / (2*w) with L = 1 - z^ell - w and D = L^2 - 4*w*z^ell.
    # w = z^2*v with v_0 = d, so the numerator is read to order + 2 and
    # b_m = (num_{m+2}/2 - sum_{k>=1} v_k*b_{m-k}) / d, term by term.
    n = order + 3
    lin = _add([1], _term(ell, n, -1), [-c for c in w], n=n)
    shifted = [0] * ell + [4 * c for c in w[:n - ell]]  # 4*w*z^ell
    disc = [a - b for a, b in zip(_mul(lin, lin, n), shifted)]
    num = [a - b for a, b in zip(lin, _sqrt(disc, n))]
    if num[0] or num[1]:
        raise SelfCheckError("quadratic-formula numerator not divisible by z^2")
    v, b = w[2:], []
    for m in range(order + 1):
        b.append(_div(num[m + 2] - 2 * sum(map(mul, v[1:m + 1], b[::-1])), 2 * v[0],
                      f"quadratic-formula coefficient of z^{m}"))
    # substituted back: Q(B) = B*(w*B + w + z^ell - 1) + z^ell = 0
    n = order + 1
    if any(_add(_mul(b, _add(_mul(w, b, n), w, _term(ell, n), [-1], n=n), n),
                _term(ell, n), n=n)):
        raise SelfCheckError("quadratic-formula solution does not satisfy the quadratic")
    return b


def closed_form_free(d: int, ell: int, order: int) -> LengthSequence:
    """``series_for(Regime.FREE, d, ell, order)``, kept under this name only
    because the benchmark (``perfbench/worker.py``) calls it."""
    return series_for(Regime.FREE, d, ell, order)


def _multiset_newton(atom: list, w: list, n: int) -> list:
    # Y solves 1 + Y = exp(sum_{j>=1} Bbar(z^j)/j) with Bbar = atom + w*Y.
    def euler_exp(y, p):
        bbar = _add(atom, _mul(w, y, p), n=p)
        c = [0] * p  # z*d/dz of sum_j Bbar(z^j)/j: c_m = sum_{k|m} k*bbar_k
        for k in range(1, p):
            if bbar[k]:
                kb = k * bbar[k]
                for m in range(k, p, k):
                    c[m] += kb
        return _exp(c, p)

    def step(y, h, p):
        # y is exact below z^h, so the j >= 2 terms are exact below z^(2h)
        e = euler_exp(y, p)
        resid = _add([1], y, [-x for x in e], n=p)
        slope = _add([1], [-x for x in _mul(w, e, p - h)], n=p - h)
        delta = _mul(resid, _inv(slope, p - h), p)
        return [a - b for a, b in zip(y, delta)]

    y = _newton(step, n)
    if _add([1], y, n=n) != euler_exp(y, n):
        raise SelfCheckError("Newton solution does not satisfy the exp-log equation")
    return y


def euler_exp_log(atom, weight, order: int) -> tuple[int, ...]:
    """Coefficients of z^0..z^order, as a tuple of ints, of the solution B
    of the multiset construction 1 + B = exp(sum_{j>=1} Bbar(z^j)/j), with
    Bbar = atom + weight*B.

    ``atom`` and ``weight`` are integer coefficient lists, each with zero
    constant term: the atom series of a monomial is the indeterminate z^ell
    (``atom``) plus one unary layer over a monomial (``weight`` times B)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if not all(isinstance(c, int) for c in (*atom, *weight)):
        raise ValueError("atom and weight must be lists of integers")
    if any(atom[:1]) or any(weight[:1]):
        raise ValueError("atom and weight must have zero constant term")
    return tuple(_multiset_newton(atom, weight, order + 1))


def series_for(regime: Regime, d: int, ell: int, order: int) -> LengthSequence:
    """Length-graded series of ``regime`` to ``order``, as the
    :class:`counting.LengthSequence` whose ``values[n]``, the coefficient of
    z^n, counts the monomials whose bracketed word has length n.

    With w the weight of one unary layer (d*z^2 for free operators,
    1 - (1-z^2)^d for commuting ones) and the atoms Bbar = z^ell + w*B, B is
    the solution with zero constant term of

    * the quadratic B = z^ell + z^ell*B + w*(B + B^2), that is
      1 + B = 1/(1 - Bbar), when the product is noncommutative (free, c);
    * the multiset construction 1 + B = exp(sum_{j>=1} Bbar(z^j)/j) of
      :func:`euler_exp_log` when the product is commutative (m, cm).

    The quadratic is solved by its formula, the multiset construction by
    precision-doubling Newton iteration, both over the integers."""
    if d < 1 or ell < 1:
        raise ValueError("d and ell must be >= 1")
    if order < ell:
        raise ValueError("order must be at least ell")
    # the quadratic formula divides by w = d*z^2 + ..., so w is read to order + 2
    form = layer_lengths(regime.unary_commute, d, order + 2)  # one layer of labels
    w = [form.get(k, 0) for k in range(order + 3)]
    b = (_multiset_newton(_term(ell, order + 1), w, order + 1) if regime.mult_commute
         else _quadratic(w, ell, order))
    return LengthSequence(regime, d, ell, tuple(b))
