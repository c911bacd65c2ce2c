"""Exact counting of multi-operator monomials in all four regimes.

The regimes come from two independent switches, each stated once:

* the unary layer (``Regime.unary_commute``): one step wraps a subterm in a
  single label, or, when the operators commute, in a nonempty label set
  taken by inclusion-exclusion.  Its weight, w = d*z^2 or 1 - (1 - z^2)^d,
  is written only in the section "The unary layer" below, in the three
  forms its readers need: signed indicator vectors (multigraded
  recurrences), a length form (length recurrences, the series engine) and
  w(z) in product form (the growth roots);
* the product (``Regime.mult_commute``): a monomial is a sequence of atoms,
  B = z^ell*(1 + B) + w*(B + B^2), or a multiset of atoms, counted by the
  Euler transform.  An atom is the indeterminate or a layer over a monomial.

The free regime answers by its closed form, the multinomial refinement of
the Narayana numbers; its sequence recurrence is a second route.

Multigraded counts are indexed by the degree ``r`` (occurrences of the
indeterminate) and the multiplicity vector ``s`` (per-operator occurrence
counts); length-graded sequences collect all (r, s) with
``ell*r + 2*|s| == n``.  Everything is exact integer arithmetic; internal
divisions (Narayana, Euler-transform recurrences) are checked to be exact
and raise :class:`SelfCheckError` otherwise, since a failure there means a
bug rather than bad input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian
from operator import mul

from .monomial import Regime


class SelfCheckError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def narayana(n: int, k: int) -> int:
    """N(n, k) = C(n, k) * C(n, k+1) / n, for 0 <= k <= n-1."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"narayana requires 0 <= k <= n-1, got ({n}, {k})")
    q, rem = divmod(math.comb(n, k) * math.comb(n, k + 1), n)
    if rem:
        raise SelfCheckError(f"narayana({n},{k}) division not exact")
    return q


def check_symmetry_a1(order: int) -> bool:
    """Coefficient symmetry of the one-operator bivariate count: the count
    at degree r with k operator slots equals the count at degree k+1 with
    r-1 slots.  Checked over all total orders r + k <= order."""
    if order < 2:
        raise ValueError("order must be >= 2")
    for r in range(1, order + 1):
        for k in range(0, order - r + 1):
            if narayana(r + k, k) != narayana(r + k, r - 1):
                return False
    return True


def multinomial(s) -> int:
    """|s|! / (s_1! ... s_d!)."""
    total, out = 0, 1
    for si in s:
        total += si
        out *= math.comb(total, si)
    return out


def _check_args(d: int, r: int, s) -> tuple[int, ...]:
    s = tuple(s)
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(s) != d:
        raise ValueError(f"multiplicity vector has length {len(s)}, expected {d}")
    if r < 1:
        raise ValueError("degree r must be >= 1")
    if any(si < 0 for si in s):
        raise ValueError("multiplicities must be nonnegative")
    return s


def _box(s):
    return cartesian(*(range(si + 1) for si in s))


def _sub(s, t) -> tuple[int, ...]:
    return tuple(si - ti for si, ti in zip(s, t))


# ---------------------------------------------------------------------------
# The unary layer.  ``commuting`` is Regime.unary_commute; the caches are
# keyed by plain bools and ints, since hashing a Regime runs in Python.

@lru_cache(maxsize=None)
def layer_indicators(commuting: bool, d: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sign, e) pairs of one layer in the multigraded grading: the d unit
    vectors with sign +1, or the indicator vectors of the nonempty label
    subsets with sign (-1)^(|e|+1)."""
    if not commuting:
        return tuple((1, tuple(int(j == i) for j in range(d))) for i in range(d))
    return tuple((1 if sum(e) % 2 else -1, e)
                 for e in cartesian((0, 1), repeat=d) if any(e))


def layer_lengths(commuting: bool, d: int, n_max: int) -> dict[int, int]:
    """{length: coefficient} of one layer up to length n_max: {2: d}, or
    {2j: (-1)^(j+1) C(d, j)} from 1 - (1 - z^2)^d, one binomial per term."""
    if not commuting:
        return {2: d}
    return {2 * j: (-1) ** (j + 1) * math.comb(d, j)
            for j in range(1, min(d, n_max // 2) + 1)}


def layer_weight(commuting: bool, d: int, z):
    """w(z) in product form, which keeps its precision at large d."""
    return 1 - (1 - z * z) ** d if commuting else d * z * z


# ---------------------------------------------------------------------------
# Multigraded counts.  Noncommutative product: B = x*(1 + B) + w*(B + B^2),
# where x marks the degree and w is the layer.

@lru_cache(maxsize=None)
def _sequence_a(commuting: bool, d: int, r: int, s: tuple[int, ...]) -> int:
    # coefficient of x^r u^s in B
    if r < 1:
        return 0
    total = 1 if r == 1 and not any(s) else 0
    total += _sequence_a(commuting, d, r - 1, s)
    for sign, e in layer_indicators(commuting, d):
        s2 = _sub(s, e)
        if min(s2) >= 0:
            total += sign * _sequence_p(commuting, d, r, s2)
    return total


@lru_cache(maxsize=None)
def _sequence_p(commuting: bool, d: int, r: int, s: tuple[int, ...]) -> int:
    # coefficient of x^r u^s in B + B^2
    total = _sequence_a(commuting, d, r, s)
    for i in range(1, r):
        for alpha in _box(s):
            left = _sequence_a(commuting, d, i, alpha)
            if left:
                total += left * _sequence_a(commuting, d, r - i, _sub(s, alpha))
    return total


# Commutative product: multiset-of-atoms decomposition, so the counts obey
# an Euler-transform recurrence driven by the atom counts.

@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    out = [j for j in range(1, n + 1) if n % j == 0]
    return tuple(out)


def _euler_abar(commuting: bool, d: int, r: int, s: tuple[int, ...]) -> int:
    # atoms: the indeterminate, or one unary layer over a general monomial
    val = 1 if (r == 1 and not any(s)) else 0
    for sign, e in layer_indicators(commuting, d):
        s2 = _sub(s, e)
        if min(s2) >= 0:
            val += sign * _euler_a(commuting, d, r, s2)
    return val


@lru_cache(maxsize=None)
def _euler_c(commuting: bool, d: int, r: int, s: tuple[int, ...]) -> int:
    g = math.gcd(r, *s) if s else r
    total = 0
    for j in _divisors(g):
        total += (r // j) * _euler_abar(commuting, d, r // j,
                                        tuple(si // j for si in s))
    return total


@lru_cache(maxsize=None)
def _euler_a(commuting: bool, d: int, r: int, s: tuple[int, ...]) -> int:
    if r < 0 or any(si < 0 for si in s):
        return 0
    if r == 0:
        return 1 if not any(s) else 0
    total = 0
    for j in range(1, r + 1):
        for alpha in _box(s):
            c = _euler_c(commuting, d, j, alpha)
            if c:
                total += c * _euler_a(commuting, d, r - j, _sub(s, alpha))
    q, rem = divmod(total, r)
    if rem:
        raise SelfCheckError(
            f"multiset recurrence not divisible by r={r} at s={s} (d={d})")
    return q


def count(regime: Regime, d: int, r: int, s) -> int:
    """Monomials of degree r and multiplicity s.  The product switch picks
    the multiset or the sequence recurrence and the unary switch its layer;
    the free regime answers by its closed form."""
    s = _check_args(d, r, s)
    if regime.mult_commute:
        return _euler_a(regime.unary_commute, d, r, s)
    if regime.unary_commute:
        # fill the box in order, so each step finds its terms cached and
        # the recursion stays shallow at any size
        for r2 in range(1, r + 1):
            for s2 in _box(s):
                _sequence_a(True, d, r2, s2)
        return _sequence_a(True, d, r, s)
    k = sum(s)
    return multinomial(s) * narayana(r + k, k)


def count_free(d: int, r: int, s) -> int:
    """Monomials of degree r, multiplicity s, nothing commuting: the
    multinomial refinement of the one-operator Narayana count."""
    return count(Regime.FREE, d, r, s)


def count_comm_unary(d: int, r: int, s) -> int:
    """Canonical monomials (weakly increasing unary chains) of degree r and
    multiplicity s.  Degree 1 always counts exactly one monomial."""
    return count(Regime.COMM_UNARY, d, r, s)


def count_comm_mult(d: int, r: int, s) -> int:
    """Monomials up to commutativity of the product (unary operators free)."""
    return count(Regime.COMM_MULT, d, r, s)


def count_comm_both(d: int, r: int, s) -> int:
    """Monomials up to commutativity of both the product and the operators."""
    return count(Regime.COMM_BOTH, d, r, s)


# ---------------------------------------------------------------------------
# Length-graded sequences: n = ell*r + 2*|s|.

@dataclass(frozen=True)
class LengthSequence:
    """Counts by word length, values[n] for 1 <= n <= n_max (values[0] = 0)."""

    regime: Regime
    d: int
    ell: int
    values: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def value(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"length {n} outside computed range 1..{self.n_max}")
        return self.values[n]

    def table_terms(self, count: int | None = None) -> list[int]:
        """The naturally indexed terms: values at 2, 4, 6, ... when ell is
        even (odd lengths are empty then), values at 1, 2, 3, ... otherwise."""
        step = 2 if self.ell % 2 == 0 else 1
        terms = [self.values[n] for n in range(step, self.n_max + 1, step)]
        return terms if count is None else terms[:count]


def free_length_closed(d: int, ell: int, n: int) -> int:
    """Direct Narayana sum for the free count at word length n."""
    total = 0
    for k in range(0, (n - ell) // 2 + 1):
        if (n - 2 * k) % ell == 0:
            r = (n - 2 * k) // ell
            total += d ** k * narayana(r + k, k)
    return total


def free_length_closed_table(d: int, ell: int, n_max: int) -> list[int]:
    """:func:`free_length_closed` for every 0 <= n <= n_max in one pass.

    Along each degree r the Narayana numbers are stepped by
    N(r+k, k) = N(r+k-1, k-1) * (r+k-1)(r+k) / (k(k+1)), starting from
    N(r, 0) = 1; every division is checked to be exact."""
    table = [0] * (n_max + 1)
    for r in range(1, n_max // ell + 1):
        nar = weight = 1  # N(r+k, k) and d^k
        for k in range((n_max - ell * r) // 2 + 1):
            if k:
                nar, rem = divmod(nar * (r + k - 1) * (r + k), k * (k + 1))
                if rem:
                    raise SelfCheckError(f"Narayana step to N({r + k},{k}) not exact")
                weight *= d
            table[ell * r + 2 * k] += weight * nar
    return table


def _sequence_values(layer: dict[int, int], ell: int, n_max: int) -> list[int]:
    # B = z^ell*(1 + B) + w*(B + B^2); p holds the coefficients of B + B^2,
    # each formed once
    b = [0] * (n_max + 1)
    p = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        v = 1 if n == ell else 0
        if n > ell:
            v += b[n - ell]
        for shift, coeff in layer.items():
            if shift < n:
                v += coeff * p[n - shift]
        b[n] = v
        p[n] = v + sum(map(mul, b[1:n], b[n - 1:0:-1]))
    return b


def _euler_values(layer: dict[int, int], ell: int, n_max: int) -> list[int]:
    # 1 + B = exp(sum_j Bbar(z^j)/j) with atoms Bbar = z^ell + w*B
    b = [0] * (n_max + 1)
    bbar = [0] * (n_max + 1)
    c = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        v = 1 if n == ell else 0
        for shift, coeff in layer.items():
            if shift < n:
                v += coeff * b[n - shift]
        bbar[n] = v
        c[n] = sum(k * bbar[k] for k in _divisors(n))
        q, rem = divmod(c[n] + sum(map(mul, c[1:n], b[n - 1:0:-1])), n)
        if rem:
            raise SelfCheckError(
                f"Euler length recurrence not divisible by n={n} (ell={ell})")
        b[n] = q
    return b


def length_sequence(regime: Regime, d: int, ell: int, n_max: int) -> LengthSequence:
    """Length-graded counts for 1 <= n <= n_max.

    The free regime is computed by two independent routes (the closed
    Narayana sum and the quadratic recurrence) which must agree.
    """
    if d < 1 or ell < 1 or n_max < 1:
        raise ValueError("d, ell and n_max must all be >= 1")
    layer = layer_lengths(regime.unary_commute, d, n_max)
    solve = _euler_values if regime.mult_commute else _sequence_values
    values = solve(layer, ell, n_max)
    if regime is Regime.FREE:
        closed = free_length_closed_table(d, ell, n_max)
        for n in range(1, n_max + 1):
            if closed[n] != values[n]:
                raise SelfCheckError(
                    f"free length count mismatch at n={n}: "
                    f"closed sum {closed[n]} vs recurrence {values[n]}")
    if ell % 2 == 0 and any(values[n] for n in range(1, n_max + 1, 2)):
        raise SelfCheckError("even indeterminate length but odd-length count nonzero")
    if ell <= n_max and values[ell] != 1:
        raise SelfCheckError(f"count at the minimal length {ell} is not 1")
    return LengthSequence(regime, d, ell, tuple(values))


def table_prefix(regime: Regime, d: int, ell: int, count: int, offset: int = 1,
                 raw: bool = False) -> list[int]:
    """``count`` terms of the table from position ``offset`` (0 or 1).

    Position 0 is the empty object, with value 1.  Position p >= 1 is the
    count at length 2p when ell is even (odd lengths are empty then) and at
    length p otherwise, or at length p whatever ell when ``raw``."""
    if count < 1:
        raise ValueError("the number of terms must be >= 1")
    if offset not in (0, 1):
        raise ValueError("offset must be 0 or 1")
    step = 1 if raw or ell % 2 else 2
    last = offset + count - 1
    values = length_sequence(regime, d, ell, step * max(last, 1)).values
    return [1 if pos == 0 else values[step * pos] for pos in range(offset, last + 1)]
