"""Exact counting of multi-operator monomials in all four regimes.

Multigraded counts are indexed by the degree ``r`` (occurrences of the
indeterminate) and the multiplicity vector ``s`` (per-operator occurrence
counts).  Length-graded sequences collect all (r, s) with
``ell*r + 2*|s| == n``.

Everything is computed over Python's arbitrary-precision integers; internal
divisions (Narayana, Euler-transform recurrences) are checked to be exact
and raise :class:`SelfCheckError` otherwise, since a failure there means a
bug rather than bad input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian

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


def count_free(d: int, r: int, s) -> int:
    """Monomials of degree r, multiplicity s, nothing commuting: the
    multinomial refinement of the one-operator Narayana count."""
    s = _check_args(d, r, s)
    k = sum(s)
    return multinomial(s) * narayana(r + k, k)


# ---------------------------------------------------------------------------
# Commuting unary operators (noncommutative product).

@lru_cache(maxsize=None)
def _signed_indicators(d: int, commuting: bool) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # Inclusion-exclusion terms for one layer of unary labels: when the
    # operators commute the layer is a nonempty label *set* (indicator
    # vectors over nonempty subsets, alternating signs); otherwise a single
    # label (unit vectors, positive signs).
    if not commuting:
        return tuple((1, tuple(1 if j == i else 0 for j in range(d)))
                     for i in range(d))
    terms = []
    for mask in range(1, 1 << d):
        e = tuple((mask >> i) & 1 for i in range(d))
        sign = -1 if sum(e) % 2 == 0 else 1
        terms.append((sign, e))
    return tuple(terms)


def _box(s):
    return cartesian(*(range(si + 1) for si in s))


@lru_cache(maxsize=None)
def _a_comm_unary(d: int, r: int, s: tuple[int, ...]) -> int:
    if r <= 0 or any(si < 0 for si in s):
        return 0
    if r == 1:
        return 1
    total = _a_comm_unary(d, r - 1, s)
    for sign, e in _signed_indicators(d, True):
        s2 = tuple(si - ei for si, ei in zip(s, e))
        if any(si < 0 for si in s2):
            continue
        term = _a_comm_unary(d, r, s2)
        for i in range(1, r):
            for alpha in _box(s2):
                left = _a_comm_unary(d, i, alpha)
                if left:
                    rest = tuple(si - ai for si, ai in zip(s2, alpha))
                    term += left * _a_comm_unary(d, r - i, rest)
        total += sign * term
    return total


def count_comm_unary(d: int, r: int, s) -> int:
    """Canonical monomials (weakly increasing unary chains) of degree r and
    multiplicity s.  Degree 1 always counts exactly one monomial."""
    s = _check_args(d, r, s)
    return _a_comm_unary(d, r, s)


# ---------------------------------------------------------------------------
# Commutative product: multiset-of-atoms decomposition, so the counts obey
# an Euler-transform recurrence driven by the atom counts.

@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    out = [j for j in range(1, n + 1) if n % j == 0]
    return tuple(out)


def _euler_abar(commuting: bool, d: int, r: int, s: tuple[int, ...]) -> int:
    # atoms: the indeterminate, or one unary layer over a general monomial
    val = 1 if (r == 1 and not any(s)) else 0
    for sign, e in _signed_indicators(d, commuting):
        s2 = tuple(si - ei for si, ei in zip(s, e))
        if any(si < 0 for si in s2):
            continue
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
                rest = tuple(si - ai for si, ai in zip(s, alpha))
                total += c * _euler_a(commuting, d, r - j, rest)
    q, rem = divmod(total, r)
    if rem:
        raise SelfCheckError(
            f"multiset recurrence not divisible by r={r} at s={s} (d={d})")
    return q


def count_comm_mult(d: int, r: int, s) -> int:
    """Monomials up to commutativity of the product (unary operators free)."""
    s = _check_args(d, r, s)
    return _euler_a(False, d, r, s)


def count_comm_both(d: int, r: int, s) -> int:
    """Monomials up to commutativity of both the product and the operators."""
    s = _check_args(d, r, s)
    return _euler_a(True, d, r, s)


_COUNTERS = {
    Regime.FREE: count_free,
    Regime.COMM_UNARY: count_comm_unary,
    Regime.COMM_MULT: count_comm_mult,
    Regime.COMM_BOTH: count_comm_both,
}


def count(regime: Regime, d: int, r: int, s) -> int:
    return _COUNTERS[regime](d, r, s)


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


def _free_values_recurrence(d: int, ell: int, n_max: int) -> list[int]:
    b = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        v = 1 if n == ell else 0
        if n - ell >= 1:
            v += b[n - ell]
        if n - 2 >= 1:
            v += d * b[n - 2]
        v += d * sum(b[i] * b[n - 2 - i] for i in range(1, n - 2))
        b[n] = v
    return b


def _comm_unary_values(d: int, ell: int, n_max: int) -> list[int]:
    b = [0] * (n_max + 1)
    if ell <= n_max:
        b[ell] = 1
    for n in range(ell + 1, n_max + 1):
        v = b[n - ell] if n - ell >= 1 else 0
        for j in range(1, min(d, n // 2) + 1):
            sign = 1 if j % 2 == 1 else -1
            t = b[n - 2 * j] if n - 2 * j >= 1 else 0
            t += sum(b[i] * b[n - 2 * j - i] for i in range(1, n - 2 * j))
            v += sign * math.comb(d, j) * t
        b[n] = v
    return b


def _euler_values(commuting: bool, d: int, ell: int, n_max: int) -> list[int]:
    # one unary layer contributes these (coefficient, length-shift) pairs
    if commuting:
        layer = [((1 if j % 2 == 1 else -1) * math.comb(d, j), 2 * j)
                 for j in range(1, d + 1)]
    else:
        layer = [(d, 2)]
    b = [0] * (n_max + 1)
    bbar = [0] * (n_max + 1)
    c = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        v = 1 if n == ell else 0
        for coeff, shift in layer:
            if n - shift >= 1:
                v += coeff * b[n - shift]
        bbar[n] = v
        c[n] = sum(k * bbar[k] for k in _divisors(n))
        total = c[n] + sum(c[k] * b[n - k] for k in range(1, n))
        q, rem = divmod(total, n)
        if rem:
            raise SelfCheckError(
                f"Euler length recurrence not divisible by n={n} "
                f"(d={d}, ell={ell}, commuting={commuting})")
        b[n] = q
    return b


def length_sequence(regime: Regime, d: int, ell: int, n_max: int) -> LengthSequence:
    """Length-graded counts for 1 <= n <= n_max.

    The free regime is computed by two independent routes (the closed
    Narayana sum and the quadratic recurrence) which must agree.
    """
    if d < 1 or ell < 1 or n_max < 1:
        raise ValueError("d, ell and n_max must all be >= 1")
    if regime is Regime.FREE:
        values = _free_values_recurrence(d, ell, n_max)
        closed = free_length_closed_table(d, ell, n_max)
        for n in range(1, n_max + 1):
            if closed[n] != values[n]:
                raise SelfCheckError(
                    f"free length count mismatch at n={n}: "
                    f"closed sum {closed[n]} vs recurrence {values[n]}")
    elif regime is Regime.COMM_UNARY:
        values = _comm_unary_values(d, ell, n_max)
    else:
        values = _euler_values(regime is Regime.COMM_BOTH, d, ell, n_max)
    if ell % 2 == 0 and any(values[n] for n in range(1, n_max + 1, 2)):
        raise SelfCheckError("even indeterminate length but odd-length count nonzero")
    if ell <= n_max and values[ell] != 1:
        raise SelfCheckError(f"count at the minimal length {ell} is not 1")
    return LengthSequence(regime, d, ell, tuple(values))
