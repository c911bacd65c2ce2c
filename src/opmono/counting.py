"""Exact counting of multi-operator monomials in all four regimes.

The regimes come from two independent switches, each stated once:

* the unary layer (``Regime.unary_commute``): one step wraps a subterm in a
  single label, or, when the operators commute, in a nonempty label set
  taken by inclusion-exclusion.  Its weight, w = d*z^2 or 1 - (1 - z^2)^d,
  is written only in the section "The unary layer" below, in the forms its
  readers need: one label at a time (multigraded recurrences, with signed
  indicator vectors as the reference), a length form (length recurrences,
  the series engine) and w(z) in product form (the growth roots);
* the product (``Regime.mult_commute``) picks only the step from atoms to
  monomials.  An atom is the indeterminate or a layer over a monomial,
  Bbar = x + w*B, stated once per grading; a sequence of atoms gives
  1 + B = 1/(1 - Bbar), a multiset the exp-log (Euler) transform
  1 + B = exp(sum_j Bbar(x^j)/j).

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
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, combinations, product as cartesian
from operator import floordiv, itemgetter, mul, sub

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
    return all(narayana(r + k, k) == narayana(r + k, r - 1)
               for r in range(1, order + 1) for k in range(order - r + 1))


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
    if min(s) < 0:
        raise ValueError("multiplicities must be nonnegative")
    return s


def _box(s):
    return cartesian(*(range(si + 1) for si in s))


# ---------------------------------------------------------------------------
# The unary layer.  ``commuting`` is Regime.unary_commute; the caches are
# keyed by plain bools and ints, since hashing a Regime runs in Python.
#
# The multigraded counts apply it one label at a time.  The layer over a at
# s is the sum, over the labels k that s uses, of L_k(s - e_k): L_k = a for
# noncommuting labels, and for commuting ones, since
# w = 1 - prod_i (1 - u_i) = sum_k u_k prod_{i<k} (1 - u_i), L_k = D_k, the
# backward difference of a over the labels before k.  D_0 = a and
# D_{k+1}(s) = D_k(s) - t_k, where t_k = [s_k >= 1] D_k(s - e_k) is the very
# term the layer reads, so a cell costs d terms and not 2^|support|.

def layer_indicators(commuting: bool, d: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sign, e) pairs of one layer in the multigraded grading: the d unit
    vectors with sign +1, or the indicator vectors of the nonempty label
    subsets with sign (-1)^(|e|+1).  The reference statement of the layer
    that :func:`count` applies one label at a time."""
    sizes = range(1, d + 1) if commuting else (1,)
    return tuple(((-1) ** (k + 1), tuple(int(i in t) for i in range(d)))
                 for k in sizes for t in combinations(range(d), k))


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
# Multigraded counts.  x marks the degree and u^s the multiplicities; an atom
# is the indeterminate or one layer over a monomial, Bbar = x + w*B.  A
# sequence of atoms gives 1 + B = 1/(1 - Bbar), so a_r = sum_j abar_j*a_{r-j};
# a multiset gives the Euler transform, r*a_r = sum_j c_j*a_{r-j} with
# c_r = sum_{j | gcd(r, s)} (r/j)*abar(r/j, s/j).  Here a is the coefficient
# of 1 + B (a_0 = [s = 0]); ``multiset`` is Regime.mult_commute and d = len(s).
# Cells are kept in lists by an id per s, so a convolution over the box of s
# is one gather per operand.  A stored cell implies its whole lower box, so
# when (r - 1, s) and every (r, s - e_k) are stored, (r, s) is the only
# missing cell of its box, and it is filled alone after d + 1 lookups.

@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    small = [j for j in range(1, math.isqrt(n) + 1) if n % j == 0]
    return tuple(small + [n // j for j in reversed(small) if j * j != n])


# The most terms one fill may read (see _box_work); count raises
# WorkLimitExceeded before any work above it.  Python 3.11 on two cores reads
# about 3 million terms a second; dense cells take about 30*d bytes each.
WORK_LIMIT = 10 ** 7
# The most bits the free closed form's answer may have, by an upper bound
# known before any work; 450,000 bits take about 3 s, as WORK_LIMIT terms do.
FREE_BITS_LIMIT = 450_000


class WorkLimitExceeded(RuntimeError):
    """A request whose predicted work is above its cap: a documented
    failure (the CLI exits 3), not a bug."""


def _box_work(r: int, s: tuple[int, ...]) -> int:
    # d layer terms in each of the r*prod(s_i + 1) cells of the box (r, s),
    # and C(r, 2)*prod C(s_i + 2, 2) convolution terms
    cells, terms = len(s) * r, r * (r - 1) // 2
    for si in s:
        cells *= si + 1
        terms *= (si + 1) * (si + 2) // 2
    return cells + terms


def _check_work(r: int, s: tuple[int, ...], work: int) -> None:
    if work > WORK_LIMIT:
        raise WorkLimitExceeded(f"count at r={r}, s={s} would read {work} terms, "
                                f"above the cap {WORK_LIMIT}")


@lru_cache(maxsize=None)
def _cells(commuting: bool, multiset: bool, d: int) -> list:
    # one family's store, grown in place.  Entry 0 holds the ids, given to
    # each s on first sight, and by id the ids of s - e_k and the gather of
    # the box of s, built at its first fill at a degree r > 1.  Id 0 names
    # every s with a negative entry, whose cells hold 0.  Entry r >= 1 holds
    # lists by id of a, the atoms, c (the atoms for a sequence) and, for
    # commuting labels, (D_0, ..., D_{d-1}); None is a cell not stored, and
    # all lists double together.  A cell enters a last, once every cell
    # below it is stored, so a stored cell implies its whole lower box.
    return [({}, [()], [None])]


def _new_id(levels: list, s: tuple[int, ...], preds: list) -> int:
    ids, preds_of, _ = levels[0]
    i = ids[s] = len(ids) + 1
    if i == len(preds_of):
        for x in {id(x): x for level in levels for x in level if type(x) is list}.values():
            x += [None] * i
    preds_of[i] = preds
    return i


def _fill(levels: list, commuting: bool, multiset: bool, r: int, s: tuple[int, ...],
          i: int) -> None:
    a_r, atoms_r, c_r, diff_r = levels[r]
    ids, preds, gets = levels[0]
    terms = ([diff_r[p][k] for k, p in enumerate(preds[i])] if commuting
             else map(a_r.__getitem__, preds[i]))
    c = abar = (1 if r == 1 and not any(s) else 0) + sum(terms)
    if multiset:
        c = r * abar
        for j in _divisors(math.gcd(r, *s))[1:]:
            c += (r // j) * levels[r // j][1][ids[tuple(si // j for si in s)]]
    # the term j = r meets a_0 = [s = 0], so it is c alone; the box of s
    # read backwards lists s - alpha for each alpha in order
    total = c
    if r > 1:
        get = gets[i]
        if get is None:  # itemgetter(i) returns no tuple, so one cell is a slice
            box = list(map(ids.__getitem__, _box(s)))
            gets[i] = get = itemgetter(*box) if box[1:] else itemgetter(slice(i, i + 1))
        for j in range(1, r):
            total += sum(map(mul, get(levels[j][2]), reversed(get(levels[r - j][0]))))
    if multiset:
        total, rem = divmod(total, r)
        if rem:
            raise SelfCheckError(
                f"multiset recurrence not divisible by r={r} at s={s} (d={len(s)})")
        c_r[i] = c
    atoms_r[i] = abar
    if commuting:
        diff_r[i] = tuple(accumulate(terms[:-1], sub, initial=total))
    a_r[i] = total


def _count(commuting: bool, multiset: bool, r: int, s: tuple[int, ...]) -> int:
    # a stored cell is read at once, a cell whose predecessors are stored is
    # filled alone, and otherwise the missing cells of the box (r, s) are
    # filled in order, s' in box order and r' ascending
    levels = _cells(commuting, multiset, len(s))
    ids, preds_of, _ = levels[0]
    i = ids.get(s)
    if r < len(levels):
        a_r = levels[r][0]
        if i is None:  # a new s; above degree 1 its (r - 1, s) is not stored
            preds = r == 1 and [ids.get(s[:k] + (sk - 1,) + s[k + 1:]) if sk else 0
                                for k, sk in enumerate(s)]
        elif a_r[i] is not None:
            return a_r[i]
        else:
            preds = (r == 1 or levels[r - 1][0][i] is not None) and preds_of[i]
        if preds and None not in preds and None not in map(a_r.__getitem__, preds):
            _check_work(r, s, len(s) + (r - 1) * math.prod([sk + 1 for sk in s]) if r > 1
                        else len(s))
            i = _new_id(levels, s, preds) if i is None else i
            _fill(levels, commuting, multiset, r, s, i)
            return a_r[i]
    _check_work(r, s, _box_work(r, s))
    while len(levels) <= r:  # at degree 1, a = atoms = c: one list holds all three
        blank = [None] * (len(preds_of) - 1)
        a = [0, *blank]
        atoms = a if len(levels) == 1 else [0, *blank]
        levels.append((a, atoms, [0, *blank] if multiset and len(levels) > 1 else atoms,
                       [(0,) * len(s), *blank] if commuting else None))
    # in the box of s, s2 - e_k sits prod(s_j + 1 for j > k) places before s2
    cells = list(_box(s))
    strides = [*accumulate([si + 1 for si in s], floordiv, initial=len(cells))][1:]
    box = []
    for n, s2 in enumerate(cells):
        i = ids.get(s2)
        if i is None:
            i = _new_id(levels, s2, [box[n - st] if sk else 0 for sk, st in zip(s2, strides)])
        box.append(i)
        for r2 in range(1, r + 1):
            if levels[r2][0][i] is None:
                _fill(levels, commuting, multiset, r2, s2, i)
    return levels[r][0][i]


def _free_bits(r: int, s: tuple[int, ...]) -> float:
    # an upper bound on the bit length of multinomial(s)*narayana(r + k, k),
    # as N(n, k) <= C(n, k)*C(n, k + 1): log2 of n!/prod(p!) over parts p
    # summing to n is at most sum p*log2(n/p), and p*log2(n/p) <= (n - p)*log2(e)
    k, bits = sum(s), 0.0
    try:
        for parts in (s, (k, r), (k + 1, r - 1)):
            n = sum(parts)
            for p in parts:
                if 0 < p < n:
                    diff = math.log2(n) - math.log2(p)
                    bits += p * diff if diff else (n - p) * math.log2(math.e)
    except OverflowError:  # a count far beyond any cap
        return math.inf
    return bits


def count(regime: Regime, d: int, r: int, s) -> int:
    """Monomials of degree r and multiplicity s.  The free regime answers by
    its closed form; every other regime reads the cell store of its family,
    filling a cell alone when the cells just below it are stored and the
    missing cells of the box (r, s) in order otherwise, so no call recurses.
    A request over ``WORK_LIMIT`` terms or ``FREE_BITS_LIMIT`` bits raises
    :class:`WorkLimitExceeded` before any work."""
    s = _check_args(d, r, s)
    if regime is Regime.FREE:
        bits = _free_bits(r, s)
        if bits > FREE_BITS_LIMIT:
            raise WorkLimitExceeded(f"the free count at r={r}, s={s} may have "
                                    f"{bits:.0f} bits, above the cap {FREE_BITS_LIMIT}")
        k = sum(s)
        return multinomial(s) * narayana(r + k, k)
    return _count(regime.unary_commute, regime.mult_commute, r, s)


# ---------------------------------------------------------------------------
# Length-graded sequences: n = ell*r + 2*|s|.

class LengthSequence(namedtuple("LengthSequence", "regime d ell values")):
    """Counts by word length, values[n] for 1 <= n <= n_max (values[0] = 0).

    The recurrences (:func:`length_sequence`) and the generating series
    (:func:`series.series_for`) both return one.  Immutable; equal only to a
    LengthSequence with equal fields."""

    __slots__ = ()

    # returns a bool: NotImplemented would let a plain tuple's == answer
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    # the names that perfbench/worker.py:165,177 reads on a series result;
    # the next change to the benchmark drops them
    order = n_max
    coeffs = property(lambda self: self.values)

    def value(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"length {n} outside computed range 1..{self.n_max}")
        return self.values[n]

    def table_terms(self) -> list[int]:
        """The naturally indexed terms: values at 2, 4, 6, ... when ell is
        even (odd lengths are empty then), values at 1, 2, 3, ... otherwise."""
        step = 2 if self.ell % 2 == 0 else 1
        return list(self.values[step::step])


def _free_closed_sums(d: int, ell: int, lo: int, hi: int) -> list[int]:
    # the free counts at word lengths lo..hi by the Narayana sum over
    # n = ell*r + 2k: each degree r starts from one narayana call and steps
    # N(r+k, k) = N(r+k-1, k-1) * (r+k-1)(r+k) / (k(k+1)), every division checked
    sums = [0] * (hi - lo + 1)
    for r in range(1, hi // ell + 1):
        k0 = max(0, (lo - ell * r + 1) // 2)
        nar, weight = narayana(r + k0, k0), d ** k0
        for k in range(k0, (hi - ell * r) // 2 + 1):
            if k > k0:
                nar, rem = divmod(nar * (r + k - 1) * (r + k), k * (k + 1))
                if rem:
                    raise SelfCheckError(f"Narayana step to N({r + k},{k}) not exact")
                weight *= d
            sums[ell * r + 2 * k - lo] += weight * nar
    return sums


def free_length_closed(d: int, ell: int, n: int) -> int:
    """Direct Narayana sum for the free count at word length n."""
    if d < 1 or ell < 1 or n < 1:
        raise ValueError("d, ell and n must all be >= 1")
    return _free_closed_sums(d, ell, n, n)[0]


def _length_values(layer: dict[int, int], ell: int, n_max: int, multiset: bool,
                   prefix=(1,), step: int = 1) -> list[int]:
    # atoms bbar = z^ell + w*b; a sequence gives b_n = sum_k bbar_k*b_{n-k},
    # a multiset n*b_n = sum_k c_k*b_{n-k} with c_n = sum_{k | n} k*bbar_k,
    # where b_0 = 1 stands for the 1 in 1 + B.  The terms of ``prefix`` are
    # kept; bbar and c are rebuilt over them, then the recurrence goes on.
    # Both rules commute with z -> z^2, so a caller may pass the layer, ell
    # and n_max all divided by ``step`` = 2 and read the result at t = z^2.
    b = list(prefix) + [0] * (n_max + 1 - len(prefix))
    bbar, c = [0] * (n_max + 1), [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        bbar[n] = (1 if n == ell else 0) + sum(coeff * b[n - shift]
                                               for shift, coeff in layer.items() if shift < n)
        if multiset:
            c[n] = sum(k * bbar[k] for k in _divisors(n))
        if n < len(prefix):
            continue
        if multiset:
            b[n], rem = divmod(sum(map(mul, c[1:n + 1], b[n - 1::-1])), n)
            if rem:
                raise SelfCheckError(
                    f"Euler length recurrence not divisible at word length "
                    f"{step * n} (ell={step * ell})")
        else:
            b[n] = sum(map(mul, bbar[1:n + 1], b[n - 1::-1]))
    return b


@lru_cache(maxsize=None)
def _length_table(commuting: bool, multiset: bool, d: int, ell: int) -> list[int]:
    # one family's checked counts on its lattice: b[m] is the count at word
    # length step*m, with step 2 when ell is even and 1 otherwise, and
    # b[0] = 1; length_sequence extends the list in place
    return [1]


def _extend_table(table: list[int], commuting: bool, multiset: bool, d: int,
                  ell: int, step: int, n_max: int) -> None:
    # the layer is truncated at n_max, so it is rebuilt for each extension
    layer = layer_lengths(commuting, d, n_max)
    if any(k % step for k in (ell, *layer)):
        raise SelfCheckError(
            f"length lattice step {step} does not divide ell={ell} and every layer shift")
    b = _length_values({k // step: v for k, v in layer.items()}, ell // step,
                       n_max // step, multiset, table, step)
    new = range(len(table), len(b))
    if not commuting and not multiset:  # only the new terms are summed
        lo = step * len(table)
        closed = _free_closed_sums(d, ell, lo, step * (len(b) - 1))
        for m in new:
            if closed[step * m - lo] != b[m]:
                raise SelfCheckError(
                    f"free length count mismatch at n={step * m}: "
                    f"closed sum {closed[step * m - lo]} vs recurrence {b[m]}")
    if ell // step in new and b[ell // step] != 1:
        raise SelfCheckError(f"count at the minimal length {ell} is not 1")
    table += b[len(table):]


def length_sequence(regime: Regime, d: int, ell: int, n_max: int) -> LengthSequence:
    """Length-graded counts for 1 <= n <= n_max.

    Each family (regime, d, ell) keeps one table, which every caller
    shares: :func:`table_prefix`, the growth estimate, the fixtures and the
    CLI.  A request within the table is a slice of it; a longer one goes on
    with the recurrence from the stored terms.  When ell is even every word
    length is even, so the recurrence runs in t = z^2 with ell and the layer
    shifts halved, and the odd lengths are zero by construction.  New terms
    are checked before they are stored: the free regime against the closed
    Narayana sum (a second, independent route), the multiset products by
    the exact Euler division, and every family by the count 1 at the
    minimal length ell.
    """
    if d < 1 or ell < 1 or n_max < 1:
        raise ValueError("d, ell and n_max must all be >= 1")
    commuting, multiset = regime.unary_commute, regime.mult_commute
    step = 2 if ell % 2 == 0 else 1
    table = _length_table(commuting, multiset, d, ell)
    if n_max // step >= len(table):
        _extend_table(table, commuting, multiset, d, ell, step, n_max)
    values = [0] * (n_max + 1)
    values[step::step] = table[1:n_max // step + 1]
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
