"""Exhaustive generation of canonical monomials: the ground truth that every
counting formula is checked against.

A monomial decomposes into atoms: a sequence of atoms when the product is
noncommutative, a multiset of atoms (kept sorted by canonical key) when it
commutes.  An atom is the indeterminate or a unary application; when the
unary operators commute, atoms are weakly increasing label chains over a
non-unary root (the indeterminate or a product of at least two atoms).
Generation recurses over this structure, so every emitted monomial is
already a canonical fixed point and no deduplication is needed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import counting
from .counting import _box, _sub
from .monomial import STAR, Monomial, Product, Regime, Star, Unary, canonical_key, factors


class EnumerationCapExceeded(RuntimeError):
    def __init__(self, predicted: int, cap: int):
        super().__init__(
            f"enumeration would produce {predicted} monomials, above the cap {cap}")
        self.predicted = predicted
        self.cap = cap


DEFAULT_CAP = 10 ** 7


def _wrap_chain(t, root: Monomial) -> Monomial:
    # weakly increasing labels from the outside in
    out = root
    for label in range(len(t), 0, -1):
        for _ in range(t[label - 1]):
            out = Unary(label, out)
    return out


@lru_cache(maxsize=None)
def _atoms(regime: Regime, d: int, r: int, s: tuple[int, ...]) -> tuple[Monomial, ...]:
    out: list[Monomial] = []
    if r == 1 and not any(s):
        out.append(STAR)
    if regime.unary_commute:
        for t in _box(s):
            if not any(t):
                continue
            for root in _monomials(regime, d, r, _sub(s, t)):
                if isinstance(root, Unary):
                    continue  # chains sit over non-unary roots only
                out.append(_wrap_chain(t, root))
    else:
        for i in range(d):
            if s[i] >= 1:
                s2 = tuple(si - 1 if j == i else si for j, si in enumerate(s))
                for child in _monomials(regime, d, r, s2):
                    out.append(Unary(i + 1, child))
    out.sort(key=canonical_key)
    return tuple(out)


@lru_cache(maxsize=None)
def _monomials(regime: Regime, d: int, r: int, s: tuple[int, ...]) -> tuple[Monomial, ...]:
    if r < 1:
        return ()
    if regime.mult_commute:
        out = _multiset_monomials(regime, d, r, s)
    else:
        out = _sequence_monomials(regime, d, r, s)
    out.sort(key=canonical_key)
    return tuple(out)


def _sequence_monomials(regime: Regime, d: int, r: int, s: tuple[int, ...]) -> list[Monomial]:
    out: list[Monomial] = []
    for r1 in range(1, r + 1):
        for s1 in _box(s):
            head = _atoms(regime, d, r1, s1)
            if not head:
                continue
            if r1 == r and s1 == s:
                out.extend(head)
            elif r1 < r:
                for rest in _monomials(regime, d, r - r1, _sub(s, s1)):
                    tail = factors(rest)
                    for a in head:
                        out.append(Product((a,) + tail))
    return out


def _multiset_monomials(regime: Regime, d: int, r: int, s: tuple[int, ...]) -> list[Monomial]:
    # all atoms that could be a factor, in canonical-key order
    cands: list[tuple[Monomial, int, tuple[int, ...]]] = []
    for r1 in range(1, r + 1):
        for s1 in _box(s):
            for a in _atoms(regime, d, r1, s1):
                cands.append((a, r1, s1))
    cands.sort(key=lambda item: canonical_key(item[0]))

    out: list[Monomial] = []
    picked: list[Monomial] = []

    # picks factors in weakly increasing candidate order; the recursion is
    # one level per factor, so its depth is at most r
    def choose(i: int, r_rem: int, s_rem: tuple[int, ...]) -> None:
        if r_rem == 0:
            if not any(s_rem):
                out.append(picked[0] if len(picked) == 1 else Product(tuple(picked)))
            return
        for j in range(i, len(cands)):
            a, r1, s1 = cands[j]
            if r1 <= r_rem and all(x <= y for x, y in zip(s1, s_rem)):
                picked.append(a)
                choose(j, r_rem - r1, _sub(s_rem, s1))
                picked.pop()

    choose(0, r, s)
    del choose  # break its self-reference, so cands is freed now, not by the cyclic GC
    return out


def enumerate_monomials(d: int, r: int, s, regime: Regime,
                        cap: int = DEFAULT_CAP) -> list[Monomial]:
    """All distinct canonical monomials of degree r and multiplicity s, in
    canonical-key order.

    The expected output size is predicted from the counting engine first;
    requests above ``cap`` raise :class:`EnumerationCapExceeded` instead of
    exhausting memory.
    """
    s = counting._check_args(d, r, s)
    predicted = counting.count(regime, d, r, s)
    if predicted > cap:
        raise EnumerationCapExceeded(predicted, cap)
    return list(_monomials(regime, d, r, s))


def count_by_length(d: int, ell: int, n: int, regime: Regime,
                    cap: int = DEFAULT_CAP) -> int:
    """Number of canonical monomials whose bracketed word has length n, by
    brute-force enumeration over all (r, s) with ell*r + 2*|s| == n."""
    if ell < 1 or n < 1:
        raise ValueError("ell and n must be >= 1")
    total = 0
    r = 1
    while ell * r <= n:
        rem = n - ell * r
        if rem % 2 == 0:
            k = rem // 2
            for s in compositions(k, d):
                total += len(enumerate_monomials(d, r, s, regime, cap=cap))
        r += 1
    return total


def compositions(k: int, d: int):
    """All d-tuples of nonnegative integers summing to k, in lexicographic
    order: stars and bars, with d - 1 bars placed among k + d - 1 slots."""
    if d < 1:
        raise ValueError("d must be >= 1")
    for bars in combinations(range(k + d - 1), d - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (k + d - 1,)))
