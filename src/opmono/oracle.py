"""Exhaustive generation of canonical monomials: the ground truth that every
counting formula is checked against.

A monomial decomposes into atoms: a sequence of atoms when the product is
noncommutative, a multiset of atoms (kept sorted by canonical key) when it
commutes.  An atom is the indeterminate or a unary application; when the
unary operators commute, atoms are weakly increasing label chains over a
non-unary root (the indeterminate or a product of at least two atoms).
Every monomial is built as a canonical fixed point, so no deduplication is
needed.

A cell is the tuple of monomials of one type (r, s) in canonical-key order:
its atoms, then its products.  One family (regime, d) is kept, each cell once;
a request for another family drops it.  :func:`enumerate_monomials` fills the
missing cells (r', s') <= (r, s) in order, r' ascending and s' in box order,
so a cell reads filled cells only and a deep chain costs no recursion.

No product is ever keyed.  Atoms come out in key order directly: the key of
Pi(c) is (1, i) followed by the key of c, so the atoms go label by label,
each over the child cell in its order.  With commuting labels a chain is its
outermost (smallest) label over a child that is a product, * or a chain
starting at that label or above, so each chain is built once, from the chain
one label shorter.  The key is a prefix code, so products compare as the
tuples of their factors' ranks, a rank being the position among the cell's
head atoms (all atoms of the types (r1, s1) with r1 < r), which are keyed
once per cell.  A sequence takes its heads in rank order, each followed by
the tails of the complementary cell sorted once by rank tuple.  A multiset
picks, for each weight type it uses, a multiset of that type's atoms by
``combinations_with_replacement``, one recursion level per type used (so at
most r deep), and its rank tuples are sorted.  No key is stored: a key
beside every stored monomial more than doubles the oracle's peak memory.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from operator import sub

from . import counting
from .counting import _box
from .monomial import STAR, Monomial, Product, Regime, Unary, canonical_key, factors


class EnumerationCapExceeded(counting.WorkLimitExceeded):
    def __init__(self, predicted: int, cap: int, what: str = "monomials"):
        super().__init__(
            f"enumeration would produce {predicted} {what}, above the cap {cap}")
        self.predicted = predicted
        self.cap = cap


DEFAULT_CAP = 10 ** 7


@lru_cache(maxsize=1)
def _family(regime: Regime, d: int) -> dict:
    # the family's store: (r, s) -> (cell, n), the cell's atoms being its first n
    return {}


def _fill(store: dict, regime: Regime, r: int, s: tuple[int, ...]) -> None:
    # atoms, keys (1, i, key(child)): by label, then in the child cell's order;
    # with commuting labels the child may not be a chain starting below label i
    atoms: list[Monomial] = [STAR] if r == 1 and not any(s) else []
    commuting = regime.unary_commute
    for i, si in enumerate(s, 1):
        if si:
            atoms += [Unary(i, c) for c in store[r, s[:i - 1] + (si - 1,) + s[i:]][0]
                      if not commuting or type(c) is not Unary or c.label >= i]
    # the head atoms: those of the types that can be a factor here
    types = [(r1, s1, store[r1, s1]) for r1 in range(1, r) for s1 in _box(s)]
    types = [(r1, s1, cell[:n]) for r1, s1, (cell, n) in types if n]
    heads = sorted((a for *_, group in types for a in group), key=canonical_key)
    rank = {id(a): i for i, a in enumerate(heads)}
    if regime.mult_commute:
        groups = [(r1, s1, [rank[id(a)] for a in group]) for r1, s1, group in types]
        picks = sorted(tuple(sorted(p)) for p in _pick(groups, 0, r, s))
        products = [Product(tuple([heads[i] for i in p])) for p in picks]
    else:
        tails = {}
        for r1, s1, group in types:
            rest = sorted(map(factors, store[r - r1, tuple(map(sub, s, s1))][0]),
                          key=lambda fs: [rank[id(f)] for f in fs])
            tails.update((id(a), rest) for a in group)
        products = [Product((a,) + fs) for a in heads for fs in tails[id(a)]]
    store[r, s] = (*atoms, *products), len(atoms)


def _pick(groups, j: int, r: int, s: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every multiset of total type (r, s) of atoms from ``groups[j:]``, as
    rank tuples sorted within each group; one recursion level per group."""
    if r == 0:
        return [] if any(s) else [()]
    out = []
    for i in range(j, len(groups)):
        r1, s1, ranks = groups[i]
        if r1 > r:
            break  # the groups come by ascending degree
        k, rk, sk = 1, r - r1, tuple(map(sub, s, s1))
        while rk >= 0 and min(sk) >= 0:
            rests = _pick(groups, i + 1, rk, sk)
            if rests:
                out += [c + rest for c in combinations_with_replacement(ranks, k)
                        for rest in rests]
            k, rk, sk = k + 1, rk - r1, tuple(map(sub, sk, s1))
    return out


def enumerate_monomials(d: int, r: int, s, regime: Regime,
                        cap: int = DEFAULT_CAP) -> list[Monomial]:
    """All distinct canonical monomials of degree r and multiplicity s, in
    canonical-key order.

    The expected output size is predicted from the counting engine first;
    requests above ``cap`` raise :class:`EnumerationCapExceeded` instead of
    exhausting memory.  A negative ``cap`` raises ``ValueError``.
    """
    s = counting._check_args(d, r, s)
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    predicted = counting.count(regime, d, r, s)
    if predicted > cap:
        raise EnumerationCapExceeded(predicted, cap)
    # in order, so each cell reads filled cells only
    store = _family(regime, d)
    for r2 in range(1, r + 1):
        for s2 in _box(s):
            if (r2, s2) not in store:
                _fill(store, regime, r2, s2)
    return list(store[r, s][0])


def count_by_length(d: int, ell: int, n: int, regime: Regime,
                    cap: int = DEFAULT_CAP) -> int:
    """Number of canonical monomials whose bracketed word has length n, by
    brute-force enumeration over all (r, s) with ell*r + 2*|s| == n."""
    if d < 1 or ell < 1 or n < 1:
        raise ValueError("d, ell and n must all be >= 1")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
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
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    for bars in combinations(range(k + d - 1), d - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (k + d - 1,)))
