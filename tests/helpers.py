"""Shared test utilities: random monomials, local equivalence moves, and
sweep iterators."""

from __future__ import annotations

import gc

from opmono import STAR, Monomial, Product, Regime, Star, Unary, compositions, counting, product


def random_monomial(rng, d: int, max_atoms: int) -> Monomial:
    """A random well-formed monomial with at most ``max_atoms`` leaves-or-
    unary nodes per level budget; labels drawn from [1, d]."""

    def atom(budget: int) -> Monomial:
        if budget <= 1 or rng.random() < 0.4:
            return STAR
        return Unary(rng.randint(1, d), mono(budget - 1))

    def mono(budget: int) -> Monomial:
        n = rng.randint(1, max(1, min(3, budget)))
        if n == 1:
            return atom(budget)
        return product(atom(max(1, budget // n)) for _ in range(n))

    return mono(max_atoms)


def unary_swaps(m: Monomial):
    """All monomials obtained from m by swapping the labels of one adjacent
    nested unary pair (a single commuting-operators move)."""
    if isinstance(m, Star):
        return
    if isinstance(m, Unary):
        if isinstance(m.child, Unary):
            yield Unary(m.child.label, Unary(m.label, m.child.child))
        for sub in unary_swaps(m.child):
            yield Unary(m.label, sub)
        return
    for i, f in enumerate(m.factors):
        for sub in unary_swaps(f):
            yield Product(m.factors[:i] + (sub,) + m.factors[i + 1:])


def product_swaps(m: Monomial):
    """All monomials obtained from m by swapping two adjacent factors of one
    product (a single commutative-product move)."""
    if isinstance(m, Star):
        return
    if isinstance(m, Unary):
        for sub in product_swaps(m.child):
            yield Unary(m.label, sub)
        return
    for i in range(len(m.factors) - 1):
        fs = list(m.factors)
        fs[i], fs[i + 1] = fs[i + 1], fs[i]
        yield Product(tuple(fs))
    for i, f in enumerate(m.factors):
        for sub in product_swaps(f):
            yield Product(m.factors[:i] + (sub,) + m.factors[i + 1:])


def multidegrees(d: int, max_total: int):
    """All (r, s) with r >= 1 and r + |s| <= max_total."""
    for r in range(1, max_total + 1):
        for k in range(max_total - r + 1):
            for s in compositions(k, d):
                yield r, s


def cyclic_garbage(fn, *args) -> int:
    """Objects that only the cyclic collector can free after fn(*args) and
    its result are dropped."""
    gc.collect()
    gc.disable()
    try:
        fn(*args)
        return gc.collect()
    finally:
        gc.enable()


def nested_key(m: Monomial):
    """The nested-tuple canonical key, kept as the reference order that the
    flat preorder code of ``canonical_key`` must reproduce."""
    if isinstance(m, Star):
        return (0,)
    if isinstance(m, Unary):
        return (1, m.label, nested_key(m.child))
    return (2,) + tuple(nested_key(f) for f in m.factors)


def full_lattice_lengths(regime: Regime, d: int, ell: int, n_max: int) -> tuple[int, ...]:
    """Length counts for 0 <= n <= n_max (0 at n = 0) from one cold run of
    the recurrence on the full z lattice with the unhalved layer: the
    reference that the shared, halved and extended tables must reproduce."""
    layer = counting.layer_lengths(regime.unary_commute, d, n_max)
    values = counting._length_values(layer, ell, n_max, regime.mult_commute)
    return (0, *values[1:])
