"""Acceptance suite.

One test per criterion; each prints a single `criterion N: PASS/FAIL` line
(run with `pytest -s tests/test_acceptance.py` to see them as they go).
"""

import random
import time
from contextlib import contextmanager

from opmono import (
    Regime,
    all_binary_trees,
    all_dyck_paths,
    all_lattice_paths,
    canonicalize,
    check_symmetry_a1,
    count,
    compositions,
    decode_word,
    dyck_run_lengths_ok,
    encode_word,
    enumerate_monomials,
    from_binary_tree,
    from_ordered_tree,
    from_path,
    growth,
    growth_estimate,
    is_canonical,
    length_sequence,
    matched_ascent_monotone,
    narayana,
    right_chain_monotone,
    series_for,
    to_binary_tree,
    to_ordered_tree,
    to_path,
)
from helpers import multidegrees, product_swaps, random_monomial, unary_swaps


@contextmanager
def criterion(num, text):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num}: FAIL  {text}")
        raise
    print(f"\ncriterion {num}: PASS  {text}  ({time.perf_counter() - start:.1f}s)")


BOX_COUNTS = {
    Regime.FREE: 30,
    Regime.COMM_UNARY: 18,
    Regime.COMM_MULT: 17,
    Regime.COMM_BOTH: 10,
}


def test_criterion_1_multigraded_quartet():
    with criterion(1, "multigraded quartet 30/18/17/10, engine and oracle"):
        for regime, want in BOX_COUNTS.items():
            assert count(regime, 2, 2, (2, 1)) == want
            assert len(enumerate_monomials(2, 2, (2, 1), regime)) == want


def test_criterion_2_table_reproduction():
    from opmono import fixtures

    with criterion(2, "published table rows reproduced via verify"):
        entries = fixtures.bundled_fixtures()
        assert len(entries) >= 34
        for e in entries:
            detail = fixtures.check_entry(e)
            assert detail is None, f"{e.sequence_id}: {detail}"


def test_criterion_3_oracle_equivalence_sweep():
    with criterion(3, "engine == brute force, all regimes, d<=3, r+|s|<=7"):
        for d in (1, 2, 3):
            for r, s in multidegrees(d, 7):
                for regime in Regime:
                    got = len(enumerate_monomials(d, r, s, regime))
                    assert got == count(regime, d, r, s), (regime, d, r, s)


def test_criterion_4_dual_route_consistency():
    with criterion(4, "series solvers agree with recurrences to order 40"):
        for d in (1, 2, 3, 4):
            for ell in (1, 2, 3):
                for r in Regime:
                    assert series_for(r, d, ell, 40) == length_sequence(r, d, ell, 40), (
                        r, d, ell)


def test_criterion_5_bijections_and_model_counts():
    with criterion(5, "round trips on all monomials r+|s|<=6; model counts 21 and 16"):
        for d in (1, 2, 3):
            for r, s in multidegrees(d, 6):
                for m in enumerate_monomials(d, r, s, Regime.FREE):
                    assert decode_word(encode_word(m), d) == m
                    assert from_ordered_tree(to_ordered_tree(m)) == m
                    assert from_path(to_path(m, 1), d) == m
                    assert from_binary_tree(to_binary_tree(m), d) == m
        paths = all_lattice_paths(2, 3, 10)
        assert sum(matched_ascent_monotone(p) for p in paths) == 21
        trees = all_binary_trees(3, 3)
        assert sum(right_chain_monotone(t) for t in trees) == 16


def test_criterion_6_identities():
    with criterion(6, "length-4/length-1 identity, colored sums, symmetry, Dyck counts"):
        s14 = length_sequence(Regime.FREE, 1, 4, 42)
        s11 = length_sequence(Regime.FREE, 1, 1, 20)
        for n in range(1, 21):
            assert s14.value(2 * n + 2) == s11.value(n)
        for d in (1, 2, 3):
            for r in range(1, 8):
                for k in range(0, 9 - r):
                    total = sum(count(Regime.FREE, d, r, s) for s in compositions(k, d))
                    assert total == d ** k * narayana(r + k, k)
        assert check_symmetry_a1(15)
        for ell in (1, 2, 3):
            for half in range(1, 9):
                qualifying = sum(dyck_run_lengths_ok(p, ell)
                                 for p in all_dyck_paths(half))
                n = half + ell - 1
                assert qualifying == length_sequence(
                    Regime.FREE, 1, 2 * ell, 2 * n).value(2 * n)


def test_criterion_7_exact_growth_panels():
    with criterion(7, "exact growth rates match reference values to 1e-3"):
        for d, ell, want in [(1, 1, 2.618), (2, 1, 3.2043), (1, 2, 2.0), (2, 2, 2.4142)]:
            assert abs(float(growth(Regime.FREE, d, ell).g) - want) < 1e-3
        for d, ell, want in [(2, 2, 2.3486), (3, 2, 2.6062)]:
            assert abs(float(growth(Regime.COMM_UNARY, d, ell).g) - want) < 1e-3


def test_criterion_8_estimator_panels():
    with criterion(8, "ratio estimators at n=100 match reference values to 2e-2"):
        for regime, d, want in [(Regime.COMM_MULT, 1, 1.7194),
                                (Regime.COMM_MULT, 2, 2.1201),
                                (Regime.COMM_BOTH, 2, 2.0343)]:
            assert abs(float(growth_estimate(regime, d, 2, 100).g) - want) < 2e-2


def test_criterion_9_property_suite():
    with criterion(9, "self-checks quiet, canonicalize laws on 10^4 monomials, quotients"):
        # the Euler divisibility traps guard every value computed here;
        # recompute the heaviest objects from scratch
        for regime in (Regime.COMM_MULT, Regime.COMM_BOTH):
            length_sequence(regime, 3, 2, 120)
            for r, s in multidegrees(3, 6):
                count(regime, 3, r, s)

        rng = random.Random(20250810)
        swaps_seen = 0
        for _ in range(10_000):
            m = random_monomial(rng, 3, 8)
            for regime in Regime:
                c = canonicalize(m, regime)
                assert canonicalize(c, regime) == c
                assert is_canonical(c, regime)
            for v in unary_swaps(m):
                swaps_seen += 1
                assert (canonicalize(v, Regime.COMM_UNARY)
                        == canonicalize(m, Regime.COMM_UNARY))
                assert (canonicalize(v, Regime.COMM_BOTH)
                        == canonicalize(m, Regime.COMM_BOTH))
            for v in product_swaps(m):
                swaps_seen += 1
                assert (canonicalize(v, Regime.COMM_MULT)
                        == canonicalize(m, Regime.COMM_MULT))
                assert (canonicalize(v, Regime.COMM_BOTH)
                        == canonicalize(m, Regime.COMM_BOTH))
        assert swaps_seen > 10_000  # the generator really exercises both moves

        for d in (1, 2, 3):
            for r, s in multidegrees(d, 7):
                free = count(Regime.FREE, d, r, s)
                c = count(Regime.COMM_UNARY, d, r, s)
                m_ = count(Regime.COMM_MULT, d, r, s)
                cm = count(Regime.COMM_BOTH, d, r, s)
                assert cm <= c <= free
                assert cm <= m_ <= free
