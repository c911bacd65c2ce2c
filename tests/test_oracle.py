import hashlib
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from opmono import oracle
from opmono import (
    Regime,
    EnumerationCapExceeded,
    canonical_key,
    count,
    count_by_length,
    degree,
    enumerate_monomials,
    format_monomial,
    is_canonical,
    multiplicity,
    parse_monomial,
)
from helpers import cyclic_garbage, multidegrees

QUARTET = {
    Regime.FREE: 30,
    Regime.COMM_UNARY: 18,
    Regime.COMM_MULT: 17,
    Regime.COMM_BOTH: 10,
}


@pytest.mark.parametrize("regime,size", QUARTET.items(), ids=[r.value for r in QUARTET])
def test_box_example_sizes(regime, size):
    ms = enumerate_monomials(2, 2, (2, 1), regime)
    assert len(ms) == len(set(ms)) == size


def test_known_membership():
    free = set(enumerate_monomials(2, 2, (2, 1), Regime.FREE))
    for text in ["P1(P1(P2(**)))", "P2(P1(P1(*)*))", "P1(P2(*))P1(*)", "*P2(P1(P1(*)))"]:
        assert parse_monomial(text) in free
    canon = set(enumerate_monomials(2, 2, (2, 1), Regime.COMM_UNARY))
    assert parse_monomial("P1(P1(P2(**)))") in canon
    assert parse_monomial("P2(P1(P1(**)))") not in canon


def test_one_operator_example():
    got = set(enumerate_monomials(1, 2, (1,), Regime.FREE))
    want = {parse_monomial(t) for t in ["P1(**)", "P1(*)*", "*P1(*)"]}
    assert got == want


def test_every_element_canonical_with_right_grading():
    # the oracle orders products by their factors' ranks and never keys
    # them, so fresh keys catch a rank order that drifts from the key order
    for regime in Regime:
        for d in (1, 2, 3):
            for r, s in multidegrees(d, 6):
                ms = enumerate_monomials(d, r, s, regime)
                assert len(ms) == count(regime, d, r, s)
                for m in ms:
                    assert is_canonical(m, regime)
                    assert degree(m) == r
                    assert multiplicity(m, d) == s
                keys = [canonical_key(m) for m in ms]
                assert all(a < b for a, b in zip(keys, keys[1:]))


def test_deep_chain_within_default_recursion_limit():
    # cells are filled in order, so a 1000-deep chain recurses nowhere
    want = [parse_monomial("P1(" * 1000 + "*" + ")" * 1000)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for regime in Regime:
            oracle._family.cache_clear()
            assert enumerate_monomials(1, 1, (1000,), regime) == want
    finally:
        sys.setrecursionlimit(limit)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "opmono.cli", "enumerate", "--regime", "m",
                           "--d", "1", "--r", "1", "--s", "1000"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "P1(" * 1000 + "*" + ")" * 1000 + "\n"


class StoreReads(dict):
    """A family store that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


@pytest.mark.parametrize("regime", [Regime.COMM_UNARY, Regime.COMM_BOTH], ids=["c", "cm"])
def test_commuting_chain_reads_one_cell_below(regime, monkeypatch):
    # each atom of the chain is one label over the atom one cell below it,
    # not a scan of every chain vector of its box
    k = 1000
    store = StoreReads()
    monkeypatch.setattr(oracle, "_family", lambda regime, d: store)
    got = enumerate_monomials(1, 1, (k,), regime)
    assert got == [parse_monomial("P1(" * k + "*" + ")" * k)]
    assert store.reads <= 10 * k


# SHA-256 of format_monomial over every cell of test_output_is_pinned, as
# computed by the oracle that kept every family's atoms and cells in two
# unbounded caches
ORACLE_SHA256 = "e40af053775914b7e2eeb380a3ce7c5ec22ca1309348eb45275e3edfca3de1b2"


def test_output_is_pinned():
    h = hashlib.sha256()
    for code in ("free", "c", "m", "cm"):
        for d in (1, 2, 3):
            for r, s in multidegrees(d, 6):
                cell = enumerate_monomials(d, r, s, Regime.from_code(code))
                h.update(f"{code} d={d} r={r} s={','.join(map(str, s))}: ".encode())
                h.update(" ".join(map(format_monomial, cell)).encode() + b"\n")
    assert h.hexdigest() == ORACLE_SHA256


def test_store_holds_one_family():
    oracle._family.cache_clear()
    box = {(r, s) for r in (1, 2, 3) for s in product(range(2), range(3))}
    first = enumerate_monomials(2, 3, (1, 2), Regime.FREE)
    store = oracle._family(Regime.FREE, 2)
    assert set(store) == box
    held = sys.getrefcount(store)
    second = enumerate_monomials(2, 3, (1, 2), Regime.COMM_MULT)
    # the first family's store is dropped: the holder no longer refers to it
    assert sys.getrefcount(store) == held - 1
    assert oracle._family.cache_info().currsize == 1
    assert set(oracle._family(Regime.COMM_MULT, 2)) == box
    assert len(second) == count(Regime.COMM_MULT, 2, 3, (1, 2)) < len(first)
    # asking for the first family again rebuilds the same cells
    assert enumerate_monomials(2, 3, (1, 2), Regime.FREE) == first
    assert oracle._family(Regime.FREE, 2) is not store


def test_matches_counting_engine_small():
    for regime in Regime:
        for d in (1, 2):
            for r, s in multidegrees(d, 6):
                assert len(enumerate_monomials(d, r, s, regime)) == count(regime, d, r, s)


def test_quotient_monotonicity():
    for d in (1, 2):
        for r, s in multidegrees(d, 6):
            sizes = {reg: len(enumerate_monomials(d, r, s, reg)) for reg in Regime}
            assert sizes[Regime.COMM_BOTH] <= sizes[Regime.COMM_UNARY] <= sizes[Regime.FREE]
            assert sizes[Regime.COMM_BOTH] <= sizes[Regime.COMM_MULT] <= sizes[Regime.FREE]


def test_count_by_length_examples():
    assert count_by_length(2, 3, 10, Regime.COMM_UNARY) == 21
    assert count_by_length(3, 2, 6, Regime.COMM_UNARY) == 16
    for regime in Regime:
        assert count_by_length(1, 2, 2, regime) == 1


def test_count_by_length_rejects_bad_arguments():
    # checked before the shell loop, which finds no shell at n = 1, ell = 2
    with pytest.raises(ValueError, match="d, ell and n"):
        count_by_length(0, 2, 1, Regime.FREE)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        count_by_length(1, 2, 1, Regime.FREE, cap=-1)


def test_cap_guard():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_monomials(3, 9, (5, 5, 5), Regime.FREE, cap=1000)
    # a request under the cap still works
    assert len(enumerate_monomials(1, 3, (1,), Regime.FREE, cap=1000)) == count(
        Regime.FREE, 1, 3, (1,))


def test_rejects_bad_degree():
    with pytest.raises(ValueError):
        enumerate_monomials(2, 0, (0, 0), Regime.FREE)


@pytest.mark.parametrize("regime,r,s,want", [
    (Regime.COMM_MULT, 5, (2, 2), 1195),
    (Regime.COMM_BOTH, 4, (3, 2), 1010),
], ids=["m-r5-s22", "cm-r4-s32"])
def test_multiset_cells_within_default_recursion_limit(regime, r, s, want):
    # these cells have over a thousand candidate atoms, so the multiset
    # generator must recurse once per factor and not once per candidate
    oracle._family.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = enumerate_monomials(2, r, s, regime)
    finally:
        sys.setrecursionlimit(limit)
    assert len(got) == len(set(got)) == want == count(regime, 2, r, s)


def test_multiset_generator_leaves_no_cyclic_garbage():
    oracle._family.cache_clear()
    assert cyclic_garbage(enumerate_monomials, 2, 4, (2, 2), Regime.COMM_MULT) == 0


def test_compositions_in_lexicographic_order():
    for d in range(1, 6):
        for k in range(7):
            want = [s for s in product(range(k + 1), repeat=d) if sum(s) == k]
            assert list(oracle.compositions(k, d)) == want


def test_compositions_at_many_labels_within_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert list(oracle.compositions(0, 3000)) == [(0,) * 3000]
        seen = 0
        for s in oracle.compositions(1, 3000):
            assert s[2999 - seen] == sum(s) == 1
            seen += 1
    finally:
        sys.setrecursionlimit(limit)
    assert seen == 3000
    with pytest.raises(ValueError):
        list(oracle.compositions(2, 0))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_compositions_of_a_negative_sum_rejected(d):
    # no tuple of nonnegative parts sums to -1, so the request itself is wrong
    with pytest.raises(ValueError, match="k >= 0"):
        list(oracle.compositions(-1, d))
