import hashlib
import math
import pickle
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opmono import counting
from opmono import (
    LengthSequence,
    Regime,
    count,
    count_by_length,
    compositions,
    free_length_closed,
    growth_estimate,
    length_sequence,
    multinomial,
    narayana,
    series_for,
)
from helpers import full_lattice_lengths, multidegrees


def test_divisors_match_trial_division():
    for n in range(1, 2001):
        assert counting._divisors(n) == tuple(j for j in range(1, n + 1) if n % j == 0)


class TestNarayana:
    def test_values(self):
        assert narayana(1, 0) == 1
        assert narayana(4, 1) == 6
        assert narayana(3, 1) == 3

    def test_range_errors(self):
        with pytest.raises(ValueError):
            narayana(3, 3)
        with pytest.raises(ValueError):
            narayana(3, -1)

    def test_row_sums_are_catalan(self):
        # Dyck paths of semilength n split by peak count
        catalan = [1, 1, 2, 5, 14, 42, 132]
        for n in range(1, 7):
            assert sum(narayana(n, k) for k in range(n)) == catalan[n]


def test_multinomial():
    assert multinomial((2, 1)) == 3
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((2, 2)) == 6


class TestMultigraded:
    def test_box_example_quartet(self):
        assert count(Regime.FREE, 2, 2, (2, 1)) == 30
        assert count(Regime.COMM_UNARY, 2, 2, (2, 1)) == 18
        assert count(Regime.COMM_MULT, 2, 2, (2, 1)) == 17
        assert count(Regime.COMM_BOTH, 2, 2, (2, 1)) == 10

    def test_free_no_operators(self):
        for r in range(1, 9):
            assert count(Regime.FREE, 1, r, (0,)) == 1

    def test_free_small(self):
        assert count(Regime.FREE, 1, 2, (1,)) == 3

    def test_degree_one_is_always_one(self):
        assert count(Regime.COMM_UNARY, 2, 1, (5, 7)) == 1
        assert count(Regime.COMM_BOTH, 3, 1, (1, 1, 1)) == 1
        for d in (1, 2, 3):
            for k in range(4):
                for s in compositions(k, d):
                    assert count(Regime.COMM_UNARY, d, 1, s) == 1
                    assert count(Regime.COMM_BOTH, d, 1, s) == 1

    def test_one_operator_collapses(self):
        # one operator: commuting operators change nothing, and the
        # commutative-product regimes coincide
        for r, s in multidegrees(1, 8):
            assert count(Regime.COMM_UNARY, 1, r, s) == count(Regime.FREE, 1, r, s)
            assert count(Regime.COMM_BOTH, 1, r, s) == count(Regime.COMM_MULT, 1, r, s)

    def test_one_operator_commutative_rows(self):
        assert ([count(Regime.COMM_MULT, 1, 2, (k,)) for k in range(7)]
                == [1, 2, 4, 6, 9, 12, 16])
        assert count(Regime.COMM_MULT, 1, 3, (2,)) == 8

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            count(Regime.FREE, 2, 0, (0, 0))
        with pytest.raises(ValueError):
            count(Regime.FREE, 2, 1, (1,))
        with pytest.raises(ValueError):
            count(Regime.FREE, 2, 1, (-1, 0))

    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    def test_label_permutation_symmetry(self, d, r, data):
        s = tuple(data.draw(st.integers(0, 3)) for _ in range(d))
        perm = data.draw(st.permutations(range(d)))
        s2 = tuple(s[i] for i in perm)
        for regime in Regime:
            assert count(regime, d, r, s) == count(regime, d, r, s2)

    def test_colored_sum_specialization(self):
        # summing over all multiplicity splits of k operators weights the
        # one-operator count by d^k
        for d in (1, 2, 3):
            for r in range(1, 8):
                for k in range(0, 9 - r):
                    total = sum(count(Regime.FREE, d, r, s) for s in compositions(k, d))
                    assert total == d ** k * narayana(r + k, k)

    def test_quotient_inequalities(self):
        for d in (1, 2, 3):
            for r, s in multidegrees(d, 6):
                free = count(Regime.FREE, d, r, s)
                c = count(Regime.COMM_UNARY, d, r, s)
                m = count(Regime.COMM_MULT, d, r, s)
                cm = count(Regime.COMM_BOTH, d, r, s)
                assert cm <= c <= free
                assert cm <= m <= free


TABLE_ROWS = [
    (Regime.FREE, 2, 2, [1, 3, 11, 45, 197]),
    (Regime.FREE, 1, 1, [1, 1, 2, 4, 8, 17, 37]),
    (Regime.COMM_UNARY, 2, 1, [1, 1, 3, 7, 16, 42]),
    (Regime.COMM_MULT, 1, 2, [1, 2, 4, 9, 20, 48]),
    (Regime.COMM_BOTH, 2, 2, [1, 3, 8, 24, 74]),
]


class TestLengthSequences:
    @pytest.mark.parametrize("regime,d,ell,want", TABLE_ROWS,
                             ids=[f"{r.value}-d{d}-l{l}" for r, d, l, _ in TABLE_ROWS])
    def test_published_rows(self, regime, d, ell, want):
        step = 2 if ell % 2 == 0 else 1
        seq = length_sequence(regime, d, ell, step * len(want))
        assert seq.table_terms() == want

    def test_even_ell_has_even_support(self):
        seq = length_sequence(Regime.COMM_MULT, 2, 2, 14)
        assert all(seq.value(n) == 0 for n in range(1, 14, 2))

    def test_minimal_length_term(self):
        for regime in Regime:
            for ell in (1, 2, 3):
                assert length_sequence(regime, 2, ell, ell + 2).value(ell) == 1

    def test_free_closed_matches_recurrence(self):
        # length_sequence(FREE, ...) raises if its two routes disagree;
        # also pin a couple of closed-sum values directly
        seq = length_sequence(Regime.FREE, 3, 3, 20)
        for n in (5, 10, 15, 20):
            assert free_length_closed(3, 3, n) == seq.value(n)

    def test_one_pass_closed_table_matches_per_n_sum(self):
        for d in (1, 2, 3):
            for ell in (1, 2, 3):
                for lo, hi in ((0, 200), (1, 1), (37, 120), (150, 200)):
                    window = counting._free_closed_sums(d, ell, lo, hi)
                    assert window == [free_length_closed(d, ell, n) if n else 0
                                      for n in range(lo, hi + 1)]

    @pytest.mark.parametrize("args", [(-2, 2, 6), (2, 0, 4), (2, 2, 0)])
    def test_free_closed_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError, match=">= 1"):
            free_length_closed(*args)

    def test_cross_identity_length_four_vs_one(self):
        s14 = length_sequence(Regime.FREE, 1, 4, 2 * 20 + 2)
        s11 = length_sequence(Regime.FREE, 1, 1, 20)
        for n in range(1, 21):
            assert s14.value(2 * n + 2) == s11.value(n)

    def test_length_sum_matches_multigraded(self):
        # b(n) is the sum of multigraded counts over ell*r + 2|s| = n
        rng = random.Random(7)
        for regime in Regime:
            for d, ell in [(1, 1), (2, 2), (2, 3)]:
                seq = length_sequence(regime, d, ell, 10)
                for n in rng.sample(range(1, 11), 4):
                    total = 0
                    r = 1
                    while ell * r <= n:
                        rem = n - ell * r
                        if rem % 2 == 0:
                            for s in compositions(rem // 2, d):
                                total += count(regime, d, r, s)
                        r += 1
                    assert total == seq.value(n)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(Regime)), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 14))
    def test_gradings_agree(self, regime, d, ell, n):
        # the multigraded counts over ell*r + 2|s| = n, the length series and
        # (for small n) the oracle's brute force give one number
        total = sum(count(regime, d, r, s) for r in range(1, n // ell + 1)
                    if (n - ell * r) % 2 == 0 for s in compositions((n - ell * r) // 2, d))
        assert total == length_sequence(regime, d, ell, n).value(n)
        if n <= 8:
            assert total == count_by_length(d, ell, n, regime)

    def test_value_range_checks(self):
        seq = length_sequence(Regime.FREE, 1, 1, 5)
        with pytest.raises(IndexError):
            seq.value(6)
        with pytest.raises(IndexError):
            seq.value(0)

    def test_sequence_is_an_immutable_value(self):
        seq = length_sequence(Regime.FREE, 1, 2, 6)
        same = LengthSequence(regime=Regime.FREE, d=1, ell=2, values=(0, 0, 1, 0, 2, 0, 5))
        assert seq == same and hash(seq) == hash(same) and seq is not same
        assert seq != LengthSequence(Regime.COMM_UNARY, 1, 2, seq.values)
        assert seq != (Regime.FREE, 1, 2, seq.values)
        assert repr(seq) == ("LengthSequence(regime=<Regime.FREE: 'free'>, d=1, ell=2, "
                             "values=(0, 0, 1, 0, 2, 0, 5))")
        assert pickle.loads(pickle.dumps(seq)) == seq
        with pytest.raises(AttributeError):
            seq.values = ()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            length_sequence(Regime.FREE, 0, 1, 5)
        with pytest.raises(ValueError):
            length_sequence(Regime.FREE, 1, 0, 5)


# SHA-256 of table_prefix over the grid of test_table_prefix_output_is_pinned,
# as computed by a cold full-lattice recurrence for every request
TABLE_PREFIX_SHA256 = "9ebeb7d8718e6f4fbef9b03acf2ef5fd851407ec09a3083066b1925c054d37e5"


class TestSharedLengthTable:
    """One checked table per family, on the z^2 lattice when ell is even,
    extended on demand and read by every caller."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(list(Regime)), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 80), st.integers(1, 80))
    def test_extended_table_matches_cold_and_full_lattice(self, regime, d, ell, n1, n2):
        counting._length_table.cache_clear()
        length_sequence(regime, d, ell, n1)
        warm = length_sequence(regime, d, ell, n2).values
        counting._length_table.cache_clear()
        cold = length_sequence(regime, d, ell, n2).values
        assert warm == cold == full_lattice_lengths(regime, d, ell, n2)

    @pytest.mark.parametrize("regime", [Regime.COMM_UNARY, Regime.COMM_BOTH],
                             ids=["c", "cm"])
    def test_truncated_commuting_layer_grows_on_extension(self, regime):
        # at d = 40 the layer read at n_max = 10 stops at shift 10; the
        # extension to 40 must read the shifts up to 40
        counting._length_table.cache_clear()
        length_sequence(regime, 40, 2, 10)
        warm = length_sequence(regime, 40, 2, 40).values
        counting._length_table.cache_clear()
        assert warm == length_sequence(regime, 40, 2, 40).values
        assert warm == series_for(regime, 40, 2, 40).values

    def test_prefix_is_a_slice_of_the_table(self):
        counting._length_table.cache_clear()
        long = length_sequence(Regime.COMM_MULT, 2, 2, 60).values
        assert length_sequence(Regime.COMM_MULT, 2, 2, 25).values == long[:26]
        info = counting._length_table.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert len(counting._length_table(False, True, 2, 2)) == 31  # t = z^2

    def test_growth_estimate_reads_the_shared_table(self):
        counting._length_table.cache_clear()
        values = length_sequence(Regime.COMM_MULT, 1, 2, 200).values
        table = counting._length_table(False, True, 1, 2)
        g = float(growth_estimate(Regime.COMM_MULT, 1, 2, 99).g)
        assert counting._length_table(False, True, 1, 2) is table and len(table) == 101
        assert g == pytest.approx((values[200] / values[198]) ** 0.5 * (100 / 99) ** 0.75)

    def test_failed_check_stores_nothing(self, monkeypatch):
        counting._length_table.cache_clear()
        length_sequence(Regime.FREE, 2, 1, 10)
        before = list(counting._length_table(False, False, 2, 1))
        monkeypatch.setattr(counting, "_free_closed_sums",
                            lambda d, ell, lo, hi: [0] * (hi - lo + 1))
        with pytest.raises(counting.SelfCheckError, match="closed sum"):
            length_sequence(Regime.FREE, 2, 1, 20)
        assert counting._length_table(False, False, 2, 1) == before

    def test_lattice_step_must_divide_ell(self):
        with pytest.raises(counting.SelfCheckError, match="lattice"):
            counting._extend_table([1], False, False, 1, 3, 2, 12)

    def test_table_prefix_output_is_pinned(self):
        counting._length_table.cache_clear()
        h = hashlib.sha256()
        for code in ("free", "c", "m", "cm"):
            for d in (1, 2, 3):
                for ell in (1, 2, 3, 4):
                    for offset in (0, 1):
                        terms = counting.table_prefix(Regime.from_code(code), d, ell,
                                                      150, offset)
                        h.update(f"{code} d={d} ell={ell} offset={offset}: "
                                 f"{','.join(map(str, terms))}\n".encode())
        assert h.hexdigest() == TABLE_PREFIX_SHA256


class TestSelfChecksFire:
    """Each SelfCheckError site in counting fires when one input it reads is
    made wrong, and names what failed."""

    @pytest.fixture(autouse=True)
    def fresh_stores(self):
        # the faults below must reach a computation, and leave nothing stored
        counting._cells.cache_clear()
        counting._length_table.cache_clear()
        yield
        counting._cells.cache_clear()
        counting._length_table.cache_clear()

    def test_narayana_division(self, monkeypatch):
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: comb(n, k) + 1)
        with pytest.raises(counting.SelfCheckError,
                           match=r"^narayana\(4,1\) division not exact$"):
            narayana(4, 1)

    def test_narayana_step(self, monkeypatch):
        monkeypatch.setattr(counting, "narayana", lambda n, k, f=narayana: f(n, k) + 1)
        with pytest.raises(counting.SelfCheckError,
                           match=r"^Narayana step to N\(5,3\) not exact$"):
            counting._free_closed_sums(1, 1, 5, 12)

    def test_multiset_recurrence(self, monkeypatch):
        monkeypatch.setattr(counting, "_divisors", lambda n: (n,))
        with pytest.raises(counting.SelfCheckError, match=re.escape(
                "multiset recurrence not divisible by r=2 at s=(0,) (d=1)")):
            count(Regime.COMM_MULT, 1, 2, (0,))

    @pytest.mark.parametrize("d, ell, where", [(1, 1, "2 (ell=1)"), (2, 2, "4 (ell=2)")],
                             ids=["ell1", "ell2"])
    def test_euler_length_recurrence(self, monkeypatch, d, ell, where):
        # an even ell runs on the halved lattice; the message names the word length
        monkeypatch.setattr(counting, "_divisors", lambda n: (n,))
        with pytest.raises(counting.SelfCheckError, match=re.escape(
                f"Euler length recurrence not divisible at word length {where}")):
            length_sequence(Regime.COMM_MULT, d, ell, 12)

    def test_minimal_length(self, monkeypatch):
        values = counting._length_values

        def doubled(*args):
            b = values(*args)
            return b[:1] + [2 * x for x in b[1:]]

        monkeypatch.setattr(counting, "_length_values", doubled)
        with pytest.raises(counting.SelfCheckError,
                           match="^count at the minimal length 3 is not 1$"):
            length_sequence(Regime.COMM_UNARY, 2, 3, 9)


class TestUnaryLayer:
    """The one place the unary-layer weight is written, in its three forms."""

    def test_indicators_group_into_the_length_form(self):
        # summing the signed indicator vectors by |e| gives the length form
        for commuting in (False, True):
            for d in range(1, 7):
                grouped = {}
                for sign, e in counting.layer_indicators(commuting, d):
                    grouped[2 * sum(e)] = grouped.get(2 * sum(e), 0) + sign
                assert grouped == counting.layer_lengths(commuting, d, 2 * d)

    def test_product_form_matches_length_form(self):
        for commuting in (False, True):
            for d in range(1, 9):
                z = Fraction(1, 3)
                want = sum(c * z ** k for k, c in
                           counting.layer_lengths(commuting, d, 2 * d).items())
                assert counting.layer_weight(commuting, d, z) == want

    def test_length_form_is_truncated_not_enumerated(self):
        assert counting.layer_lengths(True, 10 ** 6, 6) == {
            2: 10 ** 6, 4: -(10 ** 6) * (10 ** 6 - 1) // 2,
            6: (10 ** 6) * (10 ** 6 - 1) * (10 ** 6 - 2) // 6}

    def test_free_layer_sequence_route_matches_closed_form(self):
        # the sequence recurrence with the free layer is a second
        # multigraded route to multinomial * narayana
        for d in (1, 2, 3):
            for r, s in multidegrees(d, 10):
                assert counting._count(False, False, r, s) == count(Regime.FREE, d, r, s)

    def test_comm_unary_deep_cells_within_default_recursion_limit(self):
        counting._cells.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert (count(Regime.COMM_UNARY, 1, 2, (600,))
                    == count(Regime.FREE, 1, 2, (600,)))
            assert count(Regime.COMM_UNARY, 1, 700, (0,)) == 1
        finally:
            sys.setrecursionlimit(limit)

    def test_multiset_deep_cells_within_default_recursion_limit(self):
        counting._cells.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert count(Regime.COMM_MULT, 1, 700, (0,)) == 1
            assert count(Regime.COMM_BOTH, 1, 700, (0,)) == 1
        finally:
            sys.setrecursionlimit(limit)

    def test_layer_read_over_the_labels_s_uses(self):
        # labels that s leaves at zero cannot contribute, so a sparse s at
        # many labels costs what it costs over its own support
        counting._cells.cache_clear()
        e1 = (1,) + (0,) * 39
        assert count(Regime.COMM_UNARY, 40, 2, e1) == count(Regime.COMM_UNARY, 1, 2, (1,)) == 3
        assert count(Regime.COMM_BOTH, 40, 2, e1) == count(Regime.COMM_BOTH, 1, 2, (1,)) == 2
        start = time.perf_counter()
        assert count(Regime.COMM_UNARY, 18, 2, e1[:18]) == 3
        assert time.perf_counter() - start < 1.0

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.data())
    def test_unused_labels_change_nothing(self, d, r, extra, data):
        s = tuple(data.draw(st.integers(0, 3)) for _ in range(d))
        for regime in Regime:
            assert count(regime, d + extra, r, s + (0,) * extra) == count(regime, d, r, s)


# SHA-256 of count over the grid of test_count_output_is_pinned, as computed
# by the engine that read every layer subset through tuple-keyed caches
COUNT_SHA256 = "dc3c5e82c8fc3dc3b34750f3a4b6e81cb5bbfcbd6aab8589fa32881b7670f1e9"


def stored(commuting, multiset, d, field=0):
    """The family's stored cells by degree r >= 1, as dicts keyed by s: a
    (field 0) or the atoms (field 1), read from the lists by id."""
    levels = counting._cells(commuting, multiset, d)
    ids = levels[0][0]
    return [{s: level[field][i] for s, i in ids.items() if level[0][i] is not None}
            for level in levels[1:]]


class TestCellStore:
    """One store of cells per family, shared across s, with the layer applied
    one label at a time."""

    def test_count_output_is_pinned(self):
        counting._cells.cache_clear()
        h = hashlib.sha256()
        for code in ("free", "c", "m", "cm"):
            for d, top in ((1, 9), (2, 8), (3, 7)):
                for r, s in multidegrees(d, top):
                    v = count(Regime.from_code(code), d, r, s)
                    h.update(f"{code} d={d} r={r} s={','.join(map(str, s))}: {v}\n".encode())
        assert h.hexdigest() == COUNT_SHA256

    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.booleans(), st.integers(1, 4), st.integers(1, 8), st.data())
    def test_atoms_match_the_inclusion_exclusion_layer(self, commuting, multiset, d, r,
                                                       data):
        # the reference: abar(r, s) = [r = 1, s = 0] + sum of sign * a(r, s - e)
        # over the signed indicator vectors e <= s of layer_indicators
        s, budget = [], 8 - r
        for _ in range(d):
            s.append(data.draw(st.integers(0, budget)))
            budget -= s[-1]
        s = tuple(s)
        want = 1 if r == 1 and not any(s) else 0
        for sign, e in counting.layer_indicators(commuting, d):
            if all(ei <= si for ei, si in zip(e, s)):
                below = tuple(si - ei for si, ei in zip(s, e))
                want += sign * counting._count(commuting, multiset, r, below)
        counting._count(commuting, multiset, r, s)
        levels = counting._cells(commuting, multiset, d)
        assert levels[r][1][levels[0][0][s]] == want  # the atoms, by the id of s

    @pytest.mark.parametrize("regime", [Regime.COMM_UNARY, Regime.COMM_BOTH],
                             ids=["c", "cm"])
    def test_dense_support_costs_linear_in_d_per_cell(self, regime):
        # 2^12 cells at s = (1, ..., 1): one term per label takes about
        # 50 ms on two cores, where reading every label subset in every cell
        # took about 3 s
        counting._cells.cache_clear()
        start = time.perf_counter()
        assert count(regime, 12, 1, (1,) * 12) == 1
        assert time.perf_counter() - start < 1.0
        assert count(regime, 16, 1, (1,) * 16) == 1

    def test_cells_are_shared_across_s(self, monkeypatch):
        cells = ((4, (3, 2)), (2, (3, 0)), (4, (1, 2)), (1, (0, 0)))
        cold = []
        for r, s in cells:
            counting._cells.cache_clear()
            cold.append(count(Regime.COMM_MULT, 2, r, s))
        counting._cells.cache_clear()
        count(Regime.COMM_MULT, 2, 4, (3, 2))
        # every cell of that box is now stored, one id per s, so none of
        # these does work or names a new vector
        ids = counting._cells(False, True, 2)[0][0]
        assert sorted(ids) == list(counting._box((3, 2)))
        monkeypatch.setattr(counting, "WORK_LIMIT", 0)
        assert [count(Regime.COMM_MULT, 2, r, s) for r, s in cells] == cold
        assert counting._cells.cache_info().currsize == 1 and len(ids) == 12
        with pytest.raises(counting.WorkLimitExceeded):
            count(Regime.COMM_MULT, 2, 5, (3, 2))

    def test_work_limit_is_exact_and_checked_before_work(self, monkeypatch):
        r, s = 5, (2, 3)
        counting._cells.cache_clear()
        monkeypatch.setattr(counting, "WORK_LIMIT", counting._box_work(r, s) - 1)
        with pytest.raises(counting.WorkLimitExceeded, match="above the cap"):
            count(Regime.COMM_UNARY, 2, r, s)
        levels = counting._cells(True, False, 2)
        assert len(levels) == 1 and not levels[0][0]  # no level and no id
        # a cold fill at the limit reads d layer terms per cell and exactly
        # the predicted convolution products
        fills, products = [], []
        fill = counting._fill
        monkeypatch.setattr(counting, "_fill", lambda *args: fills.append(1) or fill(*args))
        monkeypatch.setattr(counting, "mul", lambda x, y: products.append(1) or x * y)
        monkeypatch.setattr(counting, "WORK_LIMIT", counting._box_work(r, s))
        assert count(Regime.COMM_UNARY, 2, r, s) == 33222  # the oracle's count
        assert 2 * len(fills) + len(products) == counting._box_work(r, s)

    def test_a_cell_with_stored_predecessors_alone_costs_its_predicted_work(
            self, monkeypatch):
        # (6, (2, 3)) once (5, (2, 3)), (6, (1, 3)) and (6, (2, 2)) are
        # stored: d layer terms and (r - 1)*|box(s)| = 5*12 products
        r, s, work = 6, (2, 3), 2 + 5 * 12
        counting._cells.cache_clear()
        cold = count(Regime.COMM_UNARY, 2, r, s)
        counting._cells.cache_clear()
        for below in ((5, (2, 3)), (6, (1, 3)), (6, (2, 2))):
            count(Regime.COMM_UNARY, 2, *below)
        ids = dict(counting._cells(True, False, 2)[0][0])
        monkeypatch.setattr(counting, "WORK_LIMIT", work - 1)
        with pytest.raises(counting.WorkLimitExceeded, match=f"read {work} terms"):
            count(Regime.COMM_UNARY, 2, r, s)
        fills, products = [], []
        fill = counting._fill
        monkeypatch.setattr(counting, "_fill", lambda *args: fills.append(1) or fill(*args))
        monkeypatch.setattr(counting, "mul", lambda x, y: products.append(1) or x * y)
        monkeypatch.setattr(counting, "WORK_LIMIT", work)
        assert count(Regime.COMM_UNARY, 2, r, s) == cold
        assert 2 * len(fills) + len(products) == work and len(fills) == 1
        assert counting._cells(True, False, 2)[0][0] == ids  # no vector is new

    @pytest.mark.parametrize("regime", [Regime.COMM_UNARY, Regime.COMM_MULT,
                                        Regime.COMM_BOTH], ids=["c", "m", "cm"])
    def test_stored_predecessors_fill_the_cell_alone(self, regime, monkeypatch):
        r, s = 4, (2, 1)
        counting._cells.cache_clear()
        for below in ((3, (2, 1)), (4, (1, 1)), (4, (2, 0))):
            count(regime, 2, *below)
        levels = counting._cells(regime.unary_commute, regime.mult_commute, 2)
        before = [len(level) for level in stored(regime.unary_commute, regime.mult_commute, 2)]
        ids, probes = levels[0][0], []

        class Probed(list):  # records every id read at degree r
            def __getitem__(self, i):
                probes.append(i)
                return super().__getitem__(i)

        levels[r] = (Probed(levels[r][0]), *levels[r][1:])
        fills, boxes = [], []
        fill, box = counting._fill, counting._box
        monkeypatch.setattr(counting, "_fill",
                            lambda *args: fills.append(args[3:5]) or fill(*args))
        monkeypatch.setattr(counting, "_box", lambda s2: boxes.append(s2) or box(s2))
        want = count(regime, 2, r, s)
        # the gather of the box of s, built when (2, s) was filled, is reused
        assert fills == [(r, s)] and boxes == []
        assert set(probes) <= {ids[s], ids[1, 1], ids[2, 0]}  # itself and s - e_k
        before[r - 1] += 1
        assert [len(level) for level in stored(regime.unary_commute, regime.mult_commute,
                                               2)] == before
        counting._cells.cache_clear()
        assert want == count(regime, 2, r, s)

    @settings(max_examples=60, deadline=None)
    @given(st.booleans(), st.booleans(), st.integers(1, 3), st.data())
    def test_any_request_order_gives_the_cold_values(self, commuting, multiset, d, data):
        cells = list(multidegrees(d, 8))
        requests = data.draw(st.lists(st.tuples(st.sampled_from(cells), st.booleans()),
                                      min_size=1, max_size=25))
        cold = {}
        for (r, s), _ in requests:
            counting._cells.cache_clear()
            cold[r, s] = counting._count(commuting, multiset, r, s)
        counting._cells.cache_clear()
        for (r, s), clear in requests:
            if clear:
                counting._cells.cache_clear()
            assert counting._count(commuting, multiset, r, s) == cold[r, s]
        # a stored cell implies its whole lower box, and holds its cold value
        levels = stored(commuting, multiset, d)
        for r, level in enumerate(levels, 1):
            for s, v in level.items():
                assert all(s2 in level for s2 in counting._box(s))
                assert r == 1 or s in levels[r - 2]
                if (r, s) in cold:
                    assert v == cold[r, s]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(1, 3),
                              st.integers(1, 5), st.tuples(*[st.integers(0, 3)] * 3),
                              st.booleans()), min_size=1, max_size=12),
           st.integers(2, 6))
    def test_interleaved_families_keep_every_list_as_long_as_the_ids(self, requests,
                                                                      r_zero):
        # requests over both switches and d <= 3, the cache cleared between
        # some; each is followed by the one-cell box s = 0 at a degree r > 1
        cold = {}
        for commuting, multiset, d, r, s, _ in requests:
            counting._cells.cache_clear()
            cold[commuting, multiset, r, s[:d]] = counting._count(commuting, multiset, r,
                                                                  s[:d])
        for commuting, multiset, d, r, s, clear in requests:
            if clear:
                counting._cells.cache_clear()
            for r2, s2 in ((r, s[:d]), (r_zero, (0,) * d)):
                got = counting._count(commuting, multiset, r2, s2)
                assert got == cold.get((commuting, multiset, r2, s2), 1)  # 1 at s = 0
                levels = counting._cells(commuting, multiset, d)
                ids, preds, gets = levels[0]
                assert sorted(ids.values()) == list(range(1, len(ids) + 1))
                assert {len(x) for level in levels[1:] for x in level if x is not None} \
                    == {len(preds)} == {len(gets)} and len(preds) > len(ids)

    def test_huge_box_is_refused_at_once_and_free_answers_below_its_bit_cap(self):
        start = time.perf_counter()
        for regime in (Regime.COMM_UNARY, Regime.COMM_MULT, Regime.COMM_BOTH):
            with pytest.raises(counting.WorkLimitExceeded):
                count(regime, 2, 1, (100000, 100000))
        assert time.perf_counter() - start < 1.0
        assert count(Regime.FREE, 2, 1, (5000, 5000)) == math.comb(10000, 5000)

    @pytest.mark.parametrize("r, s", [(1, (300000, 300000)), (200000, (100000, 100000)),
                                      (300000, (150000,))])
    def test_free_count_over_its_bit_cap_is_refused_at_once(self, r, s):
        start = time.perf_counter()
        with pytest.raises(counting.WorkLimitExceeded, match="above the cap"):
            count(Regime.FREE, len(s), r, s)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("r, s", [(7, (3, 0, 2)), (1, (20000, 20000)),
                                      (30000, (5000, 5000, 5000)), (1, (10 ** 400,)),
                                      (10 ** 400, (0, 0))],
                             ids=["small", "r=1", "three labels", "huge s", "huge r"])
    def test_free_bit_bound_holds_and_is_tight_for_large_counts(self, r, s):
        bits = count(Regime.FREE, len(s), r, s).bit_length()
        assert bits <= counting._free_bits(r, s) <= max(1.001 * bits, bits + 1400)


class TestTablePrefix:
    def test_matches_table_terms(self):
        for regime in Regime:
            for ell in (1, 2, 3):
                step = 2 if ell % 2 == 0 else 1
                terms = length_sequence(regime, 2, ell, step * 9).table_terms()
                assert counting.table_prefix(regime, 2, ell, 9) == terms
                assert counting.table_prefix(regime, 2, ell, 10, 0) == [1] + terms

    def test_raw_indexes_by_word_length(self):
        seq = length_sequence(Regime.COMM_MULT, 2, 2, 8)
        assert counting.table_prefix(Regime.COMM_MULT, 2, 2, 8, raw=True) == \
            list(seq.values[1:])
        assert counting.table_prefix(Regime.COMM_MULT, 2, 2, 1, 0, raw=True) == [1]

    def test_rejects_empty_and_bad_offset(self):
        with pytest.raises(ValueError):
            counting.table_prefix(Regime.FREE, 1, 2, 0)
        with pytest.raises(ValueError):
            counting.table_prefix(Regime.FREE, 1, 2, 0, raw=True)
        with pytest.raises(ValueError):
            counting.table_prefix(Regime.FREE, 1, 2, 3, 2)
