import copy
import pickle
import re
import time

import pytest
from hypothesis import given, strategies as st

from opmono import (
    STAR,
    Product,
    Regime,
    Star,
    Unary,
    canonical_key,
    canonicalize,
    decode_word,
    degree,
    encode_word,
    enumerate_monomials,
    format_monomial,
    is_canonical,
    multiplicity,
    parse_monomial,
    product,
    word_length,
)
from opmono.monomial import word_from_text, word_to_text
from helpers import cyclic_garbage, nested_key

P1_11_22 = Unary(1, Unary(1, Unary(2, Product((STAR, STAR)))))  # P1(P1(P2(**)))


def monomials(d=3, max_leaves=6):
    return st.recursive(
        st.just(STAR),
        lambda kids: st.one_of(
            st.builds(Unary, st.integers(1, d), kids),
            st.lists(kids, min_size=2, max_size=3).map(product),
        ),
        max_leaves=max_leaves,
    )


class TestConstruction:
    def test_product_needs_two_factors(self):
        with pytest.raises(ValueError):
            Product((STAR,))

    def test_product_factors_must_be_atoms(self):
        with pytest.raises(ValueError):
            Product((Product((STAR, STAR)), STAR))

    def test_smart_constructor_flattens(self):
        m = product([Product((STAR, STAR)), Unary(1, STAR)])
        assert m == Product((STAR, STAR, Unary(1, STAR)))
        assert product([STAR]) == STAR

    def test_bad_label(self):
        with pytest.raises(ValueError):
            Unary(0, STAR)

    def test_immutable_with_keyword_fields_and_copies(self):
        m = Unary(label=2, child=Product(factors=(STAR, Star())))
        for node, field in ((STAR, "label"), (m, "label"), (m.child, "factors")):
            with pytest.raises(AttributeError):
                setattr(node, field, 1)
            with pytest.raises(AttributeError):
                delattr(node, field)
        assert (m.label, m.child.factors) == (2, (STAR, STAR))
        for copied in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert copied == m and type(copied.child) is Product
        match m:
            case Unary(label, Product(factors)):
                assert (label, len(factors)) == (2, 2)


class TestGradings:
    def test_degree(self):
        assert degree(STAR) == 1
        assert degree(Unary(1, Product((STAR, STAR)))) == 2
        assert degree(P1_11_22) == 2

    def test_multiplicity(self):
        assert multiplicity(STAR, 2) == (0, 0)
        assert multiplicity(P1_11_22, 2) == (2, 1)
        assert multiplicity(Unary(2, STAR), 3) == (0, 1, 0)

    def test_multiplicity_label_out_of_range(self):
        with pytest.raises(ValueError):
            multiplicity(Unary(3, STAR), 2)

    def test_word_length(self):
        m = parse_monomial("*P1(*P2(**))")
        assert word_length(m, 2) == 4 * 2 + 4
        for ell in (0, -3):
            with pytest.raises(ValueError, match="ell >= 1"):
                word_length(STAR, ell)


class TestCanonicalize:
    def test_free_is_identity(self):
        m = parse_monomial("P2(P1(**))")
        assert canonicalize(m, Regime.FREE) == m

    def test_chain_sorting(self):
        m = parse_monomial("P2(P1(**))")
        assert canonicalize(m, Regime.COMM_UNARY) == parse_monomial("P1(P2(**))")

    def test_factor_sorting(self):
        m = parse_monomial("P1(*)*")
        got = canonicalize(m, Regime.COMM_MULT)
        assert got == parse_monomial("*P1(*)")
        assert canonical_key(got.factors[0]) < canonical_key(got.factors[1])

    def test_both(self):
        m = parse_monomial("P2(P1(*))P1(*)")
        got = canonicalize(m, Regime.COMM_BOTH)
        assert got == parse_monomial("P1(*)P1(P2(*))")

    @given(monomials(), st.sampled_from(list(Regime)))
    def test_idempotent_and_grading_preserving(self, m, regime):
        c = canonicalize(m, regime)
        assert canonicalize(c, regime) == c
        assert is_canonical(c, regime)
        assert degree(c) == degree(m)
        assert multiplicity(c, 3) == multiplicity(m, 3)

    @given(monomials())
    def test_unary_swaps_collapse(self, m):
        from helpers import unary_swaps
        for v in unary_swaps(m):
            assert canonicalize(v, Regime.COMM_UNARY) == canonicalize(m, Regime.COMM_UNARY)
            assert canonicalize(v, Regime.COMM_BOTH) == canonicalize(m, Regime.COMM_BOTH)
            # swaps of distinct labels stay distinct in the free regime
            if v != m:
                assert canonicalize(v, Regime.FREE) != canonicalize(m, Regime.FREE)

    @given(monomials())
    def test_product_swaps_collapse(self, m):
        from helpers import product_swaps
        for v in product_swaps(m):
            assert canonicalize(v, Regime.COMM_MULT) == canonicalize(m, Regime.COMM_MULT)
            assert canonicalize(v, Regime.COMM_BOTH) == canonicalize(m, Regime.COMM_BOTH)


class TestWordCodec:
    def test_star(self):
        assert encode_word(STAR) == (0,)
        assert decode_word([0], 1) == STAR

    def test_example_stream(self):
        m = parse_monomial("*P1(*P2(**))")
        assert encode_word(m) == (0, 1, 0, 2, 0, 0, -2, -1)
        assert decode_word(encode_word(m), 2) == m

    def test_empty_interior(self):
        with pytest.raises(ValueError, match="empty"):
            decode_word([1, -1], 2)

    def test_unbalanced(self):
        with pytest.raises(ValueError):
            decode_word([1, 0], 2)
        with pytest.raises(ValueError):
            decode_word([0, -1], 2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            decode_word([3, 0, -3], 2)

    @pytest.mark.parametrize("tokens,message", [
        ([], "empty product"),
        ([1, -1], "empty delimiter interior"),
        ([0, 1, 0], "unbalanced delimiters: unclosed delimiter"),
        ([0, -1], "unbalanced delimiters"),
        ([1, 0, -2], "unbalanced delimiters"),
        ([1, 3, 0, -3, -1], "label 3 out of range [1, 2]"),
    ])
    def test_error_messages(self, tokens, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decode_word(tokens, 2)

    def test_word_text_round_trip(self):
        m = parse_monomial("*P1(*P2(**))")
        w = encode_word(m)
        assert word_to_text(w) == "* (1 * (2 * * )2 )1"
        assert word_from_text(word_to_text(w)) == w

    @pytest.mark.parametrize("text", ["(0 * )0", "* )0", "(-1 * )1", "(1 * )-1",
                                      "(+1 * )1", "( * )", "(x * )x"])
    def test_word_text_labels_must_be_at_least_one(self, text):
        # a label below 1 or with a sign would read as a star or the other delimiter
        with pytest.raises(ValueError, match="bad word token"):
            word_from_text(text)

    @given(monomials())
    def test_round_trip(self, m):
        assert decode_word(encode_word(m), 3) == m

    @given(monomials(), st.integers(1, 4))
    def test_length_statistic(self, m, ell):
        w = encode_word(m)
        stars = sum(1 for t in w if t == 0)
        delims = sum(1 for t in w if t != 0)
        assert word_length(m, ell) == ell * stars + delims


class TestGrammar:
    @given(monomials())
    def test_round_trip(self, m):
        assert parse_monomial(format_monomial(m)) == m

    def test_whitespace_and_multidigit_labels(self):
        m = parse_monomial(" * P12( * ) ", d=12)
        assert m == Product((STAR, Unary(12, STAR)))

    @pytest.mark.parametrize("text", ["", "P1()", "P(*)", "*)", "P1(*", "x*", "*P0(*)"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_monomial(text)

    def test_label_validation_against_d(self):
        with pytest.raises(ValueError):
            parse_monomial("P3(*)", d=2)


@pytest.mark.parametrize("regime, unary, mult", [
    (Regime.FREE, False, False),
    (Regime.COMM_UNARY, True, False),
    (Regime.COMM_MULT, False, True),
    (Regime.COMM_BOTH, True, True),
])
def test_regime_switches(regime, unary, mult):
    assert regime.unary_commute is unary
    assert regime.mult_commute is mult
    assert Regime(regime.value) is Regime.from_code(regime.value) is regime
    assert Regime.from_code(regime) is regime


@pytest.mark.parametrize("code", ["q", "FREE", ["c"], {}, None, 1])
def test_unknown_or_unhashable_regime_code(code):
    with pytest.raises(ValueError, match=r"^unknown regime code .*; expected one of "
                                         r"\['free', 'c', 'm', 'cm'\]$"):
        Regime.from_code(code)


class TestFlatKey:
    @given(st.lists(monomials(), min_size=2, max_size=8))
    def test_sorts_as_nested_key(self, ms):
        flat = sorted(ms, key=canonical_key)
        nested = sorted(ms, key=nested_key)
        assert [encode_word(m) for m in flat] == [encode_word(m) for m in nested]
        a, b = ms[0], ms[1]
        fa, fb, na, nb = canonical_key(a), canonical_key(b), nested_key(a), nested_key(b)
        assert (fa < fb, fa == fb) == (na < nb, na == nb)

    def test_oracle_order_is_nested_order(self):
        for regime in Regime:
            ms = enumerate_monomials(2, 3, (2, 1), regime)
            assert len(ms) > 20
            assert ms == sorted(ms, key=nested_key)


DEPTH = 3000
CHAIN_LABELS = [1 + i % 3 for i in range(DEPTH)]  # outside in; not weakly increasing
CHAIN_TEXT = "".join(f"P{i}(" for i in CHAIN_LABELS) + "*" + ")" * DEPTH
CHAIN_WORD = (*CHAIN_LABELS, 0, *(-i for i in reversed(CHAIN_LABELS)))
NEST_TEXT = "P1(*" * DEPTH + ")" * DEPTH  # P1(*P1(*...P1(*)...))
NEST_WORD = (1, 0) * DEPTH + (-1,) * DEPTH
# P1(P1(...P1(*)*...)*): every product lists its star last
NEST_REV_TEXT = "P1(" * DEPTH + "*" + ")*" * (DEPTH - 1) + ")"


class TestDeepNesting:
    """Every walk of the term algebra at 3000-deep nesting, under the default
    recursion limit."""

    @pytest.mark.parametrize("text, word, degree_, mult", [
        (CHAIN_TEXT, CHAIN_WORD, 1, (DEPTH // 3,) * 3),
        (NEST_TEXT, NEST_WORD, DEPTH, (DEPTH, 0, 0)),
    ], ids=["chain", "nest"])
    def test_walks(self, text, word, degree_, mult):
        m = parse_monomial(text, 3)
        assert encode_word(m) == word
        again = decode_word(word, 3)
        assert encode_word(again) == word
        assert format_monomial(m) == text
        assert repr(m) == f"Monomial({text!r})"
        assert degree(m) == degree_
        assert multiplicity(m, 3) == mult
        assert word_length(m, 2) == 2 * degree_ + 2 * DEPTH
        assert m == again and hash(m) == hash(again)
        assert m != parse_monomial("P1(" * DEPTH + "**" + ")" * DEPTH)
        for regime in Regime:
            c = canonicalize(m, regime)
            assert is_canonical(c, regime)
            assert degree(c) == degree_ and multiplicity(c, 3) == mult

    def test_canonical_chain(self):
        m = parse_monomial(CHAIN_TEXT, 3)
        labels = sorted(CHAIN_LABELS)
        sorted_word = (*labels, 0, *(-i for i in reversed(labels)))
        for regime in Regime:
            want = sorted_word if regime.unary_commute else CHAIN_WORD
            assert encode_word(canonicalize(m, regime)) == want
            assert is_canonical(m, regime) is not regime.unary_commute
        assert canonical_key(m) == (*[x for i in CHAIN_LABELS for x in (1, i)], 0)

    def test_canonical_nest(self):
        m = parse_monomial(NEST_REV_TEXT, 1)
        for regime in Regime:
            c = canonicalize(m, regime)
            want = NEST_WORD if regime.mult_commute else encode_word(m)
            assert encode_word(c) == want
            assert is_canonical(c, regime)
            assert is_canonical(m, regime) is not regime.mult_commute
        assert canonical_key(parse_monomial(NEST_TEXT)) == (
            (1, 1, 2, 0) * (DEPTH - 1) + (1, 1, 0) + (-1,) * (DEPTH - 1))

    def test_descending_chain_sorts_fast(self):
        m = STAR
        for label in range(1, DEPTH + 1):
            m = Unary(label, m)  # outermost label largest
        start = time.perf_counter()
        c = canonicalize(m, Regime.COMM_UNARY)
        assert time.perf_counter() - start < 1.0
        labels = range(1, DEPTH + 1)
        assert encode_word(c) == (*labels, 0, *(-i for i in reversed(labels)))


class TestNoCyclicGarbage:
    M = parse_monomial("P2(P1(**))*P1(*)")

    @pytest.mark.parametrize("fn, args", [
        (canonicalize, (M, Regime.COMM_BOTH)),
        (parse_monomial, ("P2(P1(**))*P1(*)",)),
        (decode_word, (encode_word(M), 2)),
        (encode_word, (M,)),
        (multiplicity, (M, 2)),
    ], ids=["canonicalize", "parse_monomial", "decode_word", "encode_word", "multiplicity"])
    def test_walk_leaves_no_cycle(self, fn, args):
        assert cyclic_garbage(fn, *args) == 0


LEXEMES = ["*", "P", "(", ")", "0", "1", "2", "3", " ", "x", "P1(", "P2(", "P3 ("]


class TestParserContract:
    """The one parser either round-trips or raises ValueError."""

    @given(st.one_of(st.text(alphabet="*P()0123 x", max_size=24),
                     st.lists(st.sampled_from(LEXEMES), max_size=16).map("".join)))
    def test_text(self, text):
        try:
            m = parse_monomial(text)
        except ValueError:
            return
        assert parse_monomial(format_monomial(m)) == m
        word = encode_word(m)
        assert decode_word(word, max(word)) == m

    @given(st.lists(st.integers(-3, 3), max_size=16))
    def test_tokens(self, tokens):
        try:
            m = decode_word(tokens, 3)
        except ValueError:
            return
        assert encode_word(m) == tuple(tokens)
        assert parse_monomial(format_monomial(m), 3) == m
