import sys

import pytest

from opmono import bijections
from opmono import (
    STAR,
    BinaryTree,
    EnumerationCapExceeded,
    LatticePath,
    Regime,
    all_binary_trees,
    all_dyck_paths,
    all_lattice_paths,
    canonicalize,
    count_by_length,
    count_vertices,
    degree,
    dyck_inverse,
    dyck_run_lengths_ok,
    dyck_transform,
    enumerate_monomials,
    from_binary_tree,
    from_ordered_tree,
    from_path,
    length_sequence,
    matched_ascent_monotone,
    multiplicity,
    parse_monomial,
    right_chain_monotone,
    to_binary_tree,
    to_ordered_tree,
    to_path,
    validate_path,
    word_length,
)
from opmono.bijections import OrderedTree, binary_tree_text, path_from_text
from helpers import cyclic_garbage, multidegrees


def small_monomials(d=2, max_total=5):
    for r, s in multidegrees(d, max_total):
        yield from enumerate_monomials(d, r, s, Regime.FREE)


def test_deep_trees_compare_and_hash_within_default_recursion_limit():
    leaf = OrderedTree(None, ())
    pairs = []
    for first in (1, 2):
        ot, ot2 = OrderedTree(first, (leaf,)), OrderedTree(1, (leaf,))
        bt, bt2 = BinaryTree(None, first, BinaryTree()), BinaryTree(None, 1, BinaryTree())
        for i in range(3000):
            ot, ot2 = OrderedTree(1, (ot,)), OrderedTree(1, (ot2,))
            if i % 2:
                bt, bt2 = BinaryTree(bt, None, None), BinaryTree(bt2, None, None)
            else:
                bt, bt2 = BinaryTree(None, 2, bt), BinaryTree(None, 2, bt2)
        pairs.append((ot, ot2, bt, bt2))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        (ot, ot2, bt, bt2), (ot_x, _, bt_x, _) = pairs
        assert ot == ot2 and hash(ot) == hash(ot2)
        assert bt == bt2 and hash(bt) == hash(bt2)
        assert ot != ot_x and bt != bt_x  # the innermost label differs
        assert ot != bt and len({ot, ot2, bt, bt2}) == 2
    finally:
        sys.setrecursionlimit(limit)


class TestOrderedTrees:
    def test_star_is_leaf(self):
        assert to_ordered_tree(STAR) == OrderedTree(None, ())

    def test_round_trip_all_small(self):
        for m in small_monomials():
            t = to_ordered_tree(m)
            assert from_ordered_tree(t) == m

    def test_statistics(self):
        ms = enumerate_monomials(2, 2, (2, 1), Regime.FREE)
        trees = {to_ordered_tree(m) for m in ms}
        assert len(trees) == 30

        def leaves(t):
            return 1 if not t.children else sum(leaves(c) for c in t.children)

        def labels(t):
            out = [t.label] if t.label else []
            for c in t.children:
                out.extend(labels(c))
            return out

        for t in trees:
            assert leaves(t) == 2
            assert sorted(labels(t)) == [1, 1, 2]

    def test_monotone_chains_iff_canonical(self):
        for m in small_monomials():
            t = to_ordered_tree(m)
            canonical = canonicalize(m, Regime.COMM_UNARY) == m

            def chains_ok(node):
                if node.label is not None:
                    child = node.children[0]
                    if child.label is not None and node.label > child.label:
                        return False
                return all(chains_ok(c) for c in node.children)

            assert chains_ok(t) == canonical

    def test_arity_violations_rejected(self):
        with pytest.raises(ValueError):
            from_ordered_tree(OrderedTree(None, (OrderedTree(None, ()),)))
        with pytest.raises(ValueError):
            from_ordered_tree(OrderedTree(1, ()))

    def test_product_under_product_rejected(self):
        leaf = OrderedTree(None, ())
        inner = OrderedTree(None, (leaf, leaf))
        with pytest.raises(ValueError, match="product node directly under"):
            from_ordered_tree(OrderedTree(None, (leaf, inner)))
        assert from_ordered_tree(OrderedTree(1, (inner,))) == parse_monomial("P1(**)")

    @pytest.mark.parametrize("shape", ["chain", "nest", "wide"])
    def test_deep_round_trip_within_default_recursion_limit(self, shape):
        # chain: P1(P1(...P1(*)...)); nest: P1(*P1(*...P1(*)...)), products
        # nested 3000 deep; wide: one product of 3000 factors P1(*)
        leaf = OrderedTree(None, ())
        if shape == "wide":
            text = "P1(*)" * 3000
            want = OrderedTree(None, (OrderedTree(1, (leaf,)),) * 3000)
        else:
            text = ("P1(" if shape == "chain" else "P1(*") * 3000 + ")" * 3000
            if shape == "chain":
                text = text.replace("P1()", "P1(*)")
            want = OrderedTree(1, (leaf,))
            for _ in range(2999):
                inner = want if shape == "chain" else OrderedTree(None, (leaf, want))
                want = OrderedTree(1, (inner,))
        m = parse_monomial(text)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            t = to_ordered_tree(m)
            back = from_ordered_tree(t)
            assert t == want and back == m
        finally:
            sys.setrecursionlimit(limit)


class TestPaths:
    def test_star_single_horizontal(self):
        assert to_path(STAR, 1) == LatticePath((("H", 1),))

    def test_round_trip_all_small(self):
        for ell in (1, 2, 3):
            for m in small_monomials():
                p = to_path(m, ell)
                validate_path(p)
                assert from_path(p, 2) == m
                assert p.span() == word_length(m, ell)

    def test_paths_are_peakless(self):
        m = parse_monomial("P1(*P2(*))")
        p = to_path(m, 2)
        steps = [s[0] for s in p.steps]
        assert ("U", "D") not in zip(steps, steps[1:])

    def test_invalid_paths_rejected(self):
        with pytest.raises(ValueError, match="peak"):
            validate_path(path_from_text("U1 D", 1))
        with pytest.raises(ValueError, match="below"):
            validate_path(path_from_text("H D U1 H", 1))
        with pytest.raises(ValueError, match="axis"):
            validate_path(path_from_text("U1 H", 1))

    @pytest.mark.parametrize("steps,message", [
        ((("U", 0), ("H", 1), ("D",)), "up-step labels must be >= 1"),
        ((("H", 0),), "horizontal span must be >= 1"),
        ((("H", 1), ("H", 2)), "mixed horizontal spans in one path"),
    ])
    def test_invalid_steps_rejected(self, steps, message):
        for check in (validate_path, lambda p: from_path(p, 2), matched_ascent_monotone):
            with pytest.raises(ValueError, match=message):
                check(LatticePath(steps))

    def test_bad_step_text_rejected(self):
        with pytest.raises(ValueError, match="bad path step 'X'"):
            path_from_text("U1 H X D", 1)

    def test_ell_below_one_rejected(self):
        with pytest.raises(ValueError, match="ell >= 1"):
            to_path(STAR, 0)

    def test_matched_ascent_examples(self):
        # all three matching down-steps form one descent, so the whole
        # ascent is matched and its labels 1,2,1 are constrained
        p = path_from_text("U1 U2 U1 H H D D D", 1)
        assert not matched_ascent_monotone(p)
        # same label sequence, but the matches split across two descents:
        # the matched ascents are U1 U2 and U1, both weakly increasing
        q = path_from_text("U1 U2 U1 H D H D D", 1)
        assert matched_ascent_monotone(q)
        # within that split, the leading pair is still matched together
        assert not matched_ascent_monotone(path_from_text("U2 U1 U1 H D H D D", 1))
        # one-step ascents are always fine
        assert matched_ascent_monotone(path_from_text("U2 H D", 1))

    @pytest.mark.parametrize("text,message", [
        ("U1 D", "peak: up-step immediately followed by down-step"),
        ("H D", "path dips below the axis"),
        ("U1 H D D U1 H D", "path dips below the axis"),
        ("U1 U2 H", "path does not end on the axis"),
        # not monotone, and still checked to the end
        ("U2 U1 H D D U1 H", "path does not end on the axis"),
    ])
    def test_matched_ascent_rejects_an_invalid_path(self, text, message):
        p = path_from_text(text, 1)
        for check in (validate_path, matched_ascent_monotone):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(p)

    def test_monotone_iff_canonical(self):
        for ell in (1, 2):
            for m in small_monomials():
                p = to_path(m, ell)
                assert matched_ascent_monotone(p) == (
                    canonicalize(m, Regime.COMM_UNARY) == m)

    def test_bad_sizes_rejected(self):
        for args in [(1, 0, 3), (0, 1, 3), (1, 1, -1)]:
            with pytest.raises(ValueError):
                all_lattice_paths(*args)
        assert all_lattice_paths(1, 1, 0) == [LatticePath(())]

    def test_generator_leaves_no_cyclic_garbage(self):
        assert cyclic_garbage(all_lattice_paths, 2, 1, 8) == 0

    def test_deep_paths_need_no_recursion(self):
        # H H, and 550 up-steps over one H: 1101 steps deep
        paths = all_lattice_paths(1, 1100, 2200)
        assert [p.to_text() for p in paths] == ["H H", " ".join(["U1"] * 550 + ["H"] + ["D"] * 550)]

    def test_over_the_cap_refused_before_listing(self):
        with pytest.raises(EnumerationCapExceeded, match="paths or more"):
            all_lattice_paths(1, 1, 1100)
        with pytest.raises(EnumerationCapExceeded, match="trees or more"):
            all_binary_trees(1100, 1)

    def test_model_side_count_small_schroeder(self):
        # unfiltered two-label peakless paths of span 2n, ell=2
        want = length_sequence(Regime.FREE, 2, 2, 8).table_terms()
        got = [len(all_lattice_paths(2, 2, 2 * n)) for n in range(1, 5)]
        assert got == want

    def test_model_side_monotone_count(self):
        paths = all_lattice_paths(2, 3, 10)
        good = [p for p in paths if matched_ascent_monotone(p)]
        assert len(good) == 21
        assert len(good) == count_by_length(2, 3, 10, Regime.COMM_UNARY)

    def test_filter_equivalence_sweep(self):
        cases = [(2, 1, range(1, 11)), (3, 1, range(1, 9)),
                 (2, 2, range(2, 13, 2)), (2, 3, range(3, 13))]
        for d, ell, spans in cases:
            seq = length_sequence(Regime.COMM_UNARY, d, ell, max(spans))
            for n in spans:
                good = sum(matched_ascent_monotone(p)
                           for p in all_lattice_paths(d, ell, n))
                assert good == seq.value(n), (d, ell, n)

    def test_model_side_round_trip(self):
        for d, ell, span in [(2, 1, 6), (2, 2, 8), (1, 3, 9)]:
            for p in all_lattice_paths(d, ell, span):
                assert to_path(from_path(p, d), ell) == p


EX_LEAF = BinaryTree()
EX_TREE = BinaryTree(
    BinaryTree(EX_LEAF, 2, EX_LEAF),
    2,
    BinaryTree(None, 1, BinaryTree(EX_LEAF, 1, EX_LEAF)),
)


class TestBinaryTrees:
    def test_worked_example(self):
        m = from_binary_tree(EX_TREE, 2)
        assert m == parse_monomial("*P2(*)P2(P1(*P1(*)))")
        assert to_binary_tree(m) == EX_TREE
        assert count_vertices(EX_TREE) == 8
        assert word_length(m, 2) == 16

    def test_worked_example_not_monotone(self):
        assert not right_chain_monotone(EX_TREE)

    def test_single_node_monotone(self):
        assert right_chain_monotone(BinaryTree())

    def test_empty(self):
        assert to_binary_tree(None) is None
        assert from_binary_tree(None, 3) is None

    def test_bad_sizes_rejected(self):
        for n, d in [(3, 0), (-1, 2)]:
            with pytest.raises(ValueError):
                all_binary_trees(n, d)
        assert all_binary_trees(0, 1) == [None]

    def test_round_trip_all_small(self):
        for m in small_monomials():
            t = to_binary_tree(m)
            assert from_binary_tree(t, 2) == m
            assert 2 * count_vertices(t) == word_length(m, 2)

    def test_round_trip_from_model_side(self):
        for n in range(0, 5):
            for t in all_binary_trees(n, 2):
                assert to_binary_tree(from_binary_tree(t, 2)) == t

    def test_model_counts(self):
        # unfiltered trees match the free counts, filtered the commuting ones
        free = length_sequence(Regime.FREE, 3, 2, 10).table_terms()
        comm = length_sequence(Regime.COMM_UNARY, 3, 2, 10).table_terms()
        for n in range(1, 6):
            trees = all_binary_trees(n, 3)
            assert len(trees) == free[n - 1]
            assert sum(right_chain_monotone(t) for t in trees) == comm[n - 1]

    def test_three_vertex_reference_count(self):
        trees = all_binary_trees(3, 3)
        assert len(trees) == 19
        assert sum(right_chain_monotone(t) for t in trees) == 16

    def test_monotone_iff_canonical(self):
        for m in small_monomials():
            t = to_binary_tree(m)
            assert right_chain_monotone(t) == (
                canonicalize(m, Regime.COMM_UNARY) == m)

    def test_label_and_shape_validation(self):
        with pytest.raises(ValueError):
            BinaryTree(None, 1, None)
        with pytest.raises(ValueError):
            from_binary_tree(BinaryTree(None, 5, BinaryTree()), 2)

    def test_text_rendering(self):
        assert binary_tree_text(None) == "."
        assert binary_tree_text(BinaryTree()) == "(. - .)"
        assert binary_tree_text(EX_TREE) == (
            "(((. - .) 2 (. - .)) 2 (. 1 ((. - .) 1 (. - .))))")

    @pytest.mark.parametrize("shape", ["chain", "nest", "wide"])
    def test_deep_maps_within_default_recursion_limit(self, shape):
        # chain: P1(P1(...P1(*)...)); nest: P1(*P1(*...P1(*)...)), products
        # nested 3000 deep; wide: one product of 3000 factors P1(*)
        leaf, n = BinaryTree(), 3000
        if shape == "chain":
            text = "P1(" * n + "*" + ")" * n
            want = leaf
            for _ in range(n):
                want = BinaryTree(None, 1, want)
            drawn = "(. 1 " * n + "(. - .)" + ")" * n
        elif shape == "nest":
            # P1(c_n) with c_1 = * and c_k = * P1(c_(k-1))
            text = "P1(*" * n + ")" * n
            want = leaf
            for _ in range(n - 1):
                want = BinaryTree(leaf, 1, want)
            want = BinaryTree(None, 1, want)
            drawn = "(. 1 " + "((. - .) 1 " * (n - 1) + "(. - .)" + ")" * n
        else:
            text = "P1(*)" * n
            want = None
            for _ in range(n):
                want = BinaryTree(want, 1, leaf)
            drawn = "(" * n + "." + " 1 (. - .))" * n
        m = parse_monomial(text)
        # the same shape with one decreasing chain P2(P1(*)) at the bottom
        unsorted = parse_monomial(text.replace("P1(*)", "P2(P1(*))", 1))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            t = to_binary_tree(m)
            assert t == want and from_binary_tree(t, 1) == m
            assert 2 * count_vertices(t) == word_length(m, 2)
            assert binary_tree_text(t) == drawn
            assert right_chain_monotone(t)
            assert not right_chain_monotone(to_binary_tree(unsorted))
            with pytest.raises(ValueError, match=r"label 1 out of range \[1, 0\]"):
                from_binary_tree(t, 0)
        finally:
            sys.setrecursionlimit(limit)


class TestDyck:
    def test_star_is_peak(self):
        assert dyck_transform(STAR, 2) == (1, -1)

    def test_requires_one_operator(self):
        with pytest.raises(ValueError):
            dyck_transform(parse_monomial("P2(*)"), 1)

    def test_round_trip(self):
        for ell in (1, 2, 3):
            for m in small_monomials(d=1, max_total=5):
                p = dyck_transform(m, ell)
                assert dyck_run_lengths_ok(p, ell)
                assert dyck_inverse(p, ell) == m
                r, (k,) = degree(m), multiplicity(m, 1)
                assert len(p) == 2 * (r + ell * k)

    def test_round_trip_from_model_side(self):
        for ell in (1, 2, 3):
            for half in range(1, 7):
                for p in all_dyck_paths(half):
                    if dyck_run_lengths_ok(p, ell):
                        assert dyck_transform(dyck_inverse(p, ell), ell) == p

    def test_every_dyck_path_qualifies_at_ell_one(self):
        catalan = [1, 2, 5, 14, 42]
        for n in range(1, 6):
            paths = all_dyck_paths(n)
            assert len(paths) == catalan[n - 1]
            assert all(dyck_run_lengths_ok(p, 1) for p in paths)

    def test_negative_semilength_rejected(self):
        with pytest.raises(ValueError, match="semilength >= 0"):
            all_dyck_paths(-1)
        assert all_dyck_paths(0) == [()]

    def test_equinumerosity(self):
        for ell in (1, 2, 3):
            for half in range(1, 9):
                qual = sum(dyck_run_lengths_ok(p, ell) for p in all_dyck_paths(half))
                n = half + ell - 1
                want = length_sequence(Regime.FREE, 1, 2 * ell, 2 * n).value(2 * n)
                assert qual == want

    @pytest.mark.parametrize("ell", [0, -1])
    def test_ell_below_one_rejected(self, ell):
        calls = [lambda: dyck_transform(STAR, ell),
                 lambda: dyck_run_lengths_ok((1, -1), ell),
                 lambda: dyck_inverse((1, -1), ell)]
        for call in calls:
            with pytest.raises(ValueError, match="ell >= 1"):
                call()

    def test_bad_run_length_rejected(self):
        with pytest.raises(ValueError):
            dyck_inverse((1, 1, -1, -1), 2)

    def test_generator_leaves_no_cyclic_garbage(self):
        assert cyclic_garbage(all_dyck_paths, 6) == 0

    def test_over_the_cap_refused_before_listing(self, monkeypatch):
        # Catalan(5) = 42 paths are one more than the cap, Catalan(4) = 14 fewer
        monkeypatch.setattr(bijections, "DEFAULT_CAP", 41)
        with pytest.raises(EnumerationCapExceeded, match="Dyck paths or more"):
            all_dyck_paths(5)
        assert len(all_dyck_paths(4)) == 14
