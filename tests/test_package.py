"""The package's public surface: the names it exports, each loaded on first
access."""

import importlib

import pytest

import opmono

SURFACE = {
    "asymptotics": "GrowthResult growth growth_estimate",
    "bijections": "BinaryTree LatticePath OrderedTree all_binary_trees all_dyck_paths "
                  "all_lattice_paths count_vertices dyck_inverse dyck_run_lengths_ok "
                  "dyck_transform from_binary_tree from_ordered_tree from_path "
                  "matched_ascent_monotone right_chain_monotone to_binary_tree "
                  "to_ordered_tree to_path validate_path",
    "counting": "LengthSequence SelfCheckError check_symmetry_a1 count free_length_closed "
                "length_sequence multinomial narayana",
    "monomial": "STAR Monomial Product Regime Star Unary canonical_key canonicalize "
                "decode_word degree encode_word format_monomial is_atom is_canonical "
                "multiplicity parse_monomial product word_length",
    "oracle": "DEFAULT_CAP EnumerationCapExceeded compositions count_by_length "
              "enumerate_monomials",
    "series": "closed_form_free euler_exp_log series_for",
}
NAMES = [(module, name) for module, names in SURFACE.items() for name in names.split()]


def test_all_lists_the_exported_names():
    assert len(NAMES) == 56
    assert sorted(opmono.__all__) == sorted([name for _, name in NAMES] + ["__version__"])


def test_each_name_is_its_module_attribute():
    listed = dir(opmono)
    for module, name in NAMES:
        home = importlib.import_module(f"opmono.{module}")
        assert getattr(opmono, name) is getattr(home, name), name
        assert name in listed, name


def test_submodules_are_attributes():
    for module in [*SURFACE, "fixtures"]:
        assert getattr(opmono, module) is importlib.import_module(f"opmono.{module}")
        assert module in dir(opmono)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from opmono import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(opmono.__all__)


def test_unknown_name_raises_attribute_error():
    # three were folded into series_for, and Series gave way to LengthSequence
    for name in ("nosuch", "solve_quadratic_fe", "euler_series", "unary_layer_series",
                 "Series"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(opmono, name)
    with pytest.raises(ImportError):
        from opmono import nosuch  # noqa: F401
