"""Enumeration of multi-operator monomials in four commutativity regimes.

Monomials are generated from one indeterminate by an associative product
and d unary operators.  Depending on whether the operators and/or the
product commute, the package provides exact multigraded and length-graded
counts (closed forms and recurrences), a brute-force enumerator that serves
as ground truth, generating-series solvers, bijections onto trees and
lattice paths, and growth-rate analysis.

Importing the package loads none of its modules: each public name, and each
submodule, is imported on first access (PEP 562), so a caller pays only for
the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": (
        "GrowthResult",
        "growth",
        "growth_estimate",
    ),
    "bijections": (
        "BinaryTree",
        "LatticePath",
        "OrderedTree",
        "all_binary_trees",
        "all_dyck_paths",
        "all_lattice_paths",
        "count_vertices",
        "dyck_inverse",
        "dyck_run_lengths_ok",
        "dyck_transform",
        "from_binary_tree",
        "from_ordered_tree",
        "from_path",
        "matched_ascent_monotone",
        "right_chain_monotone",
        "to_binary_tree",
        "to_ordered_tree",
        "to_path",
        "validate_path",
    ),
    "counting": (
        "LengthSequence",
        "SelfCheckError",
        "check_symmetry_a1",
        "count",
        "free_length_closed",
        "length_sequence",
        "multinomial",
        "narayana",
    ),
    "monomial": (
        "STAR",
        "Monomial",
        "Product",
        "Regime",
        "Star",
        "Unary",
        "canonical_key",
        "canonicalize",
        "decode_word",
        "degree",
        "encode_word",
        "format_monomial",
        "is_atom",
        "is_canonical",
        "multiplicity",
        "parse_monomial",
        "product",
        "word_length",
    ),
    "oracle": (
        "DEFAULT_CAP",
        "EnumerationCapExceeded",
        "compositions",
        "count_by_length",
        "enumerate_monomials",
    ),
    "series": (
        "closed_form_free",
        "euler_exp_log",
        "series_for",
    ),
}
_SUBMODULES = ("fixtures", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # binds the attribute
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
