"""Term algebra for multi-operator monomials.

A monomial is built from a single indeterminate ``*`` by an associative
product and ``d`` unary operators ``P1 .. Pd``.  Products are stored
flattened: the factors of a :class:`Product` are atoms (the indeterminate or
a unary application), so associativity never needs a quotient.

The bracketed word is the one walk of the term algebra: :func:`encode_word`
reads it with one explicit stack (the walks dispatch on the exact node type),
the gradings, the text form, equality and hashing read its tokens, and
:func:`decode_word` is the only parser (:func:`parse_monomial` lexes text
into tokens for it).  Nothing recurses, so depth is bounded only by memory.

Four commutativity regimes are supported.  Making the unary operators
commute and/or the product commute turns monomials into equivalence
classes; :func:`canonicalize` picks the canonical representative of each
class (weakly increasing unary chains, and/or product factors sorted by
:func:`canonical_key`).  The key is a flat preorder code: ``*`` is 0,
``Pi(c)`` is 1, i, code(c), and a product is 2, its factors' codes, -1.
Distinct codes of a prefix code differ inside both, and -1 sorts below every
tag, so tuple order on codes is the order of the nested keys (0,),
(1, i, key(c)) and (2, key(f1), key(f2), ...).
"""

from __future__ import annotations

import re
from enum import Enum
from operator import itemgetter


class Regime(Enum):
    """Commutativity regime, two switches.  Values double as the CLI codes."""

    FREE = "free"          # nothing commutes
    COMM_UNARY = "c"       # unary operators commute
    COMM_MULT = "m"        # multiplication commutes
    COMM_BOTH = "cm"       # both commute

    def __init__(self, code: str) -> None:
        self.unary_commute = code in ("c", "cm")
        self.mult_commute = code in ("m", "cm")

    @classmethod
    def from_code(cls, code: str) -> "Regime":
        try:
            return _REGIMES[code]
        except (KeyError, TypeError):  # TypeError: an unhashable code
            raise ValueError(f"unknown regime code {code!r}; expected one of "
                             f"{[r.value for r in cls]}") from None


_REGIMES = {key: regime for regime in Regime for key in (regime.value, regime)}


class Monomial:
    """Base of Star, Unary and Product; immutable, and equal when their
    words are equal."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self is other or encode_word(self) == encode_word(other)

    def __hash__(self) -> int:
        return hash(encode_word(self))

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self)!r})"


class Star(Monomial):
    __slots__ = ()


class Unary(Monomial):
    __slots__ = __match_args__ = ("label", "child")
    label: int
    child: Monomial

    def __init__(self, label: int, child: Monomial) -> None:
        if label < 1:
            raise ValueError(f"unary label must be >= 1, got {label}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "child", child)

    def __reduce__(self):
        return Unary, (self.label, self.child)


class Product(Monomial):
    __slots__ = __match_args__ = ("factors",)
    factors: tuple[Monomial, ...]

    def __init__(self, factors: tuple[Monomial, ...]) -> None:
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        for f in factors:
            if isinstance(f, Product):
                raise ValueError("product factors must be atoms; flatten first")
        object.__setattr__(self, "factors", factors)

    def __reduce__(self):
        return Product, (self.factors,)


STAR = Star()


def is_atom(m: Monomial) -> bool:
    """An atom is the indeterminate or a unary application."""
    return not isinstance(m, Product)


def factors(m: Monomial) -> tuple[Monomial, ...]:
    """The sequence of atoms whose product is ``m`` (itself if an atom)."""
    return m.factors if isinstance(m, Product) else (m,)


def product(parts) -> Monomial:
    """Smart constructor: flattens nested products, unwraps singletons."""
    flat: list[Monomial] = []
    for p in parts:
        flat.extend(factors(p))
    if not flat:
        raise ValueError("empty product")
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def degree(m: Monomial) -> int:
    """Number of occurrences of the indeterminate."""
    return encode_word(m).count(0)


def multiplicity(m: Monomial, d: int) -> tuple[int, ...]:
    """Vector whose i-th entry counts unary nodes labeled i+1.

    Raises ValueError if some label exceeds ``d``.
    """
    s = [0] * d
    for t in encode_word(m):
        if t > 0:
            if t > d:
                raise ValueError(f"label {t} out of range [1, {d}]")
            s[t - 1] += 1
    return tuple(s)


def _check_ell(ell: int) -> None:
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")


def word_length(m: Monomial, ell: int) -> int:
    """Length of the bracketed word when ``*`` has length ``ell`` and every
    delimiter has length 1."""
    _check_ell(ell)
    w = encode_word(m)
    return (ell - 1) * w.count(0) + len(w)


def canonical_key(m: Monomial) -> tuple[int, ...]:
    """Total order on monomials, Star < Unary < Product, unary nodes by
    (label, child), products by factor lists, as a flat preorder code."""
    out: list[int] = []
    todo: list = [m]  # subterms still to read, and pending product ends (-1)
    while todo:
        v = todo.pop()
        if type(v) is int:
            out.append(v)
        elif type(v) is Unary:
            out += (1, v.label)
            todo.append(v.child)
        elif type(v) is Star:
            out.append(0)
        else:
            out.append(2)
            todo.append(-1)
            todo.extend(reversed(v.factors))
    return tuple(out)


def canonicalize(m: Monomial, regime: Regime) -> Monomial:
    """Canonical representative of the equivalence class of ``m``.

    FREE is the identity.  When the unary operators commute, every maximal
    chain of nested unary nodes is sorted into weakly increasing labels read
    from the outside in.  When multiplication commutes, every product's
    factor list is sorted by :func:`canonical_key`.  Built bottom-up;
    idempotent.
    """
    if regime is Regime.FREE:
        return m
    # finished subterms with their keys, so no product reads its factors again
    done: list[tuple[Monomial, list[int]]] = []
    # subterms to visit, and frames to finish after their subterms: a label
    # list (outside in) for a maximal unary chain, a factor count for a product
    todo: list = [m]
    while todo:
        v = todo.pop()
        if type(v) is Star:
            done.append((v, [0]))
        elif type(v) is Unary:
            labels = []
            while type(v) is Unary:
                labels.append(v.label)
                v = v.child
            todo += (labels, v)
        elif type(v) is Product:
            todo.append(len(v.factors))
            todo.extend(reversed(v.factors))
        elif type(v) is int:
            fs = done[-v:]
            del done[-v:]
            if regime.mult_commute:
                fs.sort(key=itemgetter(1))
            key = [2]
            for _, k in fs:
                key += k
            key.append(-1)
            done.append((Product(tuple([f for f, _ in fs])), key))
        else:
            if regime.unary_commute:
                v.sort()
            out, key = done.pop()
            for label in reversed(v):
                out = Unary(label, out)
            done.append((out, [x for label in v for x in (1, label)] + key))
    return done[0][0]


def is_canonical(m: Monomial, regime: Regime) -> bool:
    return encode_word(canonicalize(m, regime)) == encode_word(m)


# ---------------------------------------------------------------------------
# Bracketed-word codec.
#
# A word is a tuple of integer tokens: 0 for the indeterminate, +i for the
# opening delimiter of operator i, -i for the closing delimiter.

def encode_word(m: Monomial) -> tuple[int, ...]:
    out: list[int] = []
    todo: list = [m]  # subterms still to read, and pending closing tokens
    while todo:
        v = todo.pop()
        if type(v) is int:
            out.append(v)
        elif type(v) is Unary:
            out.append(v.label)
            todo += (-v.label, v.child)
        elif type(v) is Star:
            out.append(0)
        else:
            todo.extend(reversed(v.factors))
    return tuple(out)


def decode_word(tokens, d: int) -> Monomial:
    """Inverse of :func:`encode_word`.

    Raises ValueError on unbalanced delimiters, an empty delimiter interior,
    or a label outside [1, d].
    """
    label, parts = 0, []  # the innermost open delimiter and the atoms inside it
    outer: list[tuple[int, list[Monomial]]] = []
    for t in tokens:
        if t == 0:
            parts.append(STAR)
        elif t > 0:
            if not 1 <= t <= d:
                raise ValueError(f"label {t} out of range [1, {d}]")
            outer.append((label, parts))
            label, parts = t, []
        elif t != -label:
            raise ValueError("unbalanced delimiters")
        elif not parts:
            raise ValueError("empty delimiter interior")
        else:  # parts holds atoms only
            inner = parts[0] if len(parts) == 1 else Product(tuple(parts))
            label, parts = outer.pop()
            parts.append(Unary(-t, inner))
    if outer:
        raise ValueError("unbalanced delimiters: unclosed delimiter")
    return product(parts)  # raises ValueError on the empty word


def word_to_text(tokens) -> str:
    """Render a token word as text: ``*`` and ``(i`` / ``)i`` delimiters."""
    return " ".join("*" if t == 0 else f"({t}" if t > 0 else f"){-t}" for t in tokens)


def word_from_text(text: str) -> tuple[int, ...]:
    out = []
    for bit in text.split():
        label = bit[1:]  # a delimiter's label is a decimal integer >= 1
        if bit == "*":
            out.append(0)
        elif bit[0] in "()" and label.isdecimal() and int(label) >= 1:
            out.append(int(label) if bit[0] == "(" else -int(label))
        else:
            raise ValueError(f"bad word token {bit!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Textual monomial grammar: `*`, `Pi(<mono>)`, juxtaposition for products,
# e.g. `*P1(*P2(**))`.  The text is the word with `Pi(` and `)` for the
# delimiters, so formatting maps tokens and parsing lexes them back.

def format_monomial(m: Monomial) -> str:
    return "".join("*" if t == 0 else f"P{t}(" if t > 0 else ")"
                   for t in encode_word(m))


_LEXEME = re.compile(r"(\*)|P(\d+)\s*\(|(\))|\s+|(.)", re.DOTALL)


def parse_monomial(text: str, d: int | None = None) -> Monomial:
    """Parse the textual grammar.  If ``d`` is given, labels are validated."""
    tokens: list[int] = []
    opened: list[int] = []  # labels of the open `Pi(`, innermost last
    for lexeme in _LEXEME.finditer(text):
        star, label, close, bad = lexeme.groups()
        if bad is not None:
            raise ValueError(f"unexpected character {bad!r} at position {lexeme.start()}")
        if star:
            tokens.append(0)
        elif label:
            if int(label) < 1:
                raise ValueError(f"label {label} out of range")
            opened.append(int(label))
            tokens.append(opened[-1])
        elif close:
            if not opened:
                raise ValueError(f"unbalanced parentheses at position {lexeme.start()}")
            tokens.append(-opened.pop())
    return decode_word(tokens, max(tokens, default=0) if d is None else d)
