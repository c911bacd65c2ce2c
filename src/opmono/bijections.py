"""Invertible maps between monomials and their combinatorial models: rooted
ordered trees, peakless lattice paths with labeled up-steps, binary trees
with labeled right edges, and (one operator only) restricted Dyck paths.

Every model re-encodes the bracketed word of :func:`encode_word`.  A map onto
a model is one pass over that word; a map back writes the word's tokens and
leaves building and checking the monomial to :func:`decode_word`.  The
ordered-tree inverse is the one exception: it builds the monomial itself.

Model-side brute-force generators are provided as well, so that counting
checks can be run from the model side without going through the monomial
enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import narayana
from .monomial import (
    STAR,
    Monomial,
    Product,
    Unary,
    _check_ell,
    decode_word,
    encode_word,
)
from .oracle import DEFAULT_CAP, EnumerationCapExceeded


class _ByPreorder:
    """Equality and hashing over a flat preorder code, so that deep trees
    compare without recursion."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(self._preorder())


# ---------------------------------------------------------------------------
# Rooted ordered trees: leaves are occurrences of the indeterminate, unary
# internal nodes carry operator labels, other internal nodes (>= 2 children)
# are products.

@dataclass(frozen=True, slots=True, eq=False)
class OrderedTree(_ByPreorder):
    label: int | None
    children: tuple["OrderedTree", ...]

    def _preorder(self) -> tuple:
        """Flat preorder code: each node's label, then its child count."""
        out: list = []
        todo = [self]
        while todo:
            v = todo.pop()
            out += (v.label, len(v.children))
            todo.extend(reversed(v.children))
        return tuple(out)


def _ordered_product(parts: list[OrderedTree]) -> OrderedTree:
    return parts[0] if len(parts) == 1 else OrderedTree(None, tuple(parts))


def to_ordered_tree(m: Monomial) -> OrderedTree:
    leaf = OrderedTree(None, ())
    # the subtrees inside the innermost open delimiter, and the lists it interrupts
    parts: list[OrderedTree] = []
    outer: list[list[OrderedTree]] = []
    for x in encode_word(m):
        if x == 0:
            parts.append(leaf)
        elif x > 0:
            outer.append(parts)
            parts = []
        else:
            inner = _ordered_product(parts)
            parts = outer.pop()
            parts.append(OrderedTree(-x, (inner,)))
    return _ordered_product(parts)


def from_ordered_tree(t: OrderedTree) -> Monomial:
    """Inverse of :func:`to_ordered_tree`; raises ValueError on a tree that
    is not the image of a monomial."""
    done: list[Monomial] = []  # finished subterms, in order
    # nodes to visit, and frames to finish after their subtrees: a label for
    # a unary node, the children tuple for a product
    todo: list = [t]
    while todo:
        v = todo.pop()
        if type(v) is OrderedTree:
            label, children = v.label, v.children
            if label is not None:
                if len(children) != 1:
                    raise ValueError("a labeled node must have exactly one child")
                todo += (label, children[0])
            elif not children:
                done.append(STAR)
            elif len(children) < 2:
                raise ValueError("an unlabeled internal node needs >= 2 children")
            else:
                for c in children:
                    if c.label is None and len(c.children) > 1:
                        raise ValueError("product node directly under a product node")
                todo.append(children)
                todo.extend(reversed(children))
        elif type(v) is int:
            done.append(Unary(v, done.pop()))
        else:
            parts = tuple(done[-len(v):])
            del done[-len(v):]
            done.append(Product(parts))
    return done[0]


# ---------------------------------------------------------------------------
# Lattice paths.  Steps: ("U", label), ("D",), ("H", span).  Opening
# delimiters map to labeled up-steps, closing delimiters to down-steps, and
# the indeterminate to a horizontal step of span ell.

@dataclass(frozen=True, slots=True)
class LatticePath:
    steps: tuple[tuple, ...]

    def span(self) -> int:
        return sum(s[1] if s[0] == "H" else 1 for s in self.steps)

    def to_text(self) -> str:
        return " ".join(f"U{s[1]}" if s[0] == "U" else s[0] for s in self.steps)


def path_from_text(text: str, ell: int) -> LatticePath:
    steps = []
    for bit in text.split():
        if bit.startswith("U"):
            steps.append(("U", int(bit[1:])))
        elif bit == "D":
            steps.append(("D",))
        elif bit == "H":
            steps.append(("H", ell))
        else:
            raise ValueError(f"bad path step {bit!r}")
    return LatticePath(tuple(steps))


def _read_path(p: LatticePath) -> tuple[list[int], bool]:
    """The bracketed word of p and whether p is matched-ascent monotone,
    read in one pass that checks p as :func:`validate_path` says."""
    tokens: list[int] = []  # one per step, so a step's index is its token's
    ups: list[int] = []  # indices of the up-steps not yet matched
    span = None
    closed = -1  # the up-step that the last down-step matched
    monotone = True
    for s in p.steps:
        kind = s[0]
        if kind == "U":
            if s[1] < 1:
                raise ValueError("up-step labels must be >= 1")
            ups.append(len(tokens))
            tokens.append(s[1])
        elif kind == "D":
            if not ups:
                raise ValueError("path dips below the axis")
            last, u = tokens[-1], ups.pop()
            if last > 0:
                raise ValueError("peak: up-step immediately followed by down-step")
            # two adjacent up-steps matched by adjacent down-steps
            if last < 0 and closed == u + 1 and tokens[u] > tokens[closed]:
                monotone = False
            tokens.append(-tokens[u])
            closed = u
        else:
            if s[1] != span:
                if s[1] < 1:
                    raise ValueError("horizontal span must be >= 1")
                if span is not None:
                    raise ValueError("mixed horizontal spans in one path")
                span = s[1]
            tokens.append(0)
    if ups:
        raise ValueError("path does not end on the axis")
    return tokens, monotone


def validate_path(p: LatticePath) -> None:
    """Raise ValueError unless p stays nonnegative, ends at height 0, is
    peakless, and uses one fixed horizontal span."""
    _read_path(p)


def to_path(m: Monomial, ell: int) -> LatticePath:
    _check_ell(ell)
    steps = []
    for t in encode_word(m):
        if t == 0:
            steps.append(("H", ell))
        elif t > 0:
            steps.append(("U", t))
        else:
            steps.append(("D",))
    return LatticePath(tuple(steps))


def from_path(p: LatticePath, d: int) -> Monomial:
    return decode_word(_read_path(p)[0], d)


def matched_ascent_monotone(p: LatticePath) -> bool:
    """True iff every matched ascent carries weakly increasing labels.

    A matched ascent is a maximal block of consecutive up-steps whose
    matching down-steps sit together in a single descent; that forces the
    matching down-steps to be consecutive, so two adjacent up-steps belong
    to the same matched ascent exactly when their matches are adjacent
    (in reverse order).  Matched ascents are precisely the images of
    maximal unary chains.  Raises ValueError for a path that
    :func:`validate_path` rejects."""
    return _read_path(p)[1]


def _check_cap(d: int, ell: int, span: int, what: str) -> None:
    # the models of word length span are as many as the free monomials,
    # sum_r d^k*N(r+k, k) over ell*r + 2k = span, summed only until it passes
    # the cap; d^64 is above the cap for d >= 2, so no larger power is taken
    total = 0
    for r in range(1, span // ell + 1):
        k, odd = divmod(span - ell * r, 2)
        if not odd:
            total += d ** min(k, 64) * narayana(r + k, k)
            if total > DEFAULT_CAP:
                raise EnumerationCapExceeded(total, DEFAULT_CAP, what + " or more")


def _closes(ell: int, rest: int, height: int, after_up: bool) -> bool:
    # can a prefix at this height, with rest of the span left, end on the
    # axis?  Besides height down-steps it needs gap = 2u + ell*k for u up/down
    # pairs and k >= 1 horizontal steps (a down-step never follows an up-step)
    gap = rest - height
    if gap <= 0:
        return gap == 0 and not after_up
    return gap >= ell and ((gap - ell) % 2 == 0 or (ell % 2 == 1 and gap >= 2 * ell))


def all_lattice_paths(d: int, ell: int, span: int) -> list[LatticePath]:
    """All peakless nonnegative paths of the given total horizontal span
    ending on the axis, with d up-step labels and horizontal span ell.

    Raises :class:`oracle.EnumerationCapExceeded` before any listing when
    there are more than ``oracle.DEFAULT_CAP`` of them."""
    if d < 1 or ell < 1 or span < 0:
        raise ValueError("need d >= 1, ell >= 1 and span >= 0")
    _check_cap(d, ell, span, "paths")
    out: list[LatticePath] = []
    # a prefix is extended only while it can still close, children pushed
    # last first, so paths come out depth first: H, then U1..Ud, then D
    todo = [((), span, 0, False)] if _closes(ell, span, 0, False) else []
    while todo:
        steps, rest, height, after_up = todo.pop()
        if rest == 0:
            out.append(LatticePath(steps))
            continue
        if height and not after_up and _closes(ell, rest - 1, height - 1, False):
            todo.append((steps + (("D",),), rest - 1, height - 1, False))
        if _closes(ell, rest - 1, height + 1, True):
            todo += [(steps + (("U", i),), rest - 1, height + 1, True)
                     for i in range(d, 0, -1)]
        if _closes(ell, rest - ell, height, False):
            todo.append((steps + (("H", ell),), rest - ell, height, False))
    return out


# ---------------------------------------------------------------------------
# Binary trees with labeled right edges (the even-length, ell = 2 model).
# The empty tree corresponds to the empty monomial (None).

@dataclass(frozen=True, slots=True, eq=False)
class BinaryTree(_ByPreorder):
    left: "BinaryTree | None" = None
    right_label: int | None = None
    right: "BinaryTree | None" = None

    def __post_init__(self) -> None:
        if (self.right is None) != (self.right_label is None):
            raise ValueError("right child and right-edge label go together")

    def _preorder(self) -> tuple:
        """Flat preorder code: 1 and the right-edge label for a vertex, then
        its left and right subtrees; 0 for an empty subtree."""
        out: list = []
        todo: list = [self]
        while todo:
            v = todo.pop()
            if v is None:
                out.append(0)
            else:
                out += (1, v.right_label)
                todo += (v.right, v.left)
        return tuple(out)


def count_vertices(t: BinaryTree | None) -> int:
    n = 0
    todo = [t]  # subtrees still to count; each is walked down its left spine
    while todo:
        v = todo.pop()
        while v is not None:
            n += 1
            if v.right is not None:
                todo.append(v.right)
            v = v.left
    return n


def to_binary_tree(m: Monomial | None) -> BinaryTree | None:
    """The atoms of a product hang off the left spine, the first atom at the
    bottom; an atom P_i(c) is a right edge labeled i into the tree of c.
    Built in one pass over the bracketed word."""
    if m is None:
        return None
    # the spine inside the innermost open delimiter, and the spines it interrupts
    tree, outer = None, []
    for x in encode_word(m):
        if x == 0:
            tree = BinaryTree(tree, None, None)
        elif x > 0:
            outer.append(tree)
            tree = None
        else:
            tree = BinaryTree(outer.pop(), -x, tree)
    return tree


def from_binary_tree(t: BinaryTree | None, d: int) -> Monomial | None:
    """Inverse of :func:`to_binary_tree`; raises ValueError on a right-edge
    label outside [1, d]."""
    if t is None:
        return None
    tokens: list[int] = []
    todo: list = [t]  # subtrees still to write, each down its left spine, and tokens
    while todo:
        v = todo.pop()
        if type(v) is int:
            tokens.append(v)
            continue
        while v is not None:  # the root's atom is written last, so pushed first
            label = v.right_label
            if label is None:
                todo.append(0)
            elif label < 1:  # would read as the indeterminate or a closing delimiter
                raise ValueError(f"label {label} out of range [1, {d}]")
            else:
                todo += (-label, v.right, label)
            v = v.left
    return decode_word(tokens, d)


def right_chain_monotone(t: BinaryTree | None) -> bool:
    """True iff labels increase weakly along every right-edge chain whose
    intermediate vertices have no left child."""
    todo = [t]  # subtrees still to check; each is walked down its left spine
    while todo:
        v = todo.pop()
        while v is not None:
            r = v.right
            if r is not None:
                if (r.left is None and r.right_label is not None
                        and v.right_label > r.right_label):
                    return False
                todo.append(r)
            v = v.left
    return True


def binary_tree_text(t: BinaryTree | None) -> str:
    """"." for the empty tree, "(left label right)" for a vertex, with "-" as
    the label of a vertex without a right child."""
    out: list[str] = []
    todo: list = [t]  # subtrees still to render, and text to emit after them
    while todo:
        v = todo.pop()
        if type(v) is str:
            out.append(v)
        elif v is None:
            out.append(".")
        else:
            out.append("(")
            label = "-" if v.right is None else v.right_label
            todo += (")", v.right, f" {label} ", v.left)
    return "".join(out)


def all_binary_trees(n: int, d: int) -> list[BinaryTree | None]:
    """All binary trees with n vertices and right edges labeled in [1, d].

    Raises :class:`oracle.EnumerationCapExceeded` before any listing when
    there are more than ``oracle.DEFAULT_CAP`` of them."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0 vertices")
    _check_cap(d, 2, 2 * n, "trees")
    sized: list[list[BinaryTree | None]] = [[None]]
    for m in range(1, n + 1):
        trees: list[BinaryTree | None] = []
        for left_n in range(m):
            right_n = m - 1 - left_n
            for lt in sized[left_n]:
                if right_n == 0:
                    trees.append(BinaryTree(lt, None, None))
                else:
                    trees += [BinaryTree(lt, lab, rt) for rt in sized[right_n]
                              for lab in range(1, d + 1)]
        sized.append(trees)
    return sized[n]


# ---------------------------------------------------------------------------
# One-operator Dyck transform: opening delimiter -> U^ell, indeterminate ->
# UD, closing delimiter -> D^ell.  A path is in the image iff every maximal
# ascent and descent has length == 1 (mod ell), and the block decomposition
# is then forced run by run.

def dyck_transform(m: Monomial, ell: int) -> tuple[int, ...]:
    _check_ell(ell)
    out: list[int] = []
    for t in encode_word(m):
        if t == 0:
            out.extend((1, -1))
        elif t == 1:
            out.extend([1] * ell)
        elif t == -1:
            out.extend([-1] * ell)
        else:
            raise ValueError("dyck transform needs a one-operator monomial")
    return tuple(out)


def _runs(path):
    runs = []
    for step in path:
        if runs and runs[-1][0] == step:
            runs[-1][1] += 1
        else:
            runs.append([step, 1])
    return runs


def dyck_run_lengths_ok(path, ell: int) -> bool:
    _check_ell(ell)
    return all(length % ell == 1 % ell for _, length in _runs(path))


def dyck_inverse(path, ell: int) -> Monomial:
    """Invert :func:`dyck_transform` by the unique block decomposition."""
    _check_ell(ell)
    tokens: list[int] = []
    for step, length in _runs(path):
        if length % ell != 1 % ell:
            raise ValueError(f"run length {length} not 1 mod {ell}")
        blocks = (length - 1) // ell
        if step == 1:
            tokens.extend([1] * blocks)
            tokens.append(0)  # the trailing up-step opens the indeterminate's peak
        else:
            tokens.extend([-1] * blocks)  # the leading down-step closed the peak
    return decode_word(tokens, 1)


def all_dyck_paths(semilength: int) -> list[tuple[int, ...]]:
    """All Dyck paths of the given semilength, as tuples of +1 and -1 steps.

    Raises :class:`oracle.EnumerationCapExceeded` before any listing when
    there are more than ``oracle.DEFAULT_CAP`` of them."""
    if semilength < 0:
        raise ValueError("need semilength >= 0")
    # as many as the one-label binary trees with semilength vertices: Catalan
    _check_cap(1, 2, 2 * semilength, "Dyck paths")
    out: list[tuple[int, ...]] = []
    # depth first, an up-step before a down-step
    todo = [((), semilength, 0)]
    while todo:
        steps, ups_left, height = todo.pop()
        if ups_left == 0 and height == 0:
            out.append(steps)
            continue
        if height > 0:
            todo.append((steps + (-1,), ups_left, height - 1))
        if ups_left > 0:
            todo.append((steps + (1,), ups_left - 1, height + 1))
    return out
