"""Free algebra with one anticommutative binary and one left-skew ternary operation.

Association types are planar rooted trees whose internal nodes have arity 2 or 3.
The skew symmetries ([a,b] = -[b,a] and <a,b,c> = -<b,a,c>) let us fix one
canonical orientation per node, so every multilinear monomial has a unique
canonical form (type, permutation, sign).

Canonical orientation at a binary node, and for the first two children of a
ternary node: the child of larger degree comes first; between children of equal
degree the deglex-smaller type comes first; between equal types the
lexicographically smaller leaf-label block comes first.

Deglex order on types: by degree, then by operation class (ternary-only before
mixed before binary-only), then by root arity, then by the first differing
child. Types render as '-' (leaf), '[UV]' (binary), '<UVW>' (ternary).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import factorial
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "AssocType",
    "LEAF",
    "Monomial",
    "Polynomial",
    "SkewSymmetry",
    "TypeCounts",
    "binary_types",
    "canonicalize",
    "count_types",
    "enumerate_types",
    "expand",
    "monomial_count",
    "render_monomial",
    "render_type",
    "skew_generators",
    "type_by_index",
]

CLASS_TERNARY = 0
CLASS_MIXED = 1
CLASS_BINARY = 2
_CLASS_NAMES = {CLASS_TERNARY: "ternary", CLASS_MIXED: "mixed", CLASS_BINARY: "binary"}


class AssocType:
    """Interned association type node; equal structures are the same object."""

    __slots__ = ("arity", "children", "degree", "class_code", "skews", "key", "_hash")

    def __init__(self, arity, children, degree, class_code, skews, key):
        self.arity = arity
        self.children = children
        self.degree = degree
        self.class_code = class_code
        # number of internal nodes whose swap pair of children are equal types
        self.skews = skews
        self.key = key
        self._hash = hash(key)

    @property
    def cls(self) -> str | None:
        """Operation class name; None for the degree-1 leaf."""
        if self.degree == 1:
            return None
        return _CLASS_NAMES[self.class_code]

    @property
    def index(self) -> int:
        """1-based position in the deglex list of its degree."""
        return _index_map(self.degree)[self]

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AssocType({render_type(self)})"


_INTERN: dict[tuple, AssocType] = {}
LEAF = AssocType(0, (), 1, CLASS_TERNARY, 0, (1,))


def _node(children: tuple[AssocType, ...]) -> AssocType:
    """Intern a node with already-canonical children in canonical order."""
    hit = _INTERN.get(children)
    if hit is not None:
        return hit
    arity = len(children)
    degree = sum(c.degree for c in children)
    has2 = arity == 2 or any(c.degree > 1 and c.class_code != CLASS_TERNARY for c in children)
    has3 = arity == 3 or any(c.degree > 1 and c.class_code != CLASS_BINARY for c in children)
    code = CLASS_MIXED if (has2 and has3) else (CLASS_BINARY if has2 else CLASS_TERNARY)
    skews = sum(c.skews for c in children) + (1 if children[0] is children[1] else 0)
    key = (degree, code, arity) + tuple(c.key for c in children)
    node = AssocType(arity, children, degree, code, skews, key)
    _INTERN[children] = node
    return node


def _ordered_pairs(d1: int, d2: int) -> Iterator[tuple[AssocType, AssocType]]:
    """Canonically oriented child pairs with degrees (d1, d2), d1 >= d2."""
    if d1 > d2:
        for a in enumerate_types(d1):
            for b in enumerate_types(d2):
                yield a, b
    else:
        ts = enumerate_types(d1)
        for i, a in enumerate(ts):
            for b in ts[i:]:
                yield a, b


@cache
def enumerate_types(n: int, cls: str | None = None) -> tuple[AssocType, ...]:
    """All association types of degree n in deglex order.

    cls filters to one operation class ('ternary', 'mixed' or 'binary');
    indices reported by AssocType.index always refer to the unfiltered list.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if cls is not None:
        if cls not in _CLASS_NAMES.values():
            raise ValueError(f"unknown class {cls!r}")
        code = {v: k for k, v in _CLASS_NAMES.items()}[cls]
        return tuple(t for t in enumerate_types(n) if t.class_code == code)
    if n == 1:
        return (LEAF,)
    out = []
    for i in range(1, n // 2 + 1):
        for a, b in _ordered_pairs(n - i, i):
            out.append(_node((a, b)))
    for k in range(1, n - 1):
        rest = n - k
        for i in range(1, rest // 2 + 1):
            for a, b in _ordered_pairs(rest - i, i):
                for c in enumerate_types(k):
                    out.append(_node((a, b, c)))
    out.sort(key=lambda t: t.key)
    return tuple(out)


@cache
def _index_map(n: int) -> dict[AssocType, int]:
    return {t: i for i, t in enumerate(enumerate_types(n), start=1)}


def type_by_index(n: int, index: int) -> AssocType:
    """Type with the given 1-based deglex index in degree n."""
    types = enumerate_types(n)
    if not 1 <= index <= len(types):
        raise ValueError(f"degree {n} has {len(types)} types, no index {index}")
    return types[index - 1]


def binary_types(n: int) -> tuple[AssocType, ...]:
    return enumerate_types(n, "binary") if n > 1 else (LEAF,)


class TypeCounts(NamedTuple):
    all: int
    binary: int
    ternary: int
    mixed: int


def count_types(n: int) -> TypeCounts:
    """Counts (all, binary, ternary, mixed) of the enumerated types of degree n.

    For n = 1 the leaf is a single class-less type; it is reported as both
    binary and ternary (1, 1, 1, 0) to match the reference table.
    """
    if n == 1:
        return TypeCounts(1, 1, 1, 0)
    types = enumerate_types(n)
    codes = Counter(t.class_code for t in types)
    return TypeCounts(len(types), codes[CLASS_BINARY], codes[CLASS_TERNARY], codes[CLASS_MIXED])


@dataclass(frozen=True)
class SkewSymmetry:
    """One generator of a type's skew group: swap of two equal child blocks.

    perm is the product of the block transpositions as an image tuple; sign is
    its parity as a permutation (the relation itself always carries -1).
    """

    type: AssocType
    perm: tuple[int, ...]
    transpositions: tuple[tuple[int, int], ...]
    sign: int


def skew_generators(t: AssocType) -> list[SkewSymmetry]:
    """Skew-group generators of a type, one per node with equal swap children.

    Listed in postorder (children before their parent, left to right), which
    also orders the block transpositions by leaf position.
    """
    n = t.degree
    gens: list[SkewSymmetry] = []

    def walk(node: AssocType, off: int) -> None:
        if node.arity == 0:
            return
        pos = off
        offs = []
        for child in node.children:
            offs.append(pos)
            walk(child, pos)
            pos += child.degree
        if node.children[0] is node.children[1]:
            k = node.children[0].degree
            swaps = tuple((offs[0] + i, offs[1] + i) for i in range(k))
            img = list(range(1, n + 1))
            for i, j in swaps:
                img[i - 1], img[j - 1] = img[j - 1], img[i - 1]
            gens.append(SkewSymmetry(t, tuple(img), swaps, (-1) ** k))

    walk(t, 1)
    return gens


def monomial_count(n: int) -> int:
    """Number of canonical multilinear monomials: sum of n!/2^skews(T)."""
    return sum(factorial(n) // (1 << t.skews) for t in enumerate_types(n))


class Monomial(NamedTuple):
    """Canonical multilinear monomial: leaf i of the type carries x_perm[i-1]."""

    degree: int
    type_index: int
    perm: tuple[int, ...]

    @property
    def type(self) -> AssocType:
        return type_by_index(self.degree, self.type_index)


def _canon(tree):
    """Canonical (type node, leaf label tuple, sign) of a labeled tree.

    One depth-first walk: children are straightened left to right, then the
    first two are swapped (flipping the sign) if they are out of canonical
    order. Raises on malformed input, naming the offending subtree.
    """
    if tree.__class__ is int:
        if tree < 1:
            raise ValueError(f"variable index must be >= 1, got {tree!r}")
        return LEAF, (tree,), 1
    arity = len(tree) - 1 if tree.__class__ is tuple else 0
    if arity not in (2, 3) or tree[0].__class__ is not int or tree[0] != arity:
        raise ValueError(f"malformed node {tree!r}")
    ta, la, sign = _canon(tree[1])
    tb, lb, sb = _canon(tree[2])
    sign *= sb
    if arity == 3:
        tc, lc, sc = _canon(tree[3])
        sign *= sc
    if ta is tb:
        if la == lb:
            raise ValueError(f"swap children carry equal labels in {tree!r}")
        swap = la > lb
    else:
        swap = ta.degree < tb.degree or (ta.degree == tb.degree and ta.key > tb.key)
    if swap:
        ta, la, tb, lb, sign = tb, lb, ta, la, -sign
    if arity == 2:
        return _node((ta, tb)), la + lb, sign
    return _node((ta, tb, tc)), la + lb + lc, sign


def canonicalize(tree):
    """Canonical form of a labeled tree.

    The tree is nested tuples: a leaf is a 1-based variable index (an int,
    not a bool), an internal node is (2, left, right) or (3, a, b, c).
    Returns (Monomial, sign) where sign is +1 or -1. A repeated variable
    raises ValueError, since the result would not be multilinear; under a
    swap node the message names the subtree whose children carry equal
    labels.
    """
    node, labels, sign = _canon(tree)
    n = len(labels)
    if max(labels) != n or len(set(labels)) != n:
        raise ValueError(f"leaf labels {labels} are not a permutation of 1..{n}")
    return Monomial(n, _index_map(n)[node], labels), sign


class Polynomial:
    """Multilinear polynomial over canonical monomials with exact coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[Monomial, object] | None = None):
        self.degree = degree
        self.terms = terms or {}

    def add_term(self, mono: Monomial, coeff) -> None:
        if mono.degree != self.degree:
            raise ValueError(f"degree {mono.degree} term in degree {self.degree} polynomial")
        c = self.terms.get(mono, 0) + coeff
        if c:
            self.terms[mono] = c
        else:
            self.terms.pop(mono, None)

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms ordered by (type index, lexicographic permutation)."""
        return sorted(self.terms.items(), key=lambda mc: (mc[0].type_index, mc[0].perm))

    def by_type(self) -> dict[int, dict[tuple[int, ...], object]]:
        """Group-algebra element per type index: {type: {perm: coeff}}."""
        out: dict[int, dict[tuple[int, ...], object]] = {}
        for m, c in self.terms.items():
            out.setdefault(m.type_index, {})[m.perm] = c
        return out

    def __repr__(self):
        if not self.terms:
            return f"Polynomial({self.degree}, 0)"
        bits = []
        for m, c in self.sorted_terms()[:4]:
            bits.append(f"{c}*{render_monomial(m)}")
        more = "" if len(self.terms) <= 4 else f" +{len(self.terms) - 4} more"
        return f"Polynomial({self.degree}, {' + '.join(bits)}{more})"


def labeled_tree(mono: Monomial):
    """The monomial as a labeled tree: leaves carry the permutation's labels
    in the association type's leaf order."""
    labels = iter(mono.perm)

    def walk(t):
        if t.arity == 0:
            return next(labels)
        return (t.arity, *(walk(c) for c in t.children))

    return walk(mono.type)


def expand(terms: Iterable[tuple[object, object]]) -> Polynomial:
    """Straighten (coefficient, labeled tree) pairs into a Polynomial of the
    first term's degree."""
    poly = None
    for coeff, tree in terms:
        mono, sign = canonicalize(tree)
        if poly is None:
            poly = Polynomial(mono.degree)
        poly.add_term(mono, sign * coeff)
    if poly is None:
        raise ValueError("cannot infer degree from an empty term list")
    return poly


# -- rendering -----------------------------------------------------------------

def render_type(t: AssocType) -> str:
    if t.arity == 0:
        return "-"
    inner = "".join(render_type(c) for c in t.children)
    return f"[{inner}]" if t.arity == 2 else f"<{inner}>"


def _var_name(i: int, n: int) -> str:
    return chr(ord("a") + i - 1) if n <= 8 else f"x{i}"


def render_monomial(m: Monomial, pretty: bool = False) -> str:
    """Compact form '[[ab]c]'; pretty form '[[a,b],c]' as in written identities."""
    labels = iter(m.perm)
    n = m.degree

    def walk(t: AssocType) -> str:
        if t.arity == 0:
            return _var_name(next(labels), n)
        parts = [walk(c) for c in t.children]
        inner = ",".join(parts) if pretty else "".join(parts)
        return f"[{inner}]" if t.arity == 2 else f"<{inner}>"

    return walk(m.type)
