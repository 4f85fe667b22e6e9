"""Concrete algebras from structure constants: axiom validation and exact
numerical verification of identities by substitution.

An algebra is given by exact rational structure constants for the bilinear
and trilinear operations on a chosen basis, as sparse 1-based entries.
Algebras can be entered directly, taken from a Lie bracket (trilinear
operation zero), or derived from a binary product satisfying the derivation
identity {{a,b},c} = {{a,c},b} + {a,{b,c}} via the skew-symmetrization
[a,b] = {a,b} - {b,a} and ⟨a,b,c⟩ = {c,{a,b}}.

The validator checks the six defining axioms exhaustively on basis tuples
(multilinearity makes that sufficient). Each axiom is a sum of labelled
trees that must vanish: LY1 and LY2 are written here, and LY3-LY6 are
liftgen's seeds f, g1, g2 and h, written as the axioms state them, so the
pipeline and the oracle read one encoding.

All arithmetic behind the public functions is on Python ints. An algebra
keeps D, the lcm of the denominators of all its constants, and stores its
bilinear constants scaled by D and its trilinear ones scaled by D². A term
of degree n with b brackets and t triple products has b + 2t = n - 1, so
every term of a multilinear identity, and both sides of each axiom, carry
the same power of D: the axioms compare the scaled vectors as they are.
An assignment enters with each vector cleared of denominators by the lcm
s_i of its own, and an identity's value is divided once, by ∏ s_i · D^(n-1)
times the common denominator of its coefficients, when the terms are
combined. Vectors cross the API boundary as tuples of Fractions.

Identity checks substitute vectors for the variables and contract through
the structure constants. Alternating identities are evaluated by a memoised
recursion over variable subsets: the alternation of [A, B] is a signed sum
over the shuffles of its variables, which keeps the n!-term sum exact and
cheap.

One sweep finds the first basis tuple, in itertools.product order, at
which a sum of labelled trees is nonzero. validate runs each axiom's trees
through it as written, from_leibniz the derivation identity (the product
held as the bracket of an algebra whose triple product is zero), and
check_identity the trees of a non-alternating identity. Each tree shape,
the tree without its leaf labels, is evaluated once per sweep on all basis
sub-tuples of its leaves, keeping only the nonzero values as sparse
vectors. A term is nonzero only where each child of its root has a table
entry, so the sweep walks each term over the product of its children's
entries, one operation per combination, and adds the result to the tuple
the combination's keys spell; a term with an empty table costs nothing.
It sums one value of the first index at a time, so at most dimension^(n-1)
partial sums are alive, and the smallest tuple with a nonzero sum in the
first value that has one is the witness. An alternating identity vanishes
on a tuple with a repeated index and is ± its value on the sorted tuple on
any other, so check_identity evaluates it once per set of distinct
indices, through the alternation recursion on basis vectors with one memo
for the whole walk, and reports the first nonzero set at the position of
its sorted tuple.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from . import freealg, liftgen, pipeline

__all__ = [
    "AlgebraSC",
    "Violation",
    "InvalidProduct",
    "CheckResult",
    "validate",
    "from_leibniz",
    "evaluate",
    "check_identity",
    "load_algebra",
]

MAX_VALIDATE_DIM = 16

Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)

# Behind the API a vector is a sparse dict {0-based index: int} without zero
# entries, and a table of integer constants nests one dict per argument:
# table[i][j] = {k: c} for a bilinear operation, table[i][j][k] = {l: c}
# for a trilinear one, with no empty dicts.


@dataclass(frozen=True)
class Violation:
    """A failed axiom with the first offending basis tuple (1-based)."""

    axiom: str
    witness: tuple[int, ...]

    def render(self) -> str:
        args = ", ".join(f"e{i}" for i in self.witness)
        return f"{self.axiom} fails at ({args})"


class InvalidProduct(ValueError):
    """from_leibniz's verdict on a product that fails the derivation identity."""


def _as_fraction(x) -> Fraction:
    """x as an exact Fraction; a float raises ValueError, since its binary
    value (0.1 is 3602879701896397/2**55) is rarely the number meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ValueError(f"float entry {x!r}: give an int, a Fraction or an exact string")
    return Fraction(x)


def _from_entries(dimension: int, entries, indices: int, what: str) -> dict:
    """The nonzero constants of a list of 1-based sparse entries
    (i, ..., coeff) with `indices` indices each, keyed by 0-based index
    tuples; repeated entries add up.

    Anything but a list or tuple of entries, an entry of the wrong length,
    an index outside 1..dimension or a coefficient that is not an int, an
    exact string or a Fraction raises ValueError naming the entry.
    """
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{what} must be a list of entries")
    flat: dict = {}
    for entry in entries:
        where = f"{what} entry {entry!r}"
        if not isinstance(entry, (list, tuple)) or len(entry) != indices + 1:
            raise ValueError(f"{where}: expected {indices} indices and a coefficient")
        *index, coeff = entry
        if not all(type(i) is int and 1 <= i <= dimension for i in index):
            raise ValueError(f"{where}: indices must be integers in 1..{dimension}")
        bad_coeff = f"{where}: the coefficient must be an int or an exact string"
        if type(coeff) is not int and not isinstance(coeff, (str, Fraction)):
            raise ValueError(bad_coeff)
        try:
            value = Fraction(coeff)
        except (ValueError, ZeroDivisionError):
            raise ValueError(bad_coeff) from None
        key = tuple(i - 1 for i in index)
        flat[key] = flat.get(key, 0) + value
    return {key: x for key, x in flat.items() if x}


def _common_denominator(*tables) -> int:
    return math.lcm(*(x.denominator for table in tables for x in table.values()))


def _nested(flat: dict, scale: int) -> dict:
    """The integer table of constants keyed by 0-based index tuples, each
    multiplied by scale (a multiple of its denominator)."""
    table: dict = {}
    for (*index, last), x in flat.items():
        node = table
        for i in index:
            node = node.setdefault(i, {})
        node[last] = x.numerator * (scale // x.denominator)
    return table


def _check_dimension(dimension) -> None:
    """Raise ValueError unless dimension is a positive int (bool excluded)."""
    if type(dimension) is not int or dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")


class AlgebraSC:
    """Structure constants for one bilinear and one trilinear operation.

    [e_i, e_j] = Σ_k c[i][j][k] e_k and ⟨e_i, e_j, e_k⟩ = Σ_l t[i][j][k][l] e_l
    (0-based internally, 1-based in entries, files and witnesses). _brk holds
    D·c and _trp holds D²·t as sparse integer tables, where _D is the lcm of
    the denominators of all the constants. The constructor does not enforce
    the axioms — validate reports violations as data.
    """

    __slots__ = ("dimension", "name", "_D", "_brk", "_trp")

    def __init__(self, dimension: int, bilinear=(), trilinear=(), name: str = ""):
        """From 1-based sparse entries (i, j, k, coeff) and (i, j, k, l, coeff);
        a missing table is zero."""
        _check_dimension(dimension)
        bilinear = _from_entries(dimension, bilinear, 3, "bilinear")
        trilinear = _from_entries(dimension, trilinear, 4, "trilinear")
        D = _common_denominator(bilinear, trilinear)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_D", D)
        object.__setattr__(self, "_brk", _nested(bilinear, D))
        object.__setattr__(self, "_trp", _nested(trilinear, D * D))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraSC is immutable")

    def zero(self) -> Vector:
        return (_ZERO,) * self.dimension

    def basis(self, i: int) -> Vector:
        """The 0-based i-th basis vector, 0 <= i < dimension."""
        if not 0 <= i < self.dimension:
            raise ValueError(f"basis index {i} out of range 0..{self.dimension - 1}")
        v = [_ZERO] * self.dimension
        v[i] = Fraction(1)
        return tuple(v)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"AlgebraSC(dim={self.dimension}{tag})"


# -- the integer kernel ------------------------------------------------------------


def _bilinear(table: dict, u: dict, v: dict) -> dict:
    """The bilinear operation of an integer table on sparse integer vectors."""
    out: dict = {}
    for i, x in u.items():
        row = table.get(i)
        if row is None:
            continue
        for j, entries in row.items():
            y = v.get(j)
            if y is not None:
                xy = x * y
                for k, c in entries.items():
                    out[k] = out.get(k, 0) + xy * c
    return {k: x for k, x in out.items() if x}


def _trilinear(table: dict, u: dict, v: dict, w: dict) -> dict:
    """The trilinear operation of an integer table on sparse integer vectors."""
    out: dict = {}
    for i, x in u.items():
        plane = table.get(i)
        if plane is None:
            continue
        for j, row in plane.items():
            y = v.get(j)
            if y is None:
                continue
            xy = x * y
            for k, entries in row.items():
                z = w.get(k)
                if z is not None:
                    xyz = xy * z
                    for l, c in entries.items():
                        out[l] = out.get(l, 0) + xyz * c
    return {l: x for l, x in out.items() if x}


def _operate(alg: AlgebraSC, factors) -> dict:
    """The bracket (two factors) or the triple product (three) in alg's
    scaled integer constants."""
    return _bilinear(alg._brk, *factors) if len(factors) == 2 else _trilinear(alg._trp, *factors)


def _integer_vectors(vectors) -> tuple[int, list[dict]]:
    """Each vector of rationals times the lcm s_i of its denominators, as a
    sparse integer vector, and the product of the s_i."""
    scale, out = 1, []
    for v in vectors:
        s = math.lcm(*(x.denominator for x in v))
        out.append({k: x.numerator * (s // x.denominator) for k, x in enumerate(v) if x})
        scale *= s
    return scale, out


def _fractions(v: dict, denominator: int, dimension: int) -> Vector:
    """The sparse integer vector v divided by denominator, as Fractions."""
    return tuple(Fraction(v[k], denominator) if v.get(k) else _ZERO for k in range(dimension))


def _integer_coefficients(coeffs) -> tuple[list[int], int]:
    """The coefficients times their common denominator L, and L."""
    coeffs = [Fraction(c) for c in coeffs]
    L = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (L // c.denominator) for c in coeffs], L


# Each axiom as (name, terms): a sum of (coefficient, labelled tree) that
# vanishes on every tuple of vectors. A node is (2, a, b) for [a, b] or
# (3, a, b, c) for ⟨a, b, c⟩; every term has b + 2t = n - 1, so the scaled
# integer tables compare all terms of an axiom alike.
_AXIOMS = (
    ("LY1", ((1, (2, 1, 2)), (1, (2, 2, 1)))),
    ("LY2", ((1, (3, 1, 2, 3)), (1, (3, 2, 1, 3)))),
    ("LY3", liftgen._SEED_TERMS["f"]),
    ("LY4", liftgen._SEED_TERMS["g1"]),
    ("LY5", liftgen._SEED_TERMS["g2"]),
    ("LY6", liftgen._SEED_TERMS["h"]),
)

# the derivation identity {{a,b},c} - {{a,c},b} - {a,{b,c}} of a product,
# held as the bracket of an algebra
_LEIBNIZ = ("leibniz", ((1, (2, (2, 1, 2), 3)), (-1, (2, (2, 1, 3), 2)), (-1, (2, 1, (2, 2, 3)))))


def _shape(tree):
    """The tree with its leaf labels dropped: () for a leaf, the tuple of its
    children's shapes for a node."""
    return () if tree.__class__ is int else tuple(_shape(child) for child in tree[1:])


def _leaves(tree) -> tuple[int, ...]:
    """The labels at the tree's leaves, in leaf order."""
    return (tree,) if tree.__class__ is int else sum((_leaves(child) for child in tree[1:]), ())


def _table(shape, alg: AlgebraSC, memo: dict) -> dict:
    """The nonzero values of a tree shape on basis vectors: a map from the
    basis indices at its leaves, in leaf order, to a sparse integer vector,
    scaled by D^(k-1) for k leaves. memo is keyed by shape, so the trees of
    one sweep share their subtrees' tables."""
    table = memo.get(shape)
    if table is None:
        if not shape:
            table = {(i,): {i: 1} for i in range(alg.dimension)}
        else:
            table = {}
            for picked in itertools.product(*(_table(s, alg, memo).items() for s in shape)):
                value = _operate(alg, [v for _, v in picked])
                if value:
                    table[sum((k for k, _ in picked), ())] = value
        memo[shape] = table
    return table


def _sweep(terms, alg: AlgebraSC, n: int):
    """The first tuple of n basis indices, in itertools.product order, at
    which Σ c·tree over the (integer coefficient, labelled tree) terms of a
    multilinear sum is nonzero, as (1-based position, tuple, sparse integer
    value); None if there is none.

    A term c·op(children) is nonzero only where every child's table has an
    entry, so each term walks the product of its children's tables, one
    operation per combination of nonzero entries, and adds c·op(values) to
    the partial sum of the tuple their keys spell. Tuples are summed one
    value of the first index at a time, at most dimension^(n-1) partial
    sums alive, and the smallest nonzero one of the first chunk that has
    one is the witness.
    """
    d = alg.dimension
    memo: dict = {}
    plan = []
    for c, tree in terms:
        children = (tree,) if tree.__class__ is int else tree[1:]  # a leaf is its own factor
        tables = [_table(_shape(child), alg, memo) for child in children]
        if not all(tables):
            continue  # an empty table makes the term zero on every tuple
        leaves = [_leaves(child) for child in children]
        labels = [v - 1 for part in leaves for v in part]
        # the tuple's indices in variable order, from the children's joined keys
        order = sorted(range(n), key=labels.__getitem__)
        place = itemgetter(*order) if n > 1 else itemgetter(slice(0, 1))
        # the child holding variable 1, split by the index at that variable
        lead = next(a for a, part in enumerate(leaves) if 1 in part)
        at = leaves[lead].index(1)
        chunks: list[list] = [[] for _ in range(d)]
        for entry in tables[lead].items():
            chunks[entry[0][at]].append(entry)
        plan.append((c, place, lead, chunks, [list(table.items()) for table in tables]))
    for first in range(d):
        sums: dict = {}
        for c, place, lead, chunks, parts in plan:
            if not chunks[first]:
                continue
            factors = parts[:lead] + [chunks[first]] + parts[lead + 1:]
            for picked in itertools.product(*factors):
                if len(picked) == 1:
                    value = picked[0][1]
                else:
                    value = _operate(alg, [v for _, v in picked])
                    if not value:
                        continue
                combo = place(sum((k for k, _ in picked), ()))
                out = sums.get(combo)
                if out is None:
                    sums[combo] = {k: c * x for k, x in value.items()}
                else:
                    for k, x in value.items():
                        out[k] = out.get(k, 0) + c * x
        hits = [combo for combo, out in sums.items() if any(out.values())]
        if hits:
            combo = min(hits)
            position = 1 + sum(i * d ** (n - 1 - k) for k, i in enumerate(combo))
            return position, combo, {k: x for k, x in sums[combo].items() if x}
    return None


def _violations(alg: AlgebraSC, axioms) -> list[Violation]:
    """The first basis tuple, in itertools.product order, at which each
    axiom's sum is nonzero. A degree-5 axiom holds up to dimension^4
    partial sums at a time and subtree tables of up to dimension^3 entries,
    so dimensions beyond 16 are rejected."""
    if alg.dimension > MAX_VALIDATE_DIM:
        raise ValueError(f"validation supports dimension <= {MAX_VALIDATE_DIM}, got {alg.dimension}")
    out: list[Violation] = []
    for name, terms in axioms:
        hit = _sweep(terms, alg, liftgen._leaf_count(terms[0][1]))
        if hit is not None:
            out.append(Violation(name, tuple(i + 1 for i in hit[1])))
    return out


def validate(alg: AlgebraSC) -> list[Violation]:
    """Check the six axioms on all basis tuples; empty list means valid.

    Reports the first witness per violated axiom. LY1 and LY2 are symmetric
    in their first two indices, so their first witness has i <= j.
    """
    return _violations(alg, _AXIOMS)


def from_leibniz(dimension: int, product=(), name: str = "") -> AlgebraSC:
    """The algebra carried by a product, given as 1-based sparse entries
    (i, j, k, coeff), that satisfies the derivation identity:
    [a,b] = {a,b} - {b,a} and ⟨a,b,c⟩ = {c,{a,b}}.

    Up to rescaling ([,] -> β[,] forces ⟨,,⟩ -> β²⟨,,⟩), this trilinear
    operation is the unique one of the form α{[a,b],c} + γ{c,[a,b]} for
    which every valid product yields a valid algebra: the cyclic axiom
    forces α + 2γ = 1 and the trilinear derivation axiom then pins
    (α, γ) = (0, ½); since {c,{b,a}} = -{c,{a,b}}, γ = ½ collapses to the
    form used here. Raises InvalidProduct at the first basis triple where
    the product fails the derivation identity.
    """
    _check_dimension(dimension)
    _from_entries(dimension, product, 3, "product")  # a malformed entry is named a product entry
    mul = AlgebraSC(dimension, product, name=name)
    bad = _violations(mul, (_LEIBNIZ,))
    if bad:
        raise InvalidProduct(f"not a valid product: {bad[0].render()}")
    D, brk = mul._D, mul._brk
    bilinear, trilinear = [], []
    for i, row in brk.items():
        for j, product_ij in row.items():
            for k, x in product_ij.items():  # [e_i, e_j] gains {e_i, e_j} and [e_j, e_i] loses it
                bilinear += [(i + 1, j + 1, k + 1, Fraction(x, D)), (j + 1, i + 1, k + 1, Fraction(-x, D))]
            for k in range(dimension):
                value = _bilinear(brk, {k: 1}, product_ij)
                trilinear += [(i + 1, j + 1, k + 1, l + 1, Fraction(x, D * D)) for l, x in value.items()]
    return AlgebraSC(dimension, bilinear, trilinear, name=name)


# -- evaluation ------------------------------------------------------------------


def _eval_tree(tree, alg: AlgebraSC, vectors) -> dict:
    """A labelled tree at sparse integer vectors, leaf v taking vectors[v - 1].
    A node with a zero child is zero, and its later children are skipped."""
    if tree.__class__ is int:
        return vectors[tree - 1]
    a = _eval_tree(tree[1], alg, vectors)
    b = a and _eval_tree(tree[2], alg, vectors)
    if not b:
        return {}
    if len(tree) == 3:
        return _bilinear(alg._brk, a, b)
    c = _eval_tree(tree[3], alg, vectors)
    return c and _trilinear(alg._trp, a, b, c)


def _alternation(t, variables, alg: AlgebraSC, vectors, memo) -> dict:
    """Signed sum over every placement of `variables` (sorted 0-based
    indices) on the leaves of the binary type t: a node [L, R] sums over
    the shuffles variables = S1 ⊔ S2 with |S1| = deg L, each signed by the
    parity of the pairs (f in S1, r in S2) with r < f. memo is keyed by
    (interned type, variables), so the types of one identity share subtrees.
    """
    if t.arity == 0:
        return vectors[variables[0]]
    key = (t, variables)
    hit = memo.get(key)
    if hit is not None:
        return hit
    left, right = t.children
    out: dict = {}
    for chosen in itertools.combinations(range(len(variables)), left.degree):
        rest = tuple(v for i, v in enumerate(variables) if i not in chosen)
        val = _bilinear(
            alg._brk,
            _alternation(left, tuple(variables[i] for i in chosen), alg, vectors, memo),
            _alternation(right, rest, alg, vectors, memo),
        )
        # the k-th chosen position is preceded by chosen[k] - k of the rest
        odd = (sum(chosen) - len(chosen) * (len(chosen) - 1) // 2) % 2
        for l, x in val.items():
            out[l] = out.get(l, 0) + (-x if odd else x)
    memo[key] = {l: x for l, x in out.items() if x}
    return memo[key]


def _alternating_sweep(terms, alg: AlgebraSC, n: int):
    """_sweep's hit for the alternation of Σ c·t over (integer coefficient,
    binary type) terms: the first set of n distinct basis indices, in
    itertools.combinations order, at which it is nonzero, returned as its
    sorted tuple at that tuple's position in itertools.product order. Each
    set is evaluated once, with one _alternation memo for the whole walk."""
    d = alg.dimension
    vectors, memo = [{i: 1} for i in range(d)], {}
    for combo in itertools.combinations(range(d), n):
        out: dict = {}
        for c, t in terms:
            for k, x in _alternation(t, combo, alg, vectors, memo).items():
                out[k] = out.get(k, 0) + c * x
        if any(out.values()):
            position = 1 + sum(i * d ** (n - 1 - k) for k, i in enumerate(combo))
            return position, combo, {k: x for k, x in out.items() if x}
    return None


def _check_assignment(degree: int, alg: AlgebraSC, assignment):
    vectors = tuple(tuple(_as_fraction(x) for x in v) for v in assignment)
    if len(vectors) != degree:
        raise ValueError(f"need {degree} vectors, got {len(vectors)}")
    for v in vectors:
        if len(v) != alg.dimension:
            raise ValueError(f"vector of length {len(v)} in dimension {alg.dimension}")
    return vectors


def _terms(item) -> tuple[list, bool]:
    """The (coefficient, monomial) terms of a polynomial or explicit
    identity, and whether they are to be alternated over S_n."""
    n = item.degree
    if isinstance(item, pipeline.ExplicitIdentity):
        btypes = freealg.binary_types(n)
        terms = [
            (c, freealg.Monomial(n, btypes[j - 1].index, tuple(range(1, n + 1))))
            for j, c in item.terms
        ]
        return terms, item.alternating
    return [(c, mono) for mono, c in item.sorted_terms()], False


def evaluate(item, alg: AlgebraSC, assignment) -> Vector:
    """Exact value of a polynomial or explicit identity at an assignment of
    one vector per variable.

    Alternating identities are the signed sum over S_n of their terms,
    computed per term by _alternation with one memo for the whole call. The
    sum is zero outright when two vectors are equal or when n exceeds the
    dimension.
    """
    n = item.degree
    terms, alternating = _terms(item)
    vectors = _check_assignment(n, alg, assignment)
    if alternating and (n > alg.dimension or len(set(vectors)) < n):
        return alg.zero()  # an alternating map vanishes on dependent vectors
    scale, ints = _integer_vectors(vectors)
    if alternating:
        memo: dict = {}
        values = [_alternation(mono.type, tuple(range(n)), alg, ints, memo) for _, mono in terms]
    else:
        values = [_eval_tree(freealg.labeled_tree(mono), alg, ints) for _, mono in terms]
    coeffs, denominator = _integer_coefficients(c for c, _ in terms)
    out: dict = {}
    for a, val in zip(coeffs, values):
        for k, x in val.items():
            out[k] = out.get(k, 0) + a * x
    return _fractions(out, denominator * scale * alg._D ** (n - 1), alg.dimension)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    assignments_checked: int
    witness: tuple | None = None
    value: Vector | None = None


EXHAUSTIVE_LIMIT = 10 ** 6


def check_identity(item, alg: AlgebraSC, trials: int = 20, seed: int = 0) -> CheckResult:
    """Evaluate on `trials` pseudorandom small-rational assignments, then on
    every basis tuple when dimension^degree is within reach; the first
    nonzero value is returned as a witness, and assignments_checked counts
    the trials plus the basis tuples walked up to it.

    The witness is the first basis tuple in itertools.product order. A
    non-alternating identity runs its terms' labelled trees through _sweep,
    which sums each term over its subtree tables' nonzero entries, an
    alternating one its terms' binary types through _alternating_sweep. No
    trials with dimension^degree out of reach would evaluate nothing, and
    raises ValueError, as does a trials count that is not an int.
    """
    if type(trials) is not int:
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    degree = item.degree
    d = alg.dimension
    if not trials and d ** degree > EXHAUSTIVE_LIMIT:
        raise ValueError(f"nothing evaluated: no trials, and the {d}^{degree} basis tuples "
                         f"exceed {EXHAUSTIVE_LIMIT:,}")
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        vectors = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
            for _ in range(degree)
        )
        value = evaluate(item, alg, vectors)
        checked += 1
        if any(value):
            return CheckResult(False, checked, vectors, value)
    if d ** degree <= EXHAUSTIVE_LIMIT:
        terms, alternating = _terms(item)
        coeffs, denominator = _integer_coefficients(c for c, _ in terms)
        if alternating:
            hit = _alternating_sweep([(a, mono.type) for a, (_, mono) in zip(coeffs, terms)], alg, degree)
        else:
            hit = _sweep([(a, freealg.labeled_tree(mono)) for a, (_, mono) in zip(coeffs, terms)], alg, degree)
        if hit is not None:
            position, combo, value = hit
            value = _fractions(value, denominator * alg._D ** (degree - 1), d)
            return CheckResult(False, checked + position, tuple(alg.basis(i) for i in combo), value)
        checked += d ** degree
    return CheckResult(True, checked)


# -- the algebra file format -------------------------------------------------------


# the tables each construction reads
_TABLES = {"direct": ("bilinear", "trilinear"), "lie": ("bilinear",), "leibniz": ("product",)}


def load_algebra(text: str) -> AlgebraSC:
    """Parse the JSON algebra format.

    Required fields: dimension, construction ("direct", "lie" or "leibniz").
    Constants are sparse 1-based lists with exact coefficients, strings or
    ints: bilinear [i, j, k, "num/den"], trilinear [i, j, k, l, "num/den"], and
    for the leibniz construction a product table [i, j, k, "num/den"] from
    which both operations are derived. A missing field, a malformed entry
    or a table the construction does not read raises ValueError.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("an algebra file holds one JSON object")
    for key in ("dimension", "construction"):
        if key not in doc:
            raise ValueError(f"missing required field {key!r}")
    dim, construction = doc["dimension"], doc["construction"]
    if not isinstance(construction, str) or construction not in _TABLES:
        raise ValueError(f"unknown construction {construction!r}")
    _check_dimension(dim)
    unread = sorted(set(doc) - {"name", "dimension", "construction", *_TABLES[construction]})
    if unread:
        raise ValueError(f"the {construction} construction does not read {', '.join(unread)}")
    name = doc.get("name", "")
    tables = {key: doc.get(key, []) for key in _TABLES[construction]}
    if construction == "leibniz":
        return from_leibniz(dim, name=name, **tables)
    return AlgebraSC(dim, name=name, **tables)  # a lie table is a bracket with no triple product


BUNDLED = (
    "zero",
    "cross_product",
    "nilpotent_leibniz",
    "nonlie_leibniz",
)
