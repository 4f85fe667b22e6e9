"""Concrete algebras from structure constants: axiom validation and exact
numerical verification of identities by substitution.

An algebra is given by exact rational structure constants for the bilinear
and trilinear operations on a chosen basis. The validator checks the six
defining axioms exhaustively on basis tuples (multilinearity makes that
sufficient). Algebras can be entered directly, taken from a Lie bracket
(trilinear operation zero), or derived from a binary product satisfying the
derivation identity {{a,b},c} = {{a,c},b} + {a,{b,c}} via the
skew-symmetrization [a,b] = {a,b} - {b,a} and ⟨a,b,c⟩ = {c,{a,b}}.

Identity checks substitute vectors for the variables and contract through
the structure constants. Alternating identities are evaluated by a memoised
recursion over variable subsets: the alternation of [A, B] is a signed sum
over the shuffles of its variables, which keeps the n!-term sum exact and
cheap.

check_identity then walks every basis tuple in itertools.product order and
stops at the first nonzero value. A non-alternating identity is read off
memoised tables there: each subtree type is evaluated once on all basis
sub-tuples of its leaves, keeping only the nonzero values as sparse
vectors, so a tuple costs one lookup per child of each term's root and one
product. An alternating identity vanishes on a tuple with a repeated
index, which counts as checked without being evaluated.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import freealg

__all__ = [
    "AlgebraSC",
    "LeibnizSC",
    "Violation",
    "InvalidProduct",
    "CheckResult",
    "validate",
    "validate_leibniz",
    "from_leibniz",
    "from_lie",
    "evaluate",
    "check_identity",
    "load_algebra",
]

MAX_VALIDATE_DIM = 16

Vector = tuple[Fraction, ...]


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


def _dense(dimension: int, entries, indices: int, what: str) -> list:
    """The dense table of a list of 1-based sparse entries (i, ..., coeff)
    with `indices` indices each.

    Anything but a list or tuple of entries, an entry of the wrong length,
    an index outside 1..dimension or a coefficient that is not an int, an
    exact string or a Fraction raises ValueError naming the entry.
    """

    def zeros(depth):
        if depth == 1:
            return [Fraction(0)] * dimension
        return [zeros(depth - 1) for _ in range(dimension)]

    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{what} must be a list of entries")
    table = zeros(indices)
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
        row = table
        for i in index[:-1]:
            row = row[i - 1]
        row[index[-1] - 1] += value
    return table


class AlgebraSC:
    """Structure constants for one bilinear and one trilinear operation.

    c[i][j][k] is the e_k coefficient of [e_i, e_j]; t[i][j][k][l] the e_l
    coefficient of ⟨e_i, e_j, e_k⟩ (0-based internally, 1-based in files
    and witnesses). The constructor does not enforce the axioms — validate
    reports violations as data.
    """

    __slots__ = ("dimension", "name", "_c", "_t", "_brk", "_trp")

    def __init__(self, dimension: int, bilinear=None, trilinear=None, name: str = ""):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        d = dimension
        zero3 = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
        zero4 = [[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
        c = bilinear if bilinear is not None else zero3
        t = trilinear if trilinear is not None else zero4
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self, "_c",
            tuple(tuple(tuple(_as_fraction(x) for x in row) for row in plane) for plane in c),
        )
        object.__setattr__(
            self, "_t",
            tuple(
                tuple(tuple(tuple(_as_fraction(x) for x in row) for row in plane) for plane in cube)
                for cube in t
            ),
        )
        if len(self._c) != d or any(len(p) != d or any(len(r) != d for r in p) for p in self._c):
            raise ValueError("bilinear table must be dimension^3")
        if len(self._t) != d or any(
            len(cu) != d or any(len(p) != d or any(len(r) != d for r in p) for p in cu)
            for cu in self._t
        ):
            raise ValueError("trilinear table must be dimension^4")
        brk = {}
        for i in range(d):
            for j in range(d):
                entries = {k: x for k, x in enumerate(self._c[i][j]) if x}
                if entries:
                    brk[i, j] = entries
        trp = {}
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    entries = {l: x for l, x in enumerate(self._t[i][j][k]) if x}
                    if entries:
                        trp[i, j, k] = entries
        object.__setattr__(self, "_brk", brk)
        object.__setattr__(self, "_trp", trp)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraSC is immutable")

    @classmethod
    def from_sparse(cls, dimension: int, bilinear=(), trilinear=(), name: str = "") -> "AlgebraSC":
        """Build from 1-based sparse entries (i, j, k, coeff) and (i, j, k, l, coeff)."""
        c = _dense(dimension, bilinear, 3, "bilinear")
        t = _dense(dimension, trilinear, 4, "trilinear")
        return cls(dimension, c, t, name=name)

    def zero(self) -> Vector:
        return (Fraction(0),) * self.dimension

    def bracket(self, u, v) -> Vector:
        out = [Fraction(0)] * self.dimension
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                entries = self._brk.get((i, j))
                if entries:
                    uv = ui * vj
                    for k, x in entries.items():
                        out[k] += uv * x
        return tuple(out)

    def triple(self, u, v, w) -> Vector:
        out = [Fraction(0)] * self.dimension
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                uv = ui * vj
                for k, wk in enumerate(w):
                    if not wk:
                        continue
                    entries = self._trp.get((i, j, k))
                    if entries:
                        uvw = uv * wk
                        for l, x in entries.items():
                            out[l] += uvw * x
        return tuple(out)

    def basis(self, i: int) -> Vector:
        """The 0-based i-th basis vector."""
        v = [Fraction(0)] * self.dimension
        v[i] = Fraction(1)
        return tuple(v)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"AlgebraSC(dim={self.dimension}{tag})"


class LeibnizSC:
    """A binary product table; validate_leibniz checks the derivation identity."""

    __slots__ = ("dimension", "name", "_p", "_mul")

    def __init__(self, dimension: int, product=None, name: str = ""):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        d = dimension
        p = product if product is not None else [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self, "_p",
            tuple(tuple(tuple(_as_fraction(x) for x in row) for row in plane) for plane in p),
        )
        if len(self._p) != d or any(len(pl) != d or any(len(r) != d for r in pl) for pl in self._p):
            raise ValueError("product table must be dimension^3")
        mul = {}
        for i in range(d):
            for j in range(d):
                entries = {k: x for k, x in enumerate(self._p[i][j]) if x}
                if entries:
                    mul[i, j] = entries
        object.__setattr__(self, "_mul", mul)

    def __setattr__(self, name, value):
        raise AttributeError("LeibnizSC is immutable")

    @classmethod
    def from_sparse(cls, dimension: int, product=(), name: str = "") -> "LeibnizSC":
        return cls(dimension, _dense(dimension, product, 3, "product"), name=name)

    def product(self, u, v) -> Vector:
        out = [Fraction(0)] * self.dimension
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                entries = self._mul.get((i, j))
                if entries:
                    uv = ui * vj
                    for k, x in entries.items():
                        out[k] += uv * x
        return tuple(out)

    def basis(self, i: int) -> Vector:
        v = [Fraction(0)] * self.dimension
        v[i] = Fraction(1)
        return tuple(v)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"LeibnizSC(dim={self.dimension}{tag})"


def _vadd(*vs) -> Vector:
    return tuple(sum(col) for col in zip(*vs))


def validate(alg: AlgebraSC) -> list[Violation]:
    """Check the six axioms on all basis tuples; empty list means valid.

    Reports the first witness per violated axiom. The trilinear-derivation
    axiom scans dimension^5 tuples, so dimensions beyond 16 are rejected.
    """
    d = alg.dimension
    if d > MAX_VALIDATE_DIM:
        raise ValueError(f"validation supports dimension <= {MAX_VALIDATE_DIM}, got {d}")
    B = [alg.basis(i) for i in range(d)]
    zero = alg.zero()
    out: list[Violation] = []

    def first(axiom, gen):
        for witness, ok in gen:
            if not ok:
                out.append(Violation(axiom, tuple(w + 1 for w in witness)))
                return

    first("LY1", (
        ((i, j), not any(_vadd(alg.bracket(B[i], B[j]), alg.bracket(B[j], B[i])))
         if i != j else alg.bracket(B[i], B[i]) == zero)
        for i in range(d) for j in range(i, d)
    ))
    first("LY2", (
        ((i, j, k), not any(_vadd(alg.triple(B[i], B[j], B[k]), alg.triple(B[j], B[i], B[k])))
         if i != j else alg.triple(B[i], B[i], B[k]) == zero)
        for i in range(d) for j in range(i, d) for k in range(d)
    ))

    def ly3():
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    s = zero
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        s = _vadd(s, alg.bracket(alg.bracket(B[a], B[b]), B[c]),
                                  alg.triple(B[a], B[b], B[c]))
                    yield (i, j, k), not any(s)

    first("LY3", ly3())

    def ly4():
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        s = zero
                        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                            s = _vadd(s, alg.triple(alg.bracket(B[a], B[b]), B[c], B[l]))
                        yield (i, j, k, l), not any(s)

    first("LY4", ly4())

    def ly5():
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        lhs = alg.triple(B[i], B[j], alg.bracket(B[k], B[l]))
                        rhs = _vadd(alg.bracket(alg.triple(B[i], B[j], B[k]), B[l]),
                                    alg.bracket(B[k], alg.triple(B[i], B[j], B[l])))
                        yield (i, j, k, l), lhs == rhs

    first("LY5", ly5())

    def ly6():
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        for e in range(d):
                            lhs = alg.triple(B[i], B[j], alg.triple(B[k], B[l], B[e]))
                            rhs = _vadd(
                                alg.triple(alg.triple(B[i], B[j], B[k]), B[l], B[e]),
                                alg.triple(B[k], alg.triple(B[i], B[j], B[l]), B[e]),
                                alg.triple(B[k], B[l], alg.triple(B[i], B[j], B[e])),
                            )
                            yield (i, j, k, l, e), lhs == rhs

    first("LY6", ly6())
    return out


def validate_leibniz(lb: LeibnizSC) -> list[Violation]:
    """Check {{a,b},c} = {{a,c},b} + {a,{b,c}} on all basis triples."""
    d = lb.dimension
    if d > MAX_VALIDATE_DIM:
        raise ValueError(f"validation supports dimension <= {MAX_VALIDATE_DIM}, got {d}")
    B = [lb.basis(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = lb.product(lb.product(B[i], B[j]), B[k])
                rhs = _vadd(lb.product(lb.product(B[i], B[k]), B[j]),
                            lb.product(B[i], lb.product(B[j], B[k])))
                if lhs != rhs:
                    return [Violation("leibniz", (i + 1, j + 1, k + 1))]
    return []


def from_leibniz(lb: LeibnizSC) -> AlgebraSC:
    """The algebra carried by a product satisfying the derivation identity:
    [a,b] = {a,b} - {b,a} and ⟨a,b,c⟩ = {c,{a,b}}.

    Up to rescaling ([,] -> β[,] forces ⟨,,⟩ -> β²⟨,,⟩), this trilinear
    operation is the unique one of the form α{[a,b],c} + γ{c,[a,b]} for
    which every valid product yields a valid algebra: the cyclic axiom
    forces α + 2γ = 1 and the trilinear derivation axiom then pins
    (α, γ) = (0, ½); since {c,{b,a}} = -{c,{a,b}}, γ = ½ collapses to the
    form used here. Raises InvalidProduct when lb fails the derivation
    identity.
    """
    bad = validate_leibniz(lb)
    if bad:
        raise InvalidProduct(f"not a valid product: {bad[0].render()}")
    d = lb.dimension
    B = [lb.basis(i) for i in range(d)]
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    t = [[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            skew = tuple(x - y for x, y in zip(lb.product(B[i], B[j]), lb.product(B[j], B[i])))
            c[i][j] = list(skew)
            inner = lb.product(B[i], B[j])
            for k in range(d):
                t[i][j][k] = list(lb.product(B[k], inner))
    return AlgebraSC(d, c, t, name=lb.name)


def from_lie(dimension: int, bilinear=(), name: str = "") -> AlgebraSC:
    """A Lie bracket as an algebra with zero trilinear operation (the cyclic
    axiom then reduces to the Jacobi identity; validate confirms)."""
    return AlgebraSC.from_sparse(dimension, bilinear=bilinear, name=name)


# -- evaluation ------------------------------------------------------------------


def _eval_tree(tree, alg: AlgebraSC, vectors):
    if isinstance(tree, int):
        return vectors[tree - 1]
    if tree[0] == 2:
        return alg.bracket(_eval_tree(tree[1], alg, vectors), _eval_tree(tree[2], alg, vectors))
    return alg.triple(
        _eval_tree(tree[1], alg, vectors),
        _eval_tree(tree[2], alg, vectors),
        _eval_tree(tree[3], alg, vectors),
    )


def _alternation(t, variables, alg: AlgebraSC, vectors, memo) -> Vector:
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
    out = [Fraction(0)] * alg.dimension
    for chosen in itertools.combinations(range(len(variables)), left.degree):
        rest = tuple(v for i, v in enumerate(variables) if i not in chosen)
        val = alg.bracket(
            _alternation(left, tuple(variables[i] for i in chosen), alg, vectors, memo),
            _alternation(right, rest, alg, vectors, memo),
        )
        # the k-th chosen position is preceded by chosen[k] - k of the rest
        odd = (sum(chosen) - len(chosen) * (len(chosen) - 1) // 2) % 2
        for l, x in enumerate(val):
            if x:
                out[l] += -x if odd else x
    memo[key] = tuple(out)
    return memo[key]


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
    from . import pipeline  # evaluation of ExplicitIdentity; late to avoid a cycle

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
    if not alternating:
        values = [_eval_tree(freealg.labeled_tree(mono), alg, vectors) for _, mono in terms]
    elif n > alg.dimension or len(set(vectors)) < n:
        return alg.zero()  # an alternating map vanishes on dependent vectors
    else:
        memo: dict = {}
        values = [_alternation(mono.type, tuple(range(n)), alg, vectors, memo) for _, mono in terms]
    out = alg.zero()
    for (coeff, _), val in zip(terms, values):
        out = _vadd(out, tuple(coeff * x for x in val))
    return out


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    assignments_checked: int
    witness: tuple | None = None
    value: Vector | None = None


EXHAUSTIVE_LIMIT = 10 ** 6


def _product(alg: AlgebraSC, factors) -> dict:
    """The bracket (two factors) or the triple product (three) of sparse
    vectors {k: x}, with zero entries dropped."""
    consts = alg._brk if len(factors) == 2 else alg._trp
    out: dict = {}
    for picked in itertools.product(*(f.items() for f in factors)):
        entries = consts.get(tuple(i for i, _ in picked))
        if entries:
            x = math.prod(c for _, c in picked)
            for k, y in entries.items():
                out[k] = out.get(k, 0) + x * y
    return {k: x for k, x in out.items() if x}


def _subtree_table(t, alg: AlgebraSC, memo: dict) -> dict:
    """The nonzero values of the association type t on basis vectors: a map
    from the basis indices at its leaves, in leaf order, to a sparse vector.
    The table depends on the type alone, so memo is keyed by interned type
    and shared by every term of a call."""
    table = memo.get(t)
    if table is None:
        if t.arity == 0:
            table = {(i,): {i: Fraction(1)} for i in range(alg.dimension)}
        else:
            table = {}
            children = [_subtree_table(c, alg, memo) for c in t.children]
            for picked in itertools.product(*(c.items() for c in children)):
                value = _product(alg, [v for _, v in picked])
                if value:
                    table[sum((k for k, _ in picked), ())] = value
        memo[t] = table
    return table


def _basis_value(item, alg: AlgebraSC):
    """A function from a tuple of basis indices to the value there, or to
    None where the value is zero.

    A non-alternating identity combines, per term, the subtree tables of the
    root's children: a key missing from one of them makes the term zero. An
    alternating identity is zero on a tuple with a repeated index and is
    evaluated on the others.
    """
    n, d = item.degree, alg.dimension
    terms, alternating = _terms(item)
    if alternating:
        def value_at(combo):
            if len(set(combo)) < n:
                return None
            value = evaluate(item, alg, tuple(alg.basis(i) for i in combo))
            return value if any(value) else None
        return value_at

    memo: dict = {}
    plan = []
    for coeff, mono in terms:
        children = mono.type.children or (mono.type,)  # a degree-1 term is its own factor
        parts, start = [], 0
        for child in children:
            labels = mono.perm[start:start + child.degree]
            parts.append((_subtree_table(child, alg, memo), tuple(v - 1 for v in labels)))
            start += child.degree
        plan.append((coeff, parts))

    def value_at(combo):
        out: dict = {}
        for coeff, parts in plan:
            factors = []
            for table, positions in parts:
                factor = table.get(tuple(combo[p] for p in positions))
                if factor is None:
                    break
                factors.append(factor)
            else:
                value = factors[0] if len(factors) == 1 else _product(alg, factors)
                for k, x in value.items():
                    out[k] = out.get(k, 0) + coeff * x
        if not any(out.values()):
            return None
        return tuple(out.get(k, Fraction(0)) for k in range(d))

    return value_at


def check_identity(item, alg: AlgebraSC, trials: int = 20, seed: int = 0) -> CheckResult:
    """Evaluate on `trials` pseudorandom small-rational assignments, then on
    every basis tuple when dimension^degree is within reach; the first
    nonzero value is returned as a witness, and assignments_checked counts
    the trials plus the basis tuples walked up to it.

    The basis tuples are walked in itertools.product order. A
    non-alternating identity is read off tables of its subtrees' nonzero
    values on basis tuples, each built once per call; an alternating one
    is evaluated on the tuples of distinct indices, and every tuple with a
    repeated index counts as checked without evaluation, since an
    alternating map vanishes there.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    degree = item.degree
    d = alg.dimension
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
        value_at = _basis_value(item, alg)
        for position, combo in enumerate(itertools.product(range(d), repeat=degree), start=1):
            value = value_at(combo)
            if value is not None:
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
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    unread = sorted(set(doc) - {"name", "dimension", "construction", *_TABLES[construction]})
    if unread:
        raise ValueError(f"the {construction} construction does not read {', '.join(unread)}")
    name = doc.get("name", "")
    tables = {key: doc.get(key, []) for key in _TABLES[construction]}
    if construction == "direct":
        return AlgebraSC.from_sparse(dim, name=name, **tables)
    if construction == "lie":
        return from_lie(dim, name=name, **tables)
    return from_leibniz(LeibnizSC.from_sparse(dim, name=name, **tables))


BUNDLED = (
    "zero",
    "cross_product",
    "nilpotent_leibniz",
    "nonlie_leibniz",
)
