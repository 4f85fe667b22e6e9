"""Test-side references: permutations as 1-based image tuples, Clifton's
matrices entry by entry, representation dimensions by the hook length
formula, the expansion of an explicit identity into the canonical monomial
basis, a recursive canonicalizer and the lifting built on it, primality by
trial division, block rows and skew relations as dense arrays, the rank
filter with identities as the outer loop, the row canonical form over GF(p)
and over Q in plain Python, exact evaluation in Fraction arithmetic, and
the identity check that evaluates every basis tuple afresh.

The package builds Clifton matrices in whole numpy arrays, counts standard
tableaux for dimensions, straightens trees in one lean walk that interns
types as it goes, tests primality by Miller-Rabin, builds only the blocks
an identity touches, straight into sparse rows, filters one partition at a
time, evaluates alternating identities without expanding them, reduces
rows over Q and mod p on one lazily cleaned sparse canonical form,
evaluates in integers over a common denominator and reads basis tuples off
memoised subtree tables; the routes here are the independent ones the
tests compare against.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from lyident import evallab, freealg, liftgen, pipeline, symrep
from lyident.exactla import IncrementalReducer


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[j - 1] for j in q)


def sign(p: tuple[int, ...]) -> int:
    """Parity via cycle count; +1 for even permutations, -1 for odd."""
    seen = [False] * len(p)
    s = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def all_perms(n: int):
    """All of S_n in lexicographic order of image tuples."""
    return itertools.permutations(range(1, n + 1))


def _column_sign(s_row_of: list[int], u: tuple[tuple[int, ...], ...], heights: list[int]) -> int:
    """e(s, u) given the row-lookup table of s; 0 on a row/column clash."""
    sign = 1
    for c in range(len(heights)):
        targets = [s_row_of[u[i][c]] for i in range(heights[c])]
        if sorted(targets) != list(range(len(targets))):
            return 0
        # parity of the arrangement that sorts this column by target row
        inv = sum(
            1
            for a in range(len(targets))
            for b in range(a + 1, len(targets))
            if targets[a] > targets[b]
        )
        if inv & 1:
            sign = -sign
    return sign


def clifton_a_matrix_reference(pi, sigma: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A(sigma) entry by entry: each e(t_i, sigma t_j) from its own moved
    tableau."""
    tabs = symrep.standard_tableaux(pi)
    heights = [sum(1 for row in pi.parts if row > c) for c in range(pi.parts[0])]
    out = []
    for s in tabs:
        row_of = [0] * (pi.n + 1)
        for i, row in enumerate(s):
            for x in row:
                row_of[x] = i
        out.append(tuple(
            _column_sign(row_of, tuple(tuple(sigma[x - 1] for x in row) for row in t), heights)
            for t in tabs
        ))
    return tuple(out)


def hook_dimension(pi) -> int:
    """The dimension of the irreducible representation of shape pi, by the
    hook length formula: n! over the product of the hook lengths."""
    shape = pi.parts
    cols = [sum(1 for row in shape if row > c) for c in range(shape[0])]
    den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            den *= (row - j) + (cols[j] - i) - 1
    return math.factorial(pi.n) // den


def clifton_matrix_reference(pi, sigma: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """R(sigma) = A(iota)^-1 A(sigma) as a d^3 integer product over the
    entry-by-entry A(sigma)."""
    inv = symrep._a_iota_inverse(pi)
    a = clifton_a_matrix_reference(pi, sigma)
    d = len(a)
    return tuple(
        tuple(sum(inv[i][k] * a[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def alternation_polynomial(identity) -> freealg.Polynomial:
    """Expand an ExplicitIdentity into the canonical monomial basis.

    Alternating identities expand over all of S_n with signs; n = 8 means
    40320 straightenings per term.
    """
    n = identity.degree
    btypes = freealg.binary_types(n)
    terms = []
    for j, coeff in identity.terms:
        base = freealg.labeled_tree(
            freealg.Monomial(n, btypes[j - 1].index, tuple(range(1, n + 1)))
        )
        if not identity.alternating:
            terms.append((coeff, base))
            continue
        for sigma in all_perms(n):
            terms.append((coeff * sign(sigma), _relabel(base, sigma)))
    return freealg.expand(terms)


def _relabel(tree, sigma: tuple[int, ...]):
    if isinstance(tree, int):
        return sigma[tree - 1]
    return (tree[0], *(_relabel(c, sigma) for c in tree[1:]))


@functools.cache
def _types_by_children(n: int) -> dict:
    return {t.children: t for t in freealg.enumerate_types(n)}


def _canon_reference(tree, path: str):
    """Recursive canonicalization of a labeled tree, with the path of each
    node ('' for the root, '.2.1' for the first child of its second child)
    in its error messages.

    Returns (type, leaf label tuple, sign); the type is looked up among the
    enumerated ones by its children. Raises on malformed input, a bool leaf
    included.
    """
    if isinstance(tree, int) and not isinstance(tree, bool):
        if tree < 1:
            raise ValueError(f"variable index must be >= 1 at {path or 'root'}")
        return freealg.LEAF, (tree,), 1
    if not isinstance(tree, tuple) or not tree:
        raise ValueError(f"malformed node at {path or 'root'}: {tree!r}")
    arity = tree[0]
    if arity not in (2, 3) or len(tree) != arity + 1:
        raise ValueError(f"malformed node at {path or 'root'}: {tree!r}")
    parts = [_canon_reference(c, f"{path}.{i + 1}") for i, c in enumerate(tree[1:])]
    sign = 1
    for _, _, s in parts:
        sign *= s
    (ta, la, _), (tb, lb, _) = parts[0], parts[1]
    if (-ta.degree, ta.key) > (-tb.degree, tb.key):
        parts[0], parts[1] = parts[1], parts[0]
        sign = -sign
    elif ta is tb:
        if la == lb:
            raise ValueError(f"swap children carry equal labels at {path or 'root'}")
        if la > lb:
            parts[0], parts[1] = parts[1], parts[0]
            sign = -sign
    children = tuple(p[0] for p in parts)
    node = _types_by_children(sum(c.degree for c in children))[children]
    labels = sum((p[1] for p in parts), ())
    return node, labels, sign


def canonicalize_reference(tree):
    """(Monomial, sign) of a labeled tree, as freealg.canonicalize returns."""
    node, labels, sign = _canon_reference(tree, "")
    if sorted(labels) != list(range(1, len(labels) + 1)):
        raise ValueError(f"leaf labels {labels} are not a permutation of 1..{len(labels)}")
    return freealg.Monomial(len(labels), node.index, labels), sign


def expand_reference(terms, degree: int) -> freealg.Polynomial:
    poly = freealg.Polynomial(degree)
    for coeff, tree in terms:
        mono, s = canonicalize_reference(tree)
        poly.add_term(mono, s * coeff)
    return poly


def _substitute_reference(tree, var: int, repl):
    if isinstance(tree, int):
        return repl if tree == var else tree
    return (tree[0], *(_substitute_reference(c, var, repl) for c in tree[1:]))


def lift_reference(poly: freealg.Polynomial, step) -> freealg.Polynomial:
    """One lifting step on a polynomial, straightened by canonicalize_reference."""
    n = poly.degree
    kind, i = step[0], step[-1]
    wrap = {
        "binary-sub": lambda t: _substitute_reference(t, i, (2, i, n + 1)),
        "binary-mul": lambda t: (2, t, n + 1),
        "ternary-sub": lambda t: _substitute_reference(t, i, (3, i, n + 1, n + 2)),
        "ternary-mul": lambda t: (3, t, n + 1, n + 2) if i == 1 else (3, n + 1, n + 2, t),
    }[kind]
    degree = n + (1 if kind.startswith("binary") else 2)
    return expand_reference([(c, wrap(freealg.labeled_tree(m))) for m, c in poly.sorted_terms()], degree)


@functools.cache
def generate_reference(n: int) -> tuple:
    """(lineage, polynomial) of every degree-n generator, in the order of
    liftgen.generate: the seeds of degree n, the nonzero binary liftings of
    degree n-1, then the nonzero ternary liftings of degree n-2."""
    out = []
    for name, terms in liftgen._SEED_TERMS.items():
        degree = canonicalize_reference(terms[0][1])[0].degree
        if degree == n:
            out.append(((("seed", name),), expand_reference(terms, n)))
    if n > 3:
        for lineage, poly in generate_reference(n - 1):
            steps = [("binary-sub", i) for i in range(1, n)] + [("binary-mul",)]
            out += [(lineage + (s,), q) for s in steps if (q := lift_reference(poly, s))]
    if n > 4:
        for lineage, poly in generate_reference(n - 2):
            steps = [("ternary-sub", i) for i in range(1, n - 1)]
            steps += [("ternary-mul", 1), ("ternary-mul", 3)]
            out += [(lineage + (s,), q) for s in steps if (q := lift_reference(poly, s))]
    return tuple(out)


def is_prime_trial_division(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def identity_rows_dense(poly: freealg.Polynomial, table: symrep.RepTable) -> np.ndarray:
    """An identity's block rows as one dense int64 array, d x m*d: column
    block j holds the matrix of its component in the j-th association type."""
    d = table.dim
    out = np.zeros((d, freealg.count_types(poly.degree).all * d), dtype=np.int64)
    for ti, perms in poly.by_type().items():
        out[:, (ti - 1) * d : ti * d] = table.element(perms)
    return out


def filter_identity_outermost(gen: liftgen.GenerationSet, field) -> tuple[tuple, dict]:
    """The rank filter with identities as the outer loop: a table and a
    reducer for every partition, all held at once, and each identity
    appended to every reducer in turn; it is kept when some rank grew.
    Returns the kept identities and each partition's final rank."""
    pis = symrep.partitions(gen.degree)
    tables = [symrep.RepTable(pi) for pi in pis]
    reducers = [IncrementalReducer(liftgen._column_split(gen.degree, t.dim)[0], field) for t in tables]
    kept = []
    for ident in gen.identities:
        grew = False
        for table, red in zip(tables, reducers):
            if red.append(liftgen.identity_rows(ident.polynomial, table)):
                grew = True
        if grew:
            kept.append(ident)
    return tuple(kept), {pi: red.rank for pi, red in zip(pis, reducers)}


def skew_rows_dense(table: symrep.RepTable, degree: int) -> list[np.ndarray]:
    """One dense d x b*d array per skew generator of each binary type: the
    relation iota + sigma in that type's block."""
    d = table.dim
    btypes = freealg.binary_types(degree)
    ident = tuple(range(1, degree + 1))
    out = []
    for j, t in enumerate(btypes):
        for g in freealg.skew_generators(t):
            rows = np.zeros((d, len(btypes) * d), dtype=np.int64)
            rows[:, j * d : (j + 1) * d] = table.element({ident: 1, g.perm: 1})
            out.append(rows)
    return out


def nonzero_rows(rows: np.ndarray) -> list[dict[int, int]]:
    """Each row of an integer array as {column: Python int}, nonzeros only."""
    return [{j: x for j, x in enumerate(line) if x} for line in rows.tolist()]


def dense_rows(rows: list[dict[int, int]], cols: int) -> list[list[int]]:
    """{column: int} rows written out over cols columns; a zero entry or a
    column outside 0..cols-1 raises AssertionError."""
    out = []
    for row in rows:
        assert all(type(j) is int and 0 <= j < cols and x for j, x in row.items()), row
        line = [0] * cols
        for j, x in row.items():
            line[j] = x
        out.append(line)
    return out


def rcf_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """Row canonical form of integer rows over GF(p): textbook Gauss-Jordan
    on Python ints, entries in [0, p), zero rows dropped."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        k = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[rank], m[k] = m[k], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i, r in enumerate(m):
            if i != rank and r[c]:
                m[i] = [(x - r[c] * y) % p for x, y in zip(r, m[rank])]
        rank += 1
    return m[:rank]


def rcf_rational(rows: list[list]) -> list[list[Fraction]]:
    """Row canonical form of rational rows over Q: textbook Gauss-Jordan on
    Fractions, zero rows dropped."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        k = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[rank], m[k] = m[k], m[rank]
        lead = m[rank][c]
        m[rank] = [x / lead for x in m[rank]]
        for i, r in enumerate(m):
            if i != rank and r[c]:
                m[i] = [x - r[c] * y for x, y in zip(r, m[rank])]
        rank += 1
    return m[:rank]


def pivots(red) -> tuple[int, ...]:
    """A reducer's pivot columns: the leading-1 columns of its RCF."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in red.tail_rows(0))


_BRACKET = freealg.expand([(1, (2, 1, 2))])
_TRIPLE = freealg.expand([(1, (3, 1, 2, 3))])


def bracket(alg: evallab.AlgebraSC, u, v) -> tuple:
    """[u, v] in an evallab algebra: the one-term polynomial [x1, x2] at (u, v)."""
    return evallab.evaluate(_BRACKET, alg, (u, v))


def triple(alg: evallab.AlgebraSC, u, v, w) -> tuple:
    """⟨u, v, w⟩ in an evallab algebra: the one-term polynomial ⟨x1, x2, x3⟩ at (u, v, w)."""
    return evallab.evaluate(_TRIPLE, alg, (u, v, w))


class FractionAlgebra:
    """Structure constants as Fractions in sparse tables
    c[(i, j)] = {k: x} and t[(i, j, k)] = {l: x} (0-based), with the
    bracket and triple product as Fraction loops."""

    def __init__(self, dimension: int, bilinear=(), trilinear=()):
        """From 1-based sparse entries (i, j, k, coeff) and (i, j, k, l, coeff)."""
        self.dimension = dimension
        self.c = self._table(bilinear)
        self.t = self._table(trilinear)

    @staticmethod
    def _table(entries) -> dict:
        table: dict = {}
        for *index, coeff in entries:
            *key, last = (i - 1 for i in index)
            row = table.setdefault(tuple(key), {})
            row[last] = row.get(last, 0) + Fraction(coeff)
        return table

    @classmethod
    def from_product(cls, dimension: int, product) -> "FractionAlgebra":
        """The algebra of a derivation-identity product given by sparse
        entries: [a,b] = {a,b} - {b,a} and ⟨a,b,c⟩ = {c,{a,b}}."""
        mul = cls(dimension, product)  # the product as a bilinear operation
        basis = [mul.basis(i) for i in range(dimension)]
        bilinear, trilinear = [], []
        for i, j in itertools.product(range(dimension), repeat=2):
            inner = mul.bracket(basis[i], basis[j])
            skew = [x - y for x, y in zip(inner, mul.bracket(basis[j], basis[i]))]
            bilinear += [(i + 1, j + 1, k + 1, x) for k, x in enumerate(skew) if x]
            for k in range(dimension):
                value = mul.bracket(basis[k], inner)
                trilinear += [(i + 1, j + 1, k + 1, l + 1, x) for l, x in enumerate(value) if x]
        return cls(dimension, bilinear, trilinear)

    @classmethod
    def of(cls, alg) -> "FractionAlgebra":
        """The constants of an evallab algebra, read through bracket and
        triple on basis vectors."""
        d = alg.dimension
        basis = [alg.basis(i) for i in range(d)]
        bilinear = [
            (i + 1, j + 1, k + 1, x)
            for i, j in itertools.product(range(d), repeat=2)
            for k, x in enumerate(bracket(alg, basis[i], basis[j])) if x
        ]
        trilinear = [
            (i + 1, j + 1, k + 1, l + 1, x)
            for i, j, k in itertools.product(range(d), repeat=3)
            for l, x in enumerate(triple(alg, basis[i], basis[j], basis[k])) if x
        ]
        return cls(d, bilinear, trilinear)

    def zero(self) -> tuple:
        return (Fraction(0),) * self.dimension

    def basis(self, i: int) -> tuple:
        v = [Fraction(0)] * self.dimension
        v[i] = Fraction(1)
        return tuple(v)

    def bracket(self, u, v) -> tuple:
        out = [Fraction(0)] * self.dimension
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                entries = self.c.get((i, j))
                if entries:
                    uv = ui * vj
                    for k, x in entries.items():
                        out[k] += uv * x
        return tuple(out)

    def triple(self, u, v, w) -> tuple:
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
                    entries = self.t.get((i, j, k))
                    if entries:
                        uvw = uv * wk
                        for l, x in entries.items():
                            out[l] += uvw * x
        return tuple(out)


def _vadd(*vs) -> tuple:
    return tuple(sum(col) for col in zip(*vs))


def _eval_tree(tree, alg: FractionAlgebra, vectors):
    if isinstance(tree, int):
        return vectors[tree - 1]
    if tree[0] == 2:
        return alg.bracket(_eval_tree(tree[1], alg, vectors), _eval_tree(tree[2], alg, vectors))
    return alg.triple(*(_eval_tree(child, alg, vectors) for child in tree[1:]))


def _alternation(t, variables, alg: FractionAlgebra, vectors, memo) -> tuple:
    """Signed sum over every placement of `variables` (sorted 0-based
    indices) on the leaves of the binary type t, as a sum over shuffles."""
    if t.arity == 0:
        return vectors[variables[0]]
    key = (t, variables)
    if key not in memo:
        left, right = t.children
        out = [Fraction(0)] * alg.dimension
        for chosen in itertools.combinations(range(len(variables)), left.degree):
            rest = tuple(v for i, v in enumerate(variables) if i not in chosen)
            val = alg.bracket(
                _alternation(left, tuple(variables[i] for i in chosen), alg, vectors, memo),
                _alternation(right, rest, alg, vectors, memo),
            )
            odd = (sum(chosen) - len(chosen) * (len(chosen) - 1) // 2) % 2
            for l, x in enumerate(val):
                out[l] += -x if odd else x
        memo[key] = tuple(out)
    return memo[key]


def evaluate(item, alg: FractionAlgebra, assignment) -> tuple:
    """evallab.evaluate in Fraction arithmetic: every term's tree, or for
    an alternating identity every term's alternation, times its
    coefficient."""
    n = item.degree
    vectors = tuple(tuple(Fraction(x) for x in v) for v in assignment)
    if isinstance(item, pipeline.ExplicitIdentity):
        btypes = freealg.binary_types(n)
        terms = [(c, freealg.Monomial(n, btypes[j - 1].index, tuple(range(1, n + 1))))
                 for j, c in item.terms]
        alternating = item.alternating
    else:
        terms, alternating = [(c, mono) for mono, c in item.sorted_terms()], False
    if not alternating:
        values = [_eval_tree(freealg.labeled_tree(mono), alg, vectors) for _, mono in terms]
    elif n > alg.dimension or len(set(vectors)) < n:
        return alg.zero()
    else:
        memo: dict = {}
        values = [_alternation(mono.type, tuple(range(n)), alg, vectors, memo) for _, mono in terms]
    return _vadd(alg.zero(), *(tuple(c * x for x in val) for (c, _), val in zip(terms, values)))


def validate(alg: FractionAlgebra) -> list[evallab.Violation]:
    """evallab.validate in Fraction arithmetic: the first witness of each
    violated axiom LY1-LY6, in the same order."""
    d = alg.dimension
    B = [alg.basis(i) for i in range(d)]
    br, tr, zero = alg.bracket, alg.triple, alg.zero()

    def cyclic(i, j, k):
        return (i, j, k), (j, k, i), (k, i, j)

    axioms = (
        ("LY1", 2, lambda i, j: _vadd(br(B[i], B[j]), br(B[j], B[i])) == zero),
        ("LY2", 3, lambda i, j, k: _vadd(tr(B[i], B[j], B[k]), tr(B[j], B[i], B[k])) == zero),
        ("LY3", 3, lambda i, j, k: _vadd(zero, *(
            _vadd(br(br(B[a], B[b]), B[c]), tr(B[a], B[b], B[c])) for a, b, c in cyclic(i, j, k)
        )) == zero),
        ("LY4", 4, lambda i, j, k, l: _vadd(zero, *(
            tr(br(B[a], B[b]), B[c], B[l]) for a, b, c in cyclic(i, j, k)
        )) == zero),
        ("LY5", 4, lambda i, j, k, l: tr(B[i], B[j], br(B[k], B[l])) == _vadd(
            br(tr(B[i], B[j], B[k]), B[l]), br(B[k], tr(B[i], B[j], B[l])))),
        ("LY6", 5, lambda i, j, k, l, e: tr(B[i], B[j], tr(B[k], B[l], B[e])) == _vadd(
            tr(tr(B[i], B[j], B[k]), B[l], B[e]),
            tr(B[k], tr(B[i], B[j], B[l]), B[e]),
            tr(B[k], B[l], tr(B[i], B[j], B[e])))),
    )
    out = []
    for axiom, arity, holds in axioms:
        # LY1 and LY2 are symmetric in their first two indices: walk i <= j
        tuples = (w for w in itertools.product(range(d), repeat=arity)
                  if axiom not in ("LY1", "LY2") or w[0] <= w[1])
        witness = next((w for w in tuples if not holds(*w)), None)
        if witness is not None:
            out.append(evallab.Violation(axiom, tuple(w + 1 for w in witness)))
    return out


def leibniz_witness(dimension: int, product) -> tuple[int, ...] | None:
    """The first basis triple (1-based), in itertools.product order, where
    the product given by sparse entries breaks {{a,b},c} = {{a,c},b} + {a,{b,c}},
    in Fraction arithmetic; None when it holds everywhere."""
    mul = FractionAlgebra(dimension, product)  # the product as a bilinear operation
    p = mul.bracket
    B = [mul.basis(i) for i in range(dimension)]
    for i, j, k in itertools.product(range(dimension), repeat=3):
        if p(p(B[i], B[j]), B[k]) != _vadd(p(p(B[i], B[k]), B[j]), p(B[i], p(B[j], B[k]))):
            return (i + 1, j + 1, k + 1)
    return None


def check_identity_per_tuple(item, alg: FractionAlgebra, trials: int = 20, seed: int = 0) -> evallab.CheckResult:
    """evallab.check_identity with a full Fraction evaluation per
    assignment: the same random trials, then every basis tuple in
    itertools.product order, each built as vectors and evaluated through
    every term's tree."""
    degree = item.degree
    d = alg.dimension
    rng = random.Random(seed)
    checked = 0

    def run(vectors):
        nonlocal checked
        value = evaluate(item, alg, vectors)
        checked += 1
        return value

    for _ in range(trials):
        vectors = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
            for _ in range(degree)
        )
        value = run(vectors)
        if any(value):
            return evallab.CheckResult(False, checked, vectors, value)
    if d ** degree <= evallab.EXHAUSTIVE_LIMIT:
        for combo in itertools.product(range(d), repeat=degree):
            vectors = tuple(alg.basis(i) for i in combo)
            value = run(vectors)
            if any(value):
                return evallab.CheckResult(False, checked, vectors, value)
    return evallab.CheckResult(True, checked)
