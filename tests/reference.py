"""Test-side references: permutations as 1-based image tuples, the
expansion of an explicit identity into the canonical monomial basis, the
row canonical form over GF(p) in plain Python, and the identity check that
evaluates every basis tuple afresh.

The package evaluates alternating identities without expanding them,
reduces rows mod p on a sparse echelon basis and reads basis tuples off
memoised subtree tables; the routes here are the independent ones the
tests compare against.
"""

import itertools
import random
from fractions import Fraction

from lyident import evallab, freealg


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


def check_identity_per_tuple(item, alg, trials: int = 20, seed: int = 0) -> evallab.CheckResult:
    """evallab.check_identity with a full evaluate call per assignment:
    the same random trials, then every basis tuple in itertools.product
    order, each built as vectors and evaluated through every term's tree."""
    degree = item.degree
    d = alg.dimension
    rng = random.Random(seed)
    checked = 0

    def run(vectors):
        nonlocal checked
        value = evallab.evaluate(item, alg, vectors)
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
